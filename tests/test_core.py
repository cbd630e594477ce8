"""Dataset generation, validation, and persistence."""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from augbound.augment import AugmentationSet, additive_shift, augmented_distance, identity
from augbound.core import (
    Dataset,
    GeneratorConfig,
    csv_value,
    generate_dataset,
    load_dataset,
    save_dataset,
    write_csv,
)


def test_single_class_zero_spread_is_degenerate():
    cfg = GeneratorConfig(
        num_classes=1,
        samples_per_class=10,
        cluster_centers=((0.0, 0.0),),
        cluster_spread=0.0,
        manifold="gaussian_blobs",
        seed=0,
    )
    ds = generate_dataset(cfg)
    assert ds.num_samples == 10
    assert ds.priors == (1.0,)
    np.testing.assert_array_equal(ds.features, np.zeros((10, 2)))
    np.testing.assert_array_equal(ds.labels, np.zeros(10, dtype=np.int64))


def test_two_blobs_stay_near_their_centers():
    cfg = GeneratorConfig(
        num_classes=2,
        samples_per_class=100,
        cluster_centers=((-10.0, 0.0), (10.0, 0.0)),
        cluster_spread=0.5,
        manifold="gaussian_blobs",
        seed=1,
    )
    ds = generate_dataset(cfg)
    assert ds.num_classes == 2
    assert ds.priors == (0.5, 0.5)
    class0 = ds.features[ds.labels == 0]
    dists = np.linalg.norm(class0 - np.array([-10.0, 0.0]), axis=1)
    assert dists.max() < 3.5


def test_generation_is_deterministic():
    cfg = GeneratorConfig(
        num_classes=2,
        samples_per_class=20,
        cluster_centers=((-3.0, 1.0), (3.0, -1.0)),
        cluster_spread=0.25,
        manifold="gaussian_blobs",
        seed=7,
    )
    a = generate_dataset(cfg)
    b = generate_dataset(cfg)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_ring_segments_lie_on_the_ring():
    cfg = GeneratorConfig(
        num_classes=2,
        samples_per_class=40,
        cluster_centers=((2.0, 0.0), (-2.0, 0.0)),
        cluster_spread=0.1,
        manifold="ring_segments",
        seed=3,
    )
    ds = generate_dataset(cfg)
    radii = np.linalg.norm(ds.features[:, :2], axis=1)
    np.testing.assert_allclose(radii, 2.0, atol=1e-12)


def test_spacing_rule_rejects_close_centers():
    with pytest.raises(ValueError, match="disjoint classes need"):
        GeneratorConfig(
            num_classes=2,
            samples_per_class=5,
            cluster_centers=((0.0, 0.0), (1.0, 0.0)),
            cluster_spread=0.3,
            manifold="gaussian_blobs",
            seed=0,
        )


def test_spacing_rule_can_be_disabled():
    cfg = GeneratorConfig(
        num_classes=2,
        samples_per_class=5,
        cluster_centers=((0.0, 0.0), (1.0, 0.0)),
        cluster_spread=0.3,
        manifold="gaussian_blobs",
        seed=0,
        disjoint_classes=False,
    )
    ds = generate_dataset(cfg)
    assert ds.num_samples == 10


def test_dataset_rejects_empty_class():
    feats = np.zeros((4, 2))
    labels = np.array([0, 0, 2, 2])
    with pytest.raises(ValueError, match="class 1 has no sample"):
        Dataset(feats, labels)


def test_a_large_label_is_refused_without_counting_up_to_it(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("f0,label\n1.0,0\n2.0,3000000\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="class 1 has no sample"):
            load_dataset(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@pytest.mark.parametrize("label", ["100000000000000000000", str(2**63)])
def test_a_label_past_int64_names_the_path_and_row(tmp_path, label):
    path = tmp_path / "big.csv"
    path.write_text(f"f0,label\n1.0,0\n2.0,{label}\n")
    with pytest.raises(ValueError, match=f"big.csv: row 2 has label {label} outside"):
        load_dataset(str(path))


def test_dataset_refuses_labels_the_int64_cast_would_change():
    with pytest.raises(ValueError, match="label 0.7 of row 0 is not an int64 integer"):
        Dataset(np.zeros((2, 1)), [0.7, 1.2])
    with pytest.raises(ValueError, match="label nan of row 1 is not an int64 integer"):
        Dataset(np.zeros((2, 1)), [0.0, float("nan")])
    with pytest.raises(ValueError, match="int64 range"):
        Dataset(np.zeros((2, 1)), [0, 10**20])
    np.testing.assert_array_equal(Dataset(np.zeros((2, 1)), [1.0, 0.0]).labels, [1, 0])


def test_csv_load_counts_empirical_priors(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n1.5,2.5,0\n-1.0,0.0,1\n")
    ds = load_dataset(str(path))
    assert ds.num_classes == 2
    np.testing.assert_allclose(ds.priors, (2 / 3, 1 / 3))


def test_csv_empty_file_reports_no_samples(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("f0,f1,label\n")
    with pytest.raises(ValueError, match="no samples"):
        load_dataset(str(path))


def test_csv_malformed_row_reports_row_index(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,oops,1\n")
    with pytest.raises(ValueError, match="row 2"):
        load_dataset(str(path))


def test_save_load_round_trip(tmp_path):
    cfg = GeneratorConfig(
        num_classes=3,
        samples_per_class=15,
        cluster_centers=((-6.0, 0.0, 1.0), (6.0, 0.0, -1.0), (0.0, 8.0, 0.0)),
        cluster_spread=0.4,
        manifold="gaussian_blobs",
        seed=11,
    )
    ds = generate_dataset(cfg)
    path = tmp_path / "ds.csv"
    save_dataset(ds, str(path))
    back = load_dataset(str(path))
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.num_classes == ds.num_classes


def test_blob_noise_radius_is_hard_capped():
    # Direction-times-truncated-magnitude noise never exceeds twice the
    # spread, which is what makes the 4x spacing rule a real separator.
    cfg = GeneratorConfig(
        num_classes=1,
        samples_per_class=500,
        cluster_centers=((0.0,) * 6,),
        cluster_spread=0.3,
        manifold="gaussian_blobs",
        seed=5,
    )
    ds = generate_dataset(cfg)
    assert np.linalg.norm(ds.features, axis=1).max() <= 2 * 0.3 + 1e-12


def test_classes_stay_separated_under_default_augmentation():
    cfg = GeneratorConfig(
        num_classes=2,
        samples_per_class=25,
        cluster_centers=((-4.0, 0.0), (4.0, 0.0)),
        cluster_spread=0.5,
        manifold="gaussian_blobs",
        seed=13,
    )
    ds = generate_dataset(cfg)
    # Identity plus a modest shift along the last feature axis.
    aug = AugmentationSet((identity(), additive_shift((0.0, 0.5))), grid_resolution=3)
    inter = min(
        augmented_distance(ds.features[i], ds.features[j], aug)
        for i in np.flatnonzero(ds.labels == 0)[:8]
        for j in np.flatnonzero(ds.labels == 1)[:8]
    )
    assert inter > 0.0


def test_sample_accessors():
    cfg = GeneratorConfig(
        num_classes=2,
        samples_per_class=3,
        cluster_centers=((-5.0, 0.0), (5.0, 0.0)),
        cluster_spread=0.1,
        manifold="gaussian_blobs",
        seed=2,
    )
    ds = generate_dataset(cfg)
    np.testing.assert_array_equal(ds.class_indices(1), np.flatnonzero(ds.labels == 1))


def test_write_csv_formats_every_cell(tmp_path):
    path = tmp_path / "cells.csv"
    third = np.float64(1.0) / 3.0
    write_csv(str(path), ["a", "b"], [(True, False), (0.1, third), (7, "x,y"), (1e-300, -0.0)])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [
        ["a", "b"],
        ["true", "false"],
        ["0.1", repr(float(third))],
        ["7", "x,y"],
        ["1e-300", "-0.0"],
    ]
    assert float(rows[2][1]) == third
    assert path.read_bytes().startswith(b"a,b\r\ntrue,false\r\n")


def test_write_csv_writes_the_bytes_of_csv_writer(tmp_path):
    header = ["key", "a,b", 'say "hi"', ""]
    rows = [
        ("plain", 1, 2.5, True),
        ("comma,cell", 'quote"d', "cr\rcell", "lf\ncell"),
        ("cr\ronly", "x"),
        ("lf\nonly", "x"),
        ('quote"only', "x"),
        ("x", "comma,only"),
        ("crlf\r\ncell", "", False, np.float64(1.0) / 3.0),
        ("", "", "", ""),
        ("",),
        (),
        (" lead", "trail ", "\t", '""'),
        (np.float64(-0.0), np.float64(1e300), -7, 'a,"b"\r\n'),
        ("é", "#", "a'b", ";"),
    ]
    path = tmp_path / "tricky.csv"
    write_csv(str(path), header, rows)
    oracle = tmp_path / "oracle.csv"
    with open(oracle, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([csv_value(cell) for cell in row] for row in rows)
    assert path.read_bytes() == oracle.read_bytes()
    with open(path, newline="") as fh:
        assert list(csv.reader(fh))[9] == [""]


_F64_THIRD = np.float64(1.0) / 3.0


@pytest.mark.parametrize(
    "rows",
    [
        # Columns of floats, of ints and of other cells, so the records are
        # built column by column: plain joins, or checked for quoting.
        [(math.nan, 1, -0.0), (math.inf, -2, 5e-324), (-math.inf, 0, _F64_THIRD)],
        [(np.float64(0.1), 3), (np.float64(-0.0), 4), (np.float64(1e300), -5)],
        [(1, 0.5), (True, 2.5), (3, 4.5)],  # a bool in an int column
        [("a,b", 1.0), ('say "hi"', 2.0), ("cr\rcell", 3.0), ("lf\ncell", 4.0), ("plain", 5.0)],
        [("",), ("x",), (1.5,)],  # one lone empty cell
        [(1.0, 2), (3.0,), (4.0, 5, "six")],  # ragged rows
        [(), ()],
        [],
    ],
    ids=["special_floats", "np_float64", "bool_in_ints", "quoted_text", "lone_empty",
         "ragged", "empty_rows", "no_rows"],
)
def test_write_csv_matches_csv_writer_with_csv_value_per_cell(rows, tmp_path):
    path, oracle = tmp_path / "table.csv", tmp_path / "oracle.csv"
    write_csv(str(path), ["a", "b", "c"], iter(rows))
    with open(oracle, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "c"])
        writer.writerows([csv_value(cell) for cell in row] for row in rows)
    assert path.read_bytes() == oracle.read_bytes()
