"""Config schema, pipeline stages, sweeps, and the command-line entry point."""

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from augbound.augment import (
    AugmentationSet,
    additive_shift,
    identity,
    rotation_2d,
    scaling,
)
from augbound.cli import main
from augbound import encoder, experiments
from augbound.core import (
    Dataset,
    csv_value,
    generate_dataset,
    load_dataset,
    save_dataset,
    spec_dict,
)
from augbound.encoder import init_encoder, make_train_batch, train
from augbound.experiments import (
    ConfigError,
    StageError,
    config_from_dict,
    config_to_dict,
    load_config,
    run_experiment,
    run_sweep,
    scale_transform_strength,
    stage_train,
    with_seed_override,
)
from test_acceptance import _RING_COMMON, _RING_DATASET, INEQUALITY_FIXTURES


def _config_dict(**overrides):
    base = {
        "dataset": {
            "num_classes": 2,
            "samples_per_class": 6,
            "cluster_centers": [[-2.0, 0.0], [2.0, 0.0]],
            "cluster_spread": 0.1,
            "manifold": "gaussian_blobs",
            "seed": 5,
        },
        "augmentation": {
            "grid_resolution": 3,
            "transforms": [
                {"rule": "identity"},
                {"rule": "additive_shift", "direction": [0.0, 0.3]},
            ],
        },
        "encoder": {
            "hidden_dims": [4],
            "output_dim": 2,
            "norm_mode": "sphere",
            "radius": 1.0,
            "seed": 7,
        },
        "training": {
            "loss": "info_nce",
            "steps": 5,
            "batch_size": 4,
            "learning_rate": 0.05,
            "seed": 9,
        },
        "analysis": {
            "delta_grid": [0.5, 1.0],
            "epsilon_grid": [0.1, 0.2],
            "clique_mode": "exact",
        },
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in base:
            base[key] = {**base[key], **value}
        else:
            base[key] = value
    return base


def _write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("dataset"), "config.dataset is missing"),
        (lambda d: d.pop("analysis"), "config.analysis is missing"),
        (lambda d: d["analysis"].update(delta_grid=[1.0, 0.5]), "strictly ascending"),
        (lambda d: d["analysis"].update(delta_grid=[-0.5, 1.0]), "positive"),
        (lambda d: d["analysis"].update(epsilon_grid=[]), "non-empty"),
        (lambda d: d["analysis"].update(epsilon_grid=[0.5, 0.1, 0.5]), "must not repeat"),
        (lambda d: d["analysis"].update(epsilon_grid=[1, 0.5, 1.0]), "must not repeat"),
        (lambda d: d["analysis"].update(clique_mode="greedy"), "analysis.clique_mode"),
        (lambda d: d["training"].update(loss="triplet"), "training.loss"),
        (lambda d: d["training"].update(steps=True), "must be an integer"),
        (lambda d: d["training"].update(batch_size=1), "must be >= 2"),
        (lambda d: d["encoder"].update(norm_mode="layer"), "encoder.norm_mode"),
        (
            lambda d: d["augmentation"]["transforms"].append({"rule": "blur"}),
            "augmentation section invalid",
        ),
        (
            lambda d: d["encoder"].update(norm_mode="batch_standardized"),
            "needs norm_mode 'sphere'",
        ),
        (
            lambda d: d["training"].update(loss="cross_corr"),
            "batch_standardized",
        ),
        (lambda d: d["encoder"].update(radius=2.0), "radius 1"),
        # Standardization reads no radius: another value would reach only
        # config.json and model.bin.
        (
            lambda d: (
                d["encoder"].update(norm_mode="batch_standardized", radius=2.0),
                d["training"].update(loss="cross_corr"),
            ),
            "loss 'cross_corr' needs norm_mode 'batch_standardized' with radius 1",
        ),
        (
            lambda d: d["dataset"].update(cluster_centers=[[1.0, 0.0], [3.0]]),
            "dataset section invalid: cluster_centers row 1 has length 1, row 0 has length 2",
        ),
        # No loss trains an encoder without an output normalization.
        (
            lambda d: d["encoder"].update(norm_mode="none"),
            "encoder.norm_mode must be one of sphere, batch_standardized, got 'none'",
        ),
    ],
)
def test_config_schema_violations(mutate, fragment):
    data = _config_dict()
    mutate(data)
    with pytest.raises(ConfigError, match=fragment):
        config_from_dict(data)


def test_sphere_losses_need_a_radius_of_exactly_one():
    # The bounds take r = 1 for info_nce and simple, so the sphere must have it.
    for loss in ("info_nce", "simple"):
        with pytest.raises(ConfigError, match="radius 1"):
            config_from_dict(_config_dict(encoder={"radius": 1.0 + 1e-12}, training={"loss": loss}))


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("training", "learning_rate", float("nan")),
        ("training", "lam", float("inf")),
        ("encoder", "radius", float("nan")),
        ("analysis", "delta_grid", [0.5, float("-inf")]),
    ],
)
def test_config_rejects_non_finite_numbers(section, key, value):
    # The json module writes and reads NaN and Infinity; NaN compares false
    # with every bound.
    text = json.dumps(_config_dict(**{section: {key: value}}))
    assert "NaN" in text or "Infinity" in text
    with pytest.raises(ConfigError, match=rf"{section}\.{key}.* must be finite"):
        config_from_dict(json.loads(text))


@pytest.mark.parametrize(
    "build, fragment",
    [
        (lambda c: replace(c, delta_grid=(0.5, float("nan"), 0.1)), "delta_grid"),
        (lambda c: replace(c, epsilon_grid=(float("nan"),)), "epsilon_grid"),
        (lambda c: experiments.SweepSpec("strength", (1.0, float("nan"), 0.5)), "strength"),
        (lambda c: replace(c.dataset, cluster_spread=float("nan")), "cluster_spread"),
    ],
    ids=["delta_grid", "epsilon_grid", "strength_levels", "cluster_spread"],
)
def test_nan_fails_the_range_rules_of_a_config_built_in_code(build, fragment):
    # replace() and constructors skip from_spec's refusal of non-finite numbers.
    config = config_from_dict(_config_dict())
    with pytest.raises((ConfigError, ValueError), match=fragment):
        build(config)


@pytest.mark.parametrize(
    "transform, fragment",
    [
        ({"rule": "rotation_2d_subspace", "axes": [0, 1], "max_angle": float("nan"),
          "data_radius": 2.0}, "must be finite"),
        ({"rule": "rotation_2d_subspace", "axes": [0, 1], "max_angle": 1.0,
          "data_radius": float("inf")}, "must be finite"),
        ({"rule": "rotation_2d_subspace", "axes": [0, 1], "max_angle": 1.0,
          "data_radius": float("-inf")}, "must be finite"),
        ({"rule": "scale", "scale_span": [float("nan"), 1.2], "data_radius": 2.0},
         "must be finite"),
        ({"rule": "additive_shift", "direction": [float("nan"), 0.0]}, "must be finite"),
        ({"rule": "additive_shift", "direction": [0.0, float("inf")]}, "must be finite"),
        # int() raises OverflowError, not ValueError, on these.
        ({"rule": "coordinate_permutation", "permutation": [float("inf"), 0]}, "infinity"),
        ({"rule": "rotation_2d_subspace", "axes": [0, float("inf")], "max_angle": 1.0,
          "data_radius": 2.0}, "infinity"),
    ],
)
def test_config_rejects_non_finite_transform_parameters(transform, fragment):
    data = _config_dict(augmentation={"transforms": [{"rule": "identity"}, transform]})
    text = json.dumps(data)
    assert "NaN" in text or "Infinity" in text
    with pytest.raises(ConfigError, match=f"augmentation section invalid: .*{fragment}"):
        config_from_dict(json.loads(text))


def test_config_rejects_an_infinite_grid_resolution():
    text = json.dumps(_config_dict(augmentation={"grid_resolution": float("inf")}))
    with pytest.raises(ConfigError, match="augmentation section invalid"):
        config_from_dict(json.loads(text))


def _with_transform(transform):
    return lambda d: d["augmentation"]["transforms"].append(transform)


_ROTATION = {"rule": "rotation_2d_subspace", "max_angle": 1.0, "data_radius": 2.0}


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        # Spec values are checked, never converted with int(), float() or bool().
        (lambda d: d["augmentation"].update(grid_resolution=3.7), "grid_resolution .* integer"),
        (lambda d: d["augmentation"].update(grid_resolution=True), "grid_resolution .* integer"),
        (
            _with_transform({"rule": "coordinate_permutation", "permutation": [1.9, 0.2]}),
            r"coordinate_permutation\.permutation\[\*\] must be an integer",
        ),
        (
            _with_transform({**_ROTATION, "axes": [0.9, 1.2]}),
            r"rotation_2d_subspace\.axes\[\*\] must be an integer",
        ),
        (
            _with_transform({"rule": "additive_shift", "direction": [True, 0.0]}),
            r"additive_shift\.direction\[\*\] must be a number",
        ),
        (
            _with_transform({"rule": "sign_flip_mask", "signs": [True, -1.0]}),
            r"sign_flip_mask\.signs\[\*\] must be a number",
        ),
        (
            _with_transform({"rule": "coordinate_permutation", "permutation": "10"}),
            r"coordinate_permutation\.permutation must be a list",
        ),
        (_with_transform({**_ROTATION, "axes": [0, 1, 0]}), "two distinct non-negative axes"),
        (_with_transform({**_ROTATION, "axes": [0]}), "two distinct non-negative axes"),
        (
            lambda d: d["dataset"].update(cluster_centers=[[True, 0.0], [2.0, 0.0]]),
            r"dataset\.cluster_centers\[\*\] must be a number",
        ),
        (
            lambda d: d["dataset"].update(disjoint_classes="false"),
            "dataset.disjoint_classes must be true or false",
        ),
        # A JSON integer literal past the float range.
        (
            lambda d: d["training"].update(learning_rate=10**400),
            r"training\.learning_rate must be finite",
        ),
    ],
    ids=[
        "grid_resolution_float",
        "grid_resolution_bool",
        "permutation_floats",
        "axes_floats",
        "direction_bool",
        "signs_bool",
        "permutation_string",
        "three_axes",
        "one_axis",
        "cluster_centers_bool",
        "disjoint_classes_string",
        "learning_rate_past_float_range",
    ],
)
def test_config_rejects_values_of_the_wrong_type(mutate, fragment):
    data = _config_dict()
    mutate(data)
    with pytest.raises(ConfigError, match=fragment):
        config_from_dict(json.loads(json.dumps(data)))


def test_pairs_catalog_number_past_the_float_range_is_a_config_error():
    shift = {"rule": "additive_shift", "direction": [10**400, 0.0]}
    other = {"rule": "additive_shift", "direction": [0.0, 0.3]}
    data = _config_dict(sweep={"kind": "pairs", "levels": [shift, other]})
    with pytest.raises(ConfigError, match="sweep.levels transform invalid"):
        config_from_dict(json.loads(json.dumps(data)))


def test_load_config_io_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))


def test_dataset_path_resolves_relative_to_config(tmp_path):
    sub = tmp_path / "cfgs"
    sub.mkdir()
    data = _config_dict(dataset={"path": "../data/points.csv"})
    data["dataset"] = {"path": "../data/points.csv"}
    path = _write_config(sub, data)
    config = load_config(path)
    assert config.dataset == os.path.normpath(str(tmp_path / "data" / "points.csv"))


def test_seed_override_fans_out():
    config = config_from_dict(_config_dict())
    seeded = with_seed_override(config, 40)
    assert seeded.dataset.seed == 40
    assert seeded.encoder.seed == 41
    assert seeded.training.seed == 42
    # loaded datasets keep their file identity
    by_path = config_from_dict(_config_dict(dataset={"path": "d.csv"}))
    assert with_seed_override(by_path, 7).dataset == by_path.dataset


def test_config_round_trips_through_dict():
    data = _config_dict()
    data["sweep"] = {"kind": "strength", "levels": [0.5, 1.0, 2.0]}
    config = config_from_dict(data)
    assert config_from_dict(config_to_dict(config)) == config


# ---------------------------------------------------------------------------
# Pipeline artifacts
# ---------------------------------------------------------------------------

EXPECTED_ARTIFACTS = (
    "config.json",
    "dataset.csv",
    "model.bin",
    "trace.csv",
    "concentration.csv",
    "evaluation.csv",
    "bounds.csv",
)


def test_run_experiment_writes_every_artifact(tmp_path):
    config = config_from_dict(_config_dict())
    out = tmp_path / "run"
    result = run_experiment(config, str(out))
    # exactly these files: no fact is written twice
    assert sorted(os.listdir(out)) == sorted(EXPECTED_ARTIFACTS)
    assert set(result.reports) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert result.canonical_report is result.reports[(1, 0)]


def test_bounds_csv_covers_the_full_grid(tmp_path):
    config = config_from_dict(_config_dict())
    out = tmp_path / "run"
    run_experiment(config, str(out))
    with open(out / "bounds.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    deltas = {row["delta"] for row in rows}
    epsilons = {row["epsilon"] for row in rows}
    assert deltas == {repr(0.5), repr(1.0)}
    assert epsilons == {repr(0.1), repr(0.2)}
    keys = {row["key"] for row in rows}
    assert "thm1.bound" in keys and "thm2.bound" in keys
    assert not any(key.startswith(("inputs.", "empirical.")) for key in keys)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("mode", ["exact", "dual_approx"])
def test_concentration_csv_members_are_the_main_parts(tmp_path, mode):
    config = config_from_dict(
        _config_dict(dataset={"cluster_spread": 0.5}, analysis={"clique_mode": mode})
    )
    result = run_experiment(config, str(tmp_path / "run"))
    rows = _csv_rows(tmp_path / "run" / "concentration.csv")
    expected = [
        (csv_value(estimate.delta), str(k), part)
        for estimate in result.curve
        for k, part in enumerate(estimate.main_parts)
    ]
    got = [
        (row["delta"], row["class_id"], tuple(int(v) for v in row["members"].split()))
        for row in rows
    ]
    assert got == expected
    # A main part smaller than its class, so the column is not every sample.
    assert len(result.curve[0].main_parts[0]) < 6
    assert all(int(row["main_part_size"]) == len(row["members"].split()) for row in rows)


def test_each_measured_input_of_a_report_is_on_disk_once_outside_bounds_csv(tmp_path):
    config = config_from_dict(_config_dict())
    out = tmp_path / "run"
    result = run_experiment(config, str(out))
    measured = {row["key"]: row["value"] for row in _csv_rows(out / "evaluation.csv")}
    # The evaluation record is the file, row for row.
    assert list(measured) == list(result.bundle)
    assert measured == {key: csv_value(value) for key, value in result.bundle.items()}
    sigma_at = {row["delta"]: row["sigma"] for row in _csv_rows(out / "concentration.csv")}
    for report in result.reports.values():
        inputs, empirical = report.inputs, report.empirical
        assert sigma_at[csv_value(inputs.delta)] == csv_value(inputs.sigma)
        assert measured[f"r_eps.{csv_value(inputs.epsilon)}"] == csv_value(inputs.r_eps)
        assert measured["mu_product.0_1"] == csv_value(inputs.mu_products[0])
        for key, value in [
            ("err", empirical.err),
            ("lipschitz", inputs.lipschitz),
            ("radius", inputs.radius),
            ("delta_mu", inputs.delta_mu),
            ("l_pos", inputs.l_pos),
            ("loss.kind", inputs.loss_kind),
            ("loss.l1", inputs.l1),
            ("loss.l2", inputs.l2),
            ("moment.first.class_1", empirical.class_first_moments[1]),
            ("moment.second.class_1", empirical.class_second_moments[1]),
        ]:
            assert measured[key] == csv_value(value), key


def _bounds_csv_from_the_other_files(run_dir, out_dir):
    """``bounds.csv`` rebuilt from ``config.json``, ``dataset.csv``,
    ``concentration.csv`` and ``evaluation.csv`` alone, every number parsed
    back from its cell."""
    config = load_config(str(run_dir / "config.json"))
    dataset = load_dataset(str(run_dir / "dataset.csv"))
    sigma_at = {}
    for row in _csv_rows(run_dir / "concentration.csv"):
        sigma_at.setdefault(float(row["delta"]), float(row["sigma"]))
    curve = tuple(SimpleNamespace(delta=delta, sigma=sigma) for delta, sigma in sigma_at.items())
    record = {
        row["key"]: row["value"] if row["key"] == "loss.kind" else float(row["value"])
        for row in _csv_rows(run_dir / "evaluation.csv")
    }
    out_dir.mkdir()
    experiments.stage_bounds(config, dataset, curve, record, str(out_dir))
    return (out_dir / "bounds.csv").read_bytes()


_FIXTURES = {name: (seeds, raw) for name, seeds, raw in INEQUALITY_FIXTURES}


@pytest.mark.parametrize("case", ["info_nce_d8_k4", "cross_corr_d8_k4", "simple", "ring_pairs"])
def test_bounds_csv_is_a_function_of_the_other_files(tmp_path, case):
    seed = 0
    if case == "simple":
        # An unsorted epsilon grid: its order is free.
        raw = _config_dict(training={"loss": "simple"}, analysis={"epsilon_grid": [0.5, 0.1, 0.25]})
    elif case == "ring_pairs":
        rot = {"rule": "rotation_2d_subspace", "axes": [0, 1], "data_radius": 2.0}
        raw = {
            "dataset": _RING_DATASET,
            "augmentation": {"grid_resolution": 5, "transforms": [{"rule": "identity"}]},
            **_RING_COMMON,
            "analysis": {"delta_grid": [0.4, 0.6], "epsilon_grid": [0.25]},
            "sweep": {"kind": "pairs", "levels": [
                {**rot, "max_angle": 1.4},
                {**rot, "max_angle": 0.6},
                {"rule": "scale", "scale_span": [0.85, 1.15], "data_radius": 2.0},
                {"rule": "additive_shift", "direction": [0.0, 0.25, 0.0]},
            ]},
        }
    else:
        (seed, _), raw = _FIXTURES[case]
    config = with_seed_override(config_from_dict(raw), seed)
    out = tmp_path / "run"
    if config.sweep is None:
        run_experiment(config, str(out))
        run_dirs = [out]
    else:
        assert run_sweep(config, str(out)).failures == ()
        run_dirs = sorted(out.glob("level_*"))
        assert len(run_dirs) == 6
    for i, run_dir in enumerate(run_dirs):
        rebuilt = _bounds_csv_from_the_other_files(run_dir, tmp_path / f"rebuilt_{i}")
        assert rebuilt == (run_dir / "bounds.csv").read_bytes(), run_dir.name


def test_the_canonical_cell_of_bounds_csv_is_the_canonical_report(tmp_path, monkeypatch):
    real_loss = experiments.population_loss

    def far_below_the_thm3_domain(*args, **kwargs):
        return replace(real_loss(*args, **kwargs), l2=-1e9)

    monkeypatch.setattr(experiments, "population_loss", far_below_the_thm3_domain)
    config = config_from_dict(_config_dict())
    out = tmp_path / "run"
    result = run_experiment(config, str(out))
    with open(out / "bounds.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = {}
    for row in rows:
        cell = cells.setdefault((row["delta"], row["epsilon"]), {})
        assert row["key"] not in cell, row
        cell[row["key"]] = row["value"]
    canonical = cells[(csv_value(config.delta_grid[-1]), csv_value(config.epsilon_grid[0]))]
    flat = result.canonical_report.to_flat_dict()
    assert canonical == {key: csv_value(value) for key, value in flat.items()}
    assert not result.canonical_report.thm3_pairs[0].in_domain
    assert canonical["thm3.bound.0_1"] == "nan"
    assert canonical["thm3.in_domain.0_1"] == "false"


def test_stage_train_writes_integer_steps_and_repr_losses_to_trace_csv(tmp_path, monkeypatch):
    trace = np.array([[0, 0.5, -0.9, 1.4], [1, 0.1 + 0.2, -0.95, 1.35]])
    monkeypatch.setattr(experiments, "train", lambda model, *args: (model, trace))
    config = config_from_dict(_config_dict())
    stage_train(config, generate_dataset(config.dataset), str(tmp_path))
    assert (tmp_path / "trace.csv").read_bytes() == (
        b"step,loss,l1,l2\r\n0,0.5,-0.9,1.4\r\n1,0.30000000000000004,-0.95,1.35\r\n"
    )


def test_zero_training_steps_write_the_trace_header_only(tmp_path):
    config = config_from_dict(_config_dict(training={"steps": 0}))
    _, trace = stage_train(config, generate_dataset(config.dataset), str(tmp_path))
    assert trace.shape == (0, 4)
    assert (tmp_path / "trace.csv").read_bytes() == b"step,loss,l1,l2\r\n"


def test_run_experiment_is_byte_deterministic(tmp_path):
    config = config_from_dict(_config_dict())
    first = tmp_path / "a"
    second = tmp_path / "b"
    run_experiment(config, str(first))
    run_experiment(config, str(second))
    for name in EXPECTED_ARTIFACTS:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_stage_error_names_the_stage_and_keeps_artifacts(tmp_path):
    missing = _config_dict()
    missing["dataset"] = {"path": str(tmp_path / "nowhere.csv")}
    config = config_from_dict(missing)
    out = tmp_path / "broken"
    with pytest.raises(StageError, match="stage 'dataset' failed") as info:
        run_experiment(config, str(out))
    assert info.value.stage == "dataset"
    assert (out / "config.json").is_file()

    diverging = config_from_dict(_config_dict())
    diverging = replace(
        diverging, training=replace(diverging.training, learning_rate=float("inf"))
    )
    out2 = tmp_path / "diverged"
    with pytest.raises(StageError, match="stage 'train' failed.*diverged") as info:
        run_experiment(diverging, str(out2))
    assert info.value.stage == "train"
    assert (out2 / "dataset.csv").is_file()
    assert not (out2 / "model.bin").exists()


# Per stage, in pipeline order: the callee a failure is injected into, and
# the files the stage writes.
_STAGE_FILES = [
    ("dataset", "generate_dataset", ["dataset.csv"]),
    ("concentration", "sigma_delta_curve", ["concentration.csv"]),
    ("train", "train", ["model.bin", "trace.csv"]),
    ("evaluate", "embed_views", ["evaluation.csv"]),
    ("bounds", "full_report", ["bounds.csv"]),
]
# Per stage: the callee, and every file written before the stage runs.
_STAGE_CALLEES = [
    (stage, callee, ["config.json"] + [name for *_, files in _STAGE_FILES[:i] for name in files])
    for i, (stage, callee, _) in enumerate(_STAGE_FILES)
]


@pytest.mark.parametrize("stage, callee, earlier", _STAGE_CALLEES)
def test_each_stage_reports_its_failure_and_keeps_earlier_artifacts(
    tmp_path, monkeypatch, stage, callee, earlier
):
    config = config_from_dict(_config_dict())
    boom = RuntimeError("injected fault")

    def fail(*args, **kwargs):
        raise boom

    monkeypatch.setattr(experiments, callee, fail)
    out = tmp_path / "out"
    with pytest.raises(StageError) as info:
        run_experiment(config, str(out))
    assert info.value.stage == stage
    assert str(info.value) == f"stage '{stage}' failed: injected fault"
    assert info.value.__cause__ is boom
    assert sorted(os.listdir(out)) == sorted(earlier)

    inner = StageError("inner", "raised inside")

    def fail_staged(*args, **kwargs):
        raise inner

    monkeypatch.setattr(experiments, callee, fail_staged)
    with pytest.raises(StageError) as info:
        run_experiment(config, str(tmp_path / "again"))
    assert info.value is inner


_OVER_BUDGET = "graph has 33 nodes, over the exact budget of 32; use the dual_approx mode"


def _forbid_training(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("train was called")

    monkeypatch.setattr(experiments, "train", fail)
    monkeypatch.setattr(encoder, "_train_stack", fail)


def test_an_over_budget_exact_run_fails_at_concentration_before_training(tmp_path, monkeypatch):
    _forbid_training(monkeypatch)
    config = config_from_dict(_config_dict(dataset={"samples_per_class": 33}))
    out = tmp_path / "out"
    with pytest.raises(StageError) as info:
        run_experiment(config, str(out))
    assert info.value.stage == "concentration"
    assert str(info.value) == f"stage 'concentration' failed: {_OVER_BUDGET}"
    assert sorted(os.listdir(out)) == ["config.json", "dataset.csv"]


def test_an_over_budget_sweep_level_fails_at_concentration(tmp_path, monkeypatch):
    _forbid_training(monkeypatch)
    data = _config_dict(
        dataset={"samples_per_class": 33}, sweep={"kind": "strength", "levels": [1.0]}
    )
    out = tmp_path / "sweep"
    result = run_sweep(config_from_dict(data), str(out))
    assert result.results == {}
    with open(out / "failures.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows == [
        {
            "level": "1.0",
            "stage": "concentration",
            "message": f"stage 'concentration' failed: {_OVER_BUDGET}",
        }
    ]


def test_a_dual_approx_run_of_a_thousand_per_class_finds_each_whole_class(tmp_path):
    # Each class graph is complete at both deltas, so the search's first
    # descent is 1,000 nodes deep: deeper than Python's recursion limit.
    raw = {label: data for label, _, data in INEQUALITY_FIXTURES}["info_nce_d2_k2"]
    data = {
        **raw,
        "dataset": {**raw["dataset"], "samples_per_class": 1000},
        "analysis": {**raw["analysis"], "clique_mode": "dual_approx"},
    }
    out = tmp_path / "out"
    assert main(["concentration", "--config", _write_config(tmp_path, data), "--out", str(out)]) == 0
    rows = _csv_rows(out / "concentration.csv")
    assert len(rows) == 4
    assert {(row["main_part_size"], row["sigma"]) for row in rows} == {("1000", "1.0")}


def test_loaded_dataset_round_trips_through_pipeline(tmp_path):
    config = config_from_dict(_config_dict())
    dataset = generate_dataset(config.dataset)
    data_path = tmp_path / "points.csv"
    save_dataset(dataset, str(data_path))
    loaded_cfg = config_from_dict(_config_dict(dataset={"path": str(data_path)}))
    loaded_cfg = config_from_dict(
        {**_config_dict(), "dataset": {"path": str(data_path)}}
    )
    out = tmp_path / "from_file"
    result = run_experiment(loaded_cfg, str(out))
    np.testing.assert_array_equal(result.dataset.features, dataset.features)
    np.testing.assert_array_equal(result.dataset.labels, dataset.labels)


# ---------------------------------------------------------------------------
# Strength scaling helper
# ---------------------------------------------------------------------------


def test_scale_transform_strength_per_rule():
    shift = scale_transform_strength(additive_shift((0.0, 0.3)), 2.0)
    assert shift.direction == (0.0, 0.6)
    rot = scale_transform_strength(rotation_2d((0, 1), 0.4, 2.0), 1.5)
    assert rot.max_angle == pytest.approx(0.6)
    assert rot.axes == (0, 1) and rot.data_radius == 2.0
    sc = scale_transform_strength(scaling(0.5, 1.4, 2.0), 1.5)
    assert sc.scale_span == (pytest.approx(0.25), pytest.approx(1.6))
    assert sc.data_radius == 2.0
    assert scale_transform_strength(identity(), 3.0) == identity()
    with pytest.raises(ValueError, match="positive"):
        scale_transform_strength(identity(), 0.0)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _richness_levels():
    lean = {
        "grid_resolution": 3,
        "transforms": [{"rule": "identity"}],
    }
    rich = {
        "grid_resolution": 3,
        "transforms": [
            {"rule": "identity"},
            {"rule": "additive_shift", "direction": [0.0, 0.3]},
        ],
    }
    return lean, rich


def test_sweep_validation_errors():
    lean, rich = _richness_levels()
    with pytest.raises(ConfigError, match="must add transforms"):
        config_from_dict(
            _config_dict(sweep={"kind": "richness", "levels": [rich, rich]})
        )
    with pytest.raises(ConfigError, match="must contain every transform"):
        other = {
            "grid_resolution": 3,
            "transforms": [
                {"rule": "identity"},
                {"rule": "sign_flip_mask", "signs": [-1.0, 1.0]},
                {"rule": "additive_shift", "direction": [0.5, 0.0]},
            ],
        }
        config_from_dict(
            _config_dict(sweep={"kind": "richness", "levels": [rich, other]})
        )
    with pytest.raises(ConfigError, match="grid_resolution"):
        coarse = {**lean, "grid_resolution": 2}
        config_from_dict(
            _config_dict(sweep={"kind": "richness", "levels": [coarse, rich]})
        )
    with pytest.raises(ConfigError, match="strictly increasing"):
        config_from_dict(_config_dict(sweep={"kind": "strength", "levels": [1.0, 1.0]}))
    with pytest.raises(ConfigError, match="positive"):
        config_from_dict(_config_dict(sweep={"kind": "strength", "levels": [-1.0, 2.0]}))
    with pytest.raises(ConfigError, match="identity"):
        config_from_dict(
            _config_dict(
                sweep={
                    "kind": "pairs",
                    "levels": [
                        {"rule": "identity"},
                        {"rule": "additive_shift", "direction": [0.1, 0.0]},
                    ],
                }
            )
        )
    with pytest.raises(ConfigError, match="at least two"):
        config_from_dict(
            _config_dict(
                sweep={
                    "kind": "pairs",
                    "levels": [{"rule": "additive_shift", "direction": [0.1, 0.0]}],
                }
            )
        )
    with pytest.raises(ConfigError, match="no sweep section"):
        run_sweep(config_from_dict(_config_dict()), "unused")


def test_single_level_sweep_equals_direct_run(tmp_path):
    _, rich = _richness_levels()
    config = config_from_dict(
        _config_dict(sweep={"kind": "richness", "levels": [rich]})
    )
    sweep_dir = tmp_path / "sweep"
    result = run_sweep(config, str(sweep_dir))
    assert result.levels == ("2",)
    assert result.failures == ()
    rows = _csv_rows(sweep_dir / "summary.csv")
    assert len(rows) == 1

    direct = run_experiment(
        replace(config, sweep=None), str(tmp_path / "direct")
    )
    row = rows[0]
    assert row["level"] == "2"
    assert float(row["sigma"]) == direct.curve[-1].sigma
    assert float(row["one_minus_sigma"]) == 1.0 - direct.curve[-1].sigma
    assert float(row["err"]) == direct.bundle.err
    assert float(row["thm1_bound"]) == direct.canonical_report.thm1_bound
    assert row["valid"] == str(direct.canonical_report.thm1_valid).lower()


def test_richness_sweep_levels_and_failure_recovery(tmp_path):
    lean, rich = _richness_levels()
    broken = {
        "grid_resolution": 3,
        "transforms": rich["transforms"]
        + [{"rule": "additive_shift", "direction": [0.0, 0.0, 0.4]}],
    }
    config = config_from_dict(
        _config_dict(sweep={"kind": "richness", "levels": [lean, rich, broken]})
    )
    out = tmp_path / "sweep"
    result = run_sweep(config, str(out))
    assert result.levels == ("1", "2", "3")
    assert set(result.results) == {"1", "2"}
    assert len(result.failures) == 1
    label, stage, message = result.failures[0]
    assert label == "3"
    assert stage == "dataset"
    assert message == (
        "stage 'dataset' failed: additive_shift length does not match feature dimension 2"
    )
    rows = _csv_rows(out / "summary.csv")
    assert [r["level"] for r in rows] == ["1", "2"]
    with open(out / "failures.csv", newline="") as fh:
        failure_rows = list(csv.DictReader(fh))
    assert failure_rows[0]["level"] == "3"
    assert failure_rows[0]["stage"] == stage
    assert (out / "level_00" / "bounds.csv").is_file()
    assert (out / "level_01" / "bounds.csv").is_file()
    assert os.listdir(out / "level_02") == ["config.json"]


_PAIRS_CATALOG = [
    {"rule": "additive_shift", "direction": [0.0, 0.2]},
    {"rule": "additive_shift", "direction": [0.2, 0.0]},
    {"rule": "sign_flip_mask", "signs": [-1.0, 1.0]},
    {"rule": "rotation_2d_subspace", "axes": [0, 1], "max_angle": 0.1, "data_radius": 3.0},
]


def test_pairs_sweep_enumerates_two_subsets(tmp_path, capsys):
    config = config_from_dict(_config_dict(sweep={"kind": "pairs", "levels": _PAIRS_CATALOG}))
    out = tmp_path / "pairs"
    result = run_sweep(config, str(out))
    assert result.levels == ("0_1", "0_2", "0_3", "1_2", "1_3", "2_3")
    rows = _csv_rows(out / "summary.csv")
    assert len(rows) == 6
    with open(out / "correlation.csv", newline="") as fh:
        corr = list(csv.DictReader(fh))
    assert [row["delta"] for row in corr] == [repr(0.5), repr(1.0)]
    for row in corr:
        value = float(row["spearman"])
        assert math.isnan(value) or -1.0 <= value <= 1.0
    # One stderr line per nan, naming its delta.
    said = [line.split(" is nan: ")[0] for line in capsys.readouterr().err.splitlines()]
    nan_deltas = [row["delta"] for row in corr if row["spearman"] == "nan"]
    assert said == [f"spearman at delta {delta}" for delta in nan_deltas]


@pytest.mark.parametrize("source", ["generated", "saved"])
def test_a_pairs_sweep_level_that_does_not_fit_the_dataset_dimension_fails_at_dataset(
    tmp_path, capsys, source
):
    # The loader checks at most the base augmentation against the dataset's
    # dimension; each catalog pair is checked by its level's stage 'dataset',
    # whichever the source of the 2-d dataset.
    catalog = _PAIRS_CATALOG[:2] + [{"rule": "additive_shift", "direction": [0.0, 0.0, 0.4]}]
    data = _config_dict(sweep={"kind": "pairs", "levels": catalog})
    if source == "saved":
        points = tmp_path / "points.csv"
        save_dataset(generate_dataset(config_from_dict(data).dataset), str(points))
        data["dataset"] = {"path": str(points)}
    out = tmp_path / "pairs"
    assert main(["sweep", "--config", _write_config(tmp_path, data), "--out", str(out)]) == 0
    assert "1 of 3 levels succeeded" in capsys.readouterr().out
    assert [r["level"] for r in _csv_rows(out / "summary.csv")] == ["0_1"]
    with open(out / "failures.csv", newline="") as fh:
        failure_rows = list(csv.DictReader(fh))
    assert [(r["level"], r["stage"]) for r in failure_rows] == [
        ("0_2", "dataset"),
        ("1_2", "dataset"),
    ]
    assert all(
        r["message"]
        == "stage 'dataset' failed: additive_shift length does not match feature dimension 2"
        for r in failure_rows
    )
    assert (out / "level_00" / "bounds.csv").is_file()
    for level in ("level_01", "level_02"):
        assert os.listdir(out / level) == ["config.json"]


def _tied_values(rng, n):
    levels = int(rng.integers(2, n + 1))
    return [float(v) for v in rng.integers(0, levels, n) / levels]


def test_spearman_matches_scipy_bit_for_bit():
    from scipy.stats import spearmanr  # the package itself never imports scipy.stats

    rng = np.random.default_rng(2111)
    checked = 0
    for case in range(400):
        n = int(rng.integers(3, 13))
        x = _tied_values(rng, n)
        y = _tied_values(rng, n) if case % 2 else [float(v) for v in rng.random(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue  # constant inputs are the degenerate case, never ranked
        assert experiments._spearman(x, y) == float(spearmanr(x, y).statistic), (x, y)
        checked += 1
    assert checked >= 300


def _read_correlation(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["delta", "spearman"]
    return rows[1:]


def _level(one_minus_sigma, err):
    curve = [SimpleNamespace(sigma=1.0 - s) for s in one_minus_sigma]
    return SimpleNamespace(curve=curve, bundle=SimpleNamespace(err=err))


def test_pairs_correlation_is_nan_exactly_for_degenerate_inputs(tmp_path):
    config = SimpleNamespace(delta_grid=(0.5, 1, 2.0))
    varied = {
        "0_1": _level((0.5, 0.25, 0.0), 0.125),
        "0_2": _level((0.75, 0.25, 0.0), 0.375),
        "1_2": _level((0.25, 0.25, 0.0), 0.25),
    }
    experiments._write_pairs_correlation(config, varied, ["0_1", "0_2", "1_2"], str(tmp_path))
    expected = experiments._spearman([0.5, 0.75, 0.25], [0.125, 0.375, 0.25])
    assert _read_correlation(tmp_path / "correlation.csv") == [
        ["0.5", repr(expected)],
        ["1.0", "nan"],  # constant 1 - sigma
        ["2.0", "nan"],
    ]
    same_err = {label: _level((s, 0.5, 0.0), 0.25) for label, s in (("a", 0.5), ("b", 0.75))}
    experiments._write_pairs_correlation(config, same_err, ["a", "b"], str(tmp_path))
    assert [row[1] for row in _read_correlation(tmp_path / "correlation.csv")] == ["nan"] * 3
    one_level = {"a": varied["0_1"]}
    experiments._write_pairs_correlation(config, one_level, ["a", "b"], str(tmp_path))
    assert [row[1] for row in _read_correlation(tmp_path / "correlation.csv")] == ["nan"] * 3


@pytest.mark.parametrize(
    "levels, reasons",
    [
        (
            {"a": _level((0.5, 0.25, 0.0), 0.125), "b": _level((0.75, 0.25, 0.0), 0.375)},
            [None, "1 - sigma is the same at every level", "1 - sigma is the same at every level"],
        ),
        (
            # At the second delta both are constant; 1 - sigma is named first.
            {"a": _level((0.5, 0.25), 0.25), "b": _level((0.75, 0.25), 0.25)},
            ["err is the same at every level", "1 - sigma is the same at every level"],
        ),
        ({"a": _level((0.5,), 0.125)}, ["fewer than two levels completed"]),
        ({}, ["fewer than two levels completed"] * 2),
    ],
)
def test_a_pairs_sweep_says_on_stderr_why_each_nan_spearman_is_nan(
    tmp_path, capsys, levels, reasons
):
    deltas = (0.5, 1, 2.0)[: len(reasons)]
    config = SimpleNamespace(delta_grid=deltas)
    experiments._write_pairs_correlation(config, levels, ["a", "b"], str(tmp_path))
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"spearman at delta {float(delta)!r} is nan: {reason}"
        for delta, reason in zip(deltas, reasons)
        if reason is not None
    ]
    values = [row[1] for row in _read_correlation(tmp_path / "correlation.csv")]
    assert [value == "nan" for value in values] == [reason is not None for reason in reasons]


_SCIPY_FREE_RUN = """
import json, sys, tempfile
from augbound import augment
from augbound.augment import AugmentationSet, identity, rotation_2d, scaling
from augbound.core import GeneratorConfig, generate_dataset
from augbound.experiments import config_from_dict, run_experiment, with_seed_override

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import augbound.cli
assert not scipy_modules(), ("import", scipy_modules()[:3])
config = with_seed_override(config_from_dict(json.load(sys.stdin)), 9)
with tempfile.TemporaryDirectory() as tmp:
    run_experiment(config, tmp)
assert not scipy_modules(), ("experiment", scipy_modules()[:3])
aug = AugmentationSet(
    (identity(), rotation_2d((0, 1), 1.4, 2.0), scaling(0.85, 1.15, 2.0)), grid_resolution=5
)
ring = generate_dataset(GeneratorConfig(
    num_classes=2, samples_per_class=25, cluster_centers=((2.0, 0.0, 1.0), (2.0, 0.0, -1.0)),
    cluster_spread=3.2, manifold="ring_segments", seed=0, disjoint_classes=False,
))
assert 8 * (50 * aug.num_views) ** 2 > augment.TILE_BYTES
augment.distance_levels(ring.features, aug, [0.2, 0.4, 0.6, 0.8])
assert not scipy_modules(), ("distance_levels", scipy_modules()[:3])
"""


def test_import_and_a_run_keep_scipy_off_the_path():
    # The package needs numpy only: importing scipy's modules cost about
    # 0.3 s and 37 MB in every fresh interpreter. Each step runs in a fresh
    # interpreter, so a lazy import inside a function fails it too.
    from test_acceptance import INEQUALITY_FIXTURES

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_RUN], input=json.dumps(INEQUALITY_FIXTURES[-1][2]),
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    import importlib
    import pkgutil

    import augbound

    modules = [info.name for info in pkgutil.iter_modules(augbound.__path__)]
    assert "evaluation" in modules
    for name in modules:
        module = importlib.import_module(f"augbound.{name}")
        stale = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        assert not stale, f"augbound.{name}.__all__ names missing attributes {stale}"
    # Names are imported from their modules; the root binds only its
    # submodules (as importing them does) and ``__version__``.
    reexported = [
        attr for attr in vars(augbound) if not attr.startswith("_") and attr not in modules
    ]
    assert not reexported, f"the package root re-exports {reexported}"
    assert isinstance(augbound.__version__, str)


def test_strength_sweep_scales_the_base_transforms(tmp_path):
    config = config_from_dict(
        _config_dict(sweep={"kind": "strength", "levels": [0.5, 2.0]})
    )
    out = tmp_path / "strength"
    result = run_sweep(config, str(out))
    assert result.levels == (repr(0.5), repr(2.0))
    weak = json.loads((out / "level_00" / "config.json").read_text())
    strong = json.loads((out / "level_01" / "config.json").read_text())
    assert weak["augmentation"]["transforms"][1]["direction"] == [0.0, 0.15]
    assert strong["augmentation"]["transforms"][1]["direction"] == [0.0, 0.6]


# ---------------------------------------------------------------------------
# Command-line entry point
# ---------------------------------------------------------------------------


def test_cli_gen_data(tmp_path, capsys):
    path = _write_config(tmp_path, _config_dict())
    out = tmp_path / "out"
    assert main(["gen-data", "--config", path, "--out", str(out)]) == 0
    assert (out / "dataset.csv").is_file()
    assert "dataset written" in capsys.readouterr().out


def test_cli_train_and_concentration(tmp_path, capsys):
    path = _write_config(tmp_path, _config_dict())
    out = tmp_path / "out"
    assert main(["train", "--config", path, "--out", str(out)]) == 0
    assert (out / "model.bin").is_file()
    assert (out / "trace.csv").is_file()
    assert main(["concentration", "--config", path, "--out", str(out)]) == 0
    assert (out / "concentration.csv").is_file()
    captured = capsys.readouterr().out
    assert "model written" in captured
    assert "sigma at largest delta" in captured


def test_cli_evaluate_runs_prior_stages(tmp_path, capsys):
    path = _write_config(tmp_path, _config_dict())
    out = tmp_path / "out"
    assert main(["evaluate", "--config", path, "--out", str(out)]) == 0
    for name in ("dataset.csv", "model.bin", "concentration.csv", "evaluation.csv"):
        assert (out / name).is_file(), name
    assert not (out / "bounds.csv").exists()
    assert "err=" in capsys.readouterr().out


def test_cli_bounds_is_deterministic(tmp_path, capsys):
    path = _write_config(tmp_path, _config_dict())
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["bounds", "--config", path, "--out", str(first)]) == 0
    assert main(["bounds", "--config", path, "--out", str(second)]) == 0
    for name in ("bounds.csv", "evaluation.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    captured = capsys.readouterr().out
    assert f"bounds written to {os.path.join(first, 'bounds.csv')} (err=" in captured
    assert "thm1_bound=" in captured


def test_cli_seed_and_mode_overrides(tmp_path):
    path = _write_config(tmp_path, _config_dict())
    out = tmp_path / "out"
    code = main(
        ["bounds", "--config", path, "--out", str(out), "--seed", "3", "--mode", "approx"]
    )
    assert code == 0
    written = json.loads((out / "config.json").read_text())
    assert written["dataset"]["seed"] == 3
    assert written["encoder"]["seed"] == 4
    assert written["training"]["seed"] == 5
    assert written["analysis"]["clique_mode"] == "dual_approx"
    with open(out / "concentration.csv", newline="") as fh:
        modes = {row["mode"] for row in csv.DictReader(fh)}
    assert modes == {"dual_approx"}


def test_cli_seed_changes_the_dataset(tmp_path):
    path = _write_config(tmp_path, _config_dict())
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["gen-data", "--config", path, "--out", str(a), "--seed", "1"]) == 0
    assert main(["gen-data", "--config", path, "--out", str(b), "--seed", "2"]) == 0
    assert (a / "dataset.csv").read_bytes() != (b / "dataset.csv").read_bytes()


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        with_seed_override(config_from_dict(_config_dict()), -1)
    path = _write_config(tmp_path, _config_dict())
    out = tmp_path / "out"
    assert main(["gen-data", "--config", path, "--out", str(out), "--seed", "-1"]) == 2
    assert "config error: seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()
    # A loaded dataset takes no seed, but the encoder and training seeds do.
    by_path = config_from_dict(_config_dict(dataset={"path": "points.csv"}))
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        with_seed_override(by_path, -1)


@pytest.mark.parametrize("command", ["gen-data", "train", "concentration", "evaluate", "bounds"])
def test_every_subcommand_writes_the_resolved_config(tmp_path, command):
    path = _write_config(tmp_path, _config_dict())
    out = tmp_path / "out"
    argv = [command, "--config", path, "--out", str(out), "--seed", "3", "--mode", "approx"]
    assert main(argv) == 0
    resolved = replace(with_seed_override(load_config(path), 3), clique_mode="dual_approx")
    assert json.loads((out / "config.json").read_text()) == config_to_dict(resolved)


def test_cli_exit_code_2_on_config_errors(tmp_path, capsys):
    absent = str(tmp_path / "no.json")
    assert main(["bounds", "--config", absent, "--out", str(tmp_path / "o")]) == 2
    bad = _config_dict()
    bad["training"]["loss"] = "triplet"
    path = _write_config(tmp_path, bad)
    assert main(["bounds", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("config error:") == 2


@pytest.mark.parametrize(
    "under, reason", [(False, "File exists"), (True, "Not a directory")]
)
def test_an_output_directory_under_or_at_a_file_exits_2(tmp_path, capsys, under, reason):
    path = _write_config(tmp_path, _config_dict())
    blocker = tmp_path / "blocker"
    blocker.write_text("a file")
    out = blocker / "run" if under else blocker
    assert main(["bounds", "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"cannot write output directory {out}: {reason}\n"
    assert captured.out == ""
    assert blocker.read_text() == "a file"


@pytest.mark.parametrize("command", ["gen-data", "train", "concentration", "evaluate", "bounds"])
def test_a_config_json_that_cannot_be_written_exits_2(tmp_path, capsys, command):
    path = _write_config(tmp_path, _config_dict())
    out = tmp_path / "out"
    (out / "config.json").mkdir(parents=True)
    assert main([command, "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"cannot write output directory {out}: Is a directory: {out / 'config.json'}\n"
    )
    assert captured.out == ""
    assert os.listdir(out) == ["config.json"]


@pytest.mark.parametrize(
    "blocked, reason",
    [
        ("config.json", "Is a directory"),
        ("level_00", "File exists"),
        ("level_01", "File exists"),
        ("summary.csv", "Is a directory"),
        ("failures.csv", "Is a directory"),
    ],
)
def test_a_sweep_whose_output_tree_cannot_be_written_exits_2(tmp_path, capsys, blocked, reason):
    sweep = {"kind": "strength", "levels": [1.0, 2.0]}
    path = _write_config(tmp_path, _config_dict(sweep=sweep))
    out = tmp_path / "sweep"
    out.mkdir()
    if blocked.startswith("level_"):
        (out / blocked).write_text("a file")
    else:
        (out / blocked).mkdir()
    assert main(["sweep", "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"cannot write output directory {out}: {reason}: {out / blocked}\n"
    assert captured.out == ""


def test_cli_concentration_writes_exactly_its_artifacts(tmp_path):
    path = _write_config(tmp_path, _config_dict())
    out = tmp_path / "out"
    assert main(["concentration", "--config", path, "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["concentration.csv", "config.json", "dataset.csv"]


def test_every_csv_of_a_bounds_run_and_a_sweep_parses_and_ends_lines_with_crlf(tmp_path):
    path = _write_config(tmp_path, _config_dict())
    assert main(["bounds", "--config", path, "--out", str(tmp_path / "bounds")]) == 0
    catalog = [
        {"rule": "additive_shift", "direction": [0.0, 0.2]},
        {"rule": "additive_shift", "direction": [0.2, 0.0]},
        {"rule": "sign_flip_mask", "signs": [-1.0, 1.0]},
    ]
    sweep = _write_config(
        tmp_path, _config_dict(sweep={"kind": "pairs", "levels": catalog}), name="sweep.json"
    )
    assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "sweep")]) == 0
    written = sorted(tmp_path.rglob("*.csv"))
    assert {p.name for p in written} == {
        "dataset.csv", "trace.csv", "concentration.csv", "evaluation.csv", "bounds.csv",
        "summary.csv", "failures.csv", "correlation.csv",
    }
    for p in written:
        lines = p.read_bytes().split(b"\r\n")
        assert lines[-1] == b"", p
        assert not any(b"\n" in line or b"\r" in line for line in lines), p
        with open(p, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == len(lines) - 1, p
        assert all(len(row) == len(rows[0]) for row in rows), p


def test_cli_exit_code_3_on_stage_failure(tmp_path, capsys):
    data = _config_dict()
    data["dataset"] = {"path": str(tmp_path / "missing.csv")}
    path = _write_config(tmp_path, data)
    assert main(["bounds", "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert "stage 'dataset' failed" in capsys.readouterr().err


def test_a_transform_that_does_not_fit_the_generated_dimension_exits_2(tmp_path, capsys):
    # The generator's dimension is known at load, so nothing is written.
    data = _config_dict()
    mask = {"rule": "sign_flip_mask", "signs": [1.0, -1.0, 1.0]}
    data["augmentation"]["transforms"].append(mask)
    fragment = (
        "augmentation section invalid: sign_flip_mask length does not match feature dimension 2"
    )
    with pytest.raises(ConfigError, match=fragment):
        config_from_dict(data)
    out = tmp_path / "out"
    assert main(["bounds", "--config", _write_config(tmp_path, data), "--out", str(out)]) == 2
    assert fragment in capsys.readouterr().err
    assert not (out / "dataset.csv").exists()
    assert not (out / "config.json").exists()


def test_stage_dataset_checks_a_generated_dataset_against_every_transform(tmp_path):
    # A sweep level's augmentation reaches the stages without the loader's
    # check, so stage 'dataset' refuses it before writing dataset.csv.
    config = config_from_dict(_config_dict())
    misfit = AugmentationSet((identity(), additive_shift((0.0, 0.0, 0.4))), grid_resolution=3)
    with pytest.raises(StageError) as info:
        experiments.stage_dataset(replace(config, augmentation=misfit), str(tmp_path))
    assert str(info.value) == (
        "stage 'dataset' failed: additive_shift length does not match feature dimension 2"
    )
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "command", ["gen-data", "train", "concentration", "evaluate", "bounds"]
)
def test_a_transform_that_does_not_fit_a_saved_dataset_fails_its_first_stage(
    tmp_path, capsys, command
):
    # A saved dataset is not read when the config loads, so its dimension
    # is first checked by stage 'dataset', which loads it: exit code 3,
    # after config.json is written and before dataset.csv is.
    features = np.random.default_rng(0).normal(size=(12, 2))
    save_dataset(Dataset(features, np.repeat([0, 1], 6)), str(tmp_path / "points.csv"))
    data = _config_dict()
    data["dataset"] = {"path": str(tmp_path / "points.csv")}
    data["augmentation"]["transforms"][1]["direction"] = [0.0, 0.3, 0.0]
    path = _write_config(tmp_path, data)
    config_from_dict(data)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "stage 'dataset' failed: additive_shift length does not match feature dimension 2\n"
    )
    assert sorted(os.listdir(out)) == ["config.json"]


def test_a_pairs_catalog_that_repeats_a_transform_exits_2_before_writing(tmp_path, capsys):
    rot = {"rule": "rotation_2d_subspace", "axes": [0, 1], "max_angle": 1.4, "data_radius": 2.0}
    scale = {"rule": "scale", "scale_span": [0.85, 1.15], "data_radius": 2.0}
    data = _config_dict(sweep={"kind": "pairs", "levels": [rot, rot, scale]})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", _write_config(tmp_path, data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: sweep section invalid: sweep.levels catalog must not repeat a transform\n"
    )
    assert not out.exists()


def test_an_epsilon_grid_that_repeats_a_value_exits_2_before_writing(tmp_path, capsys):
    data = _config_dict(analysis={"epsilon_grid": [0.5, 0.1, 0.5]})
    out = tmp_path / "run"
    assert main(["bounds", "--config", _write_config(tmp_path, data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: analysis.epsilon_grid must not repeat a value\n"
    )
    assert not out.exists()


def test_cli_sweep_subcommand(tmp_path, capsys):
    data = _config_dict(sweep={"kind": "strength", "levels": [0.5, 1.0]})
    path = _write_config(tmp_path, data)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    assert (out / "summary.csv").is_file()
    assert (out / "failures.csv").is_file()
    assert "2 of 2 levels succeeded" in capsys.readouterr().out


def test_cli_sweep_writes_the_resolved_root_config_and_reruns_byte_identically(tmp_path):
    data = _config_dict(sweep={"kind": "strength", "levels": [0.5, 1.0]})
    path = _write_config(tmp_path, data)
    outs = (tmp_path / "first", tmp_path / "second")
    for out in outs:
        argv = ["sweep", "--config", path, "--out", str(out), "--seed", "3", "--mode", "approx"]
        assert main(argv) == 0
    resolved = replace(with_seed_override(load_config(path), 3), clique_mode="dual_approx")
    written = load_config(str(outs[0] / "config.json"))
    assert written == resolved
    assert written.sweep is not None and written.sweep == resolved.sweep
    trees = [
        {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        for out in outs
    ]
    assert "config.json" in trees[0]
    assert trees[0] == trees[1]


def test_transform_to_spec_round_trip_for_sweep_catalog():
    # the catalog written back into level config.json files must reparse
    for t in (
        additive_shift((0.1, 0.2)),
        rotation_2d((0, 1), 0.3, 2.0),
        scaling(0.8, 1.2, 1.5),
    ):
        spec = spec_dict(t)
        assert spec == spec_dict(scale_transform_strength(t, 1.0))


# ---------------------------------------------------------------------------
# Lockstep training of a sweep's levels
# ---------------------------------------------------------------------------


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _assert_levels_match_lone_runs(config, out):
    """Run the sweep; each level's files, and failures.csv, must be those of
    running the level's config through ``run_experiment`` alone."""
    result = run_sweep(config, str(out))
    expected_failures = []
    for index, (label, aug) in enumerate(experiments._sweep_levels(config, config.sweep)):
        alone = out.parent / f"alone_{index:02d}"
        try:
            run_experiment(replace(config, augmentation=aug, sweep=None), str(alone))
        except StageError as exc:
            expected_failures.append({"level": label, "stage": exc.stage, "message": str(exc)})
        assert _tree(out / f"level_{index:02d}") == _tree(alone), label
    with open(out / "failures.csv", newline="") as fh:
        assert list(csv.DictReader(fh)) == expected_failures
    return result


_LONG_TRAINING = {"steps": 40}


def test_a_pairs_sweep_writes_each_level_as_a_lone_run(tmp_path):
    config = config_from_dict(
        _config_dict(training=_LONG_TRAINING, sweep={"kind": "pairs", "levels": _PAIRS_CATALOG})
    )
    result = _assert_levels_match_lone_runs(config, tmp_path / "sweep")
    assert len(result.results) == 6


def test_a_richness_sweep_from_identity_alone_writes_each_level_as_a_lone_run(tmp_path):
    # The first level draws only discrete views; the others add continuous
    # parameters, so each level's generator is read in its own layout.
    lean, rich = _richness_levels()
    richer = {
        "grid_resolution": 3,
        "transforms": rich["transforms"] + [{"rule": "sign_flip_mask", "signs": [-1.0, 1.0]}],
    }
    config = config_from_dict(
        _config_dict(
            training=_LONG_TRAINING, sweep={"kind": "richness", "levels": [lean, rich, richer]}
        )
    )
    assert config.sweep.levels[0].num_continuous_params == 0
    result = _assert_levels_match_lone_runs(config, tmp_path / "sweep")
    assert set(result.results) == {"1", "2", "3"}


def test_a_strength_sweep_writes_each_level_as_a_lone_run(tmp_path):
    config = config_from_dict(
        _config_dict(
            training=_LONG_TRAINING, sweep={"kind": "strength", "levels": [0.5, 1.0, 2.0]}
        )
    )
    result = _assert_levels_match_lone_runs(config, tmp_path / "sweep")
    assert len(result.results) == 3


def test_a_sweep_level_that_fails_in_training_fails_as_alone_and_the_others_finish(tmp_path):
    # Sample j is first drawn at step s by the identity-only level. It is
    # placed where that level's layer, as it stands at step s, maps it
    # 1e-14 from the origin, below the norm the projection needs; the steps
    # before s never read it. The richer level draws its own stream and
    # trains on.
    rng = np.random.default_rng(40)
    features = rng.uniform(-1.0, 1.0, (40, 2))
    labels = np.repeat([0, 1], 20)
    lean, rich = _richness_levels()
    data = _config_dict(
        encoder={"hidden_dims": [], "seed": 41},
        training={"steps": 24, "batch_size": 2, "learning_rate": 0.1, "seed": 42},
        sweep={"kind": "richness", "levels": [lean, rich]},
    )
    data["dataset"] = {"path": str(tmp_path / "points.csv")}
    config = config_from_dict(data)
    lone = AugmentationSet(transforms=(identity(),))
    steps = config.training.steps
    first = np.full(len(features), steps)
    draws = np.random.default_rng(config.training.seed)
    for step in range(steps):
        batch = make_train_batch(Dataset(features, labels), lone, 2, draws, True)
        for row in np.concatenate((batch.anchors, batch.negatives)):
            j = np.flatnonzero((features == row).all(axis=1))[0]
            first[j] = min(first[j], step)
    j = int(np.argmax(np.where(first < steps - 2, first, -1)))
    s = int(first[j])
    assert s > 2
    model = init_encoder(2, (), 2, "sphere", 1.0, seed=41)
    trained, _ = train(model, Dataset(features, labels), lone, replace(config.training, steps=s))
    layer = trained.layers[0]
    features[j] = np.linalg.solve(layer.weight, np.array([1e-14, 0.0]) - layer.bias)
    save_dataset(Dataset(features, labels), str(tmp_path / "points.csv"))

    result = _assert_levels_match_lone_runs(config, tmp_path / "sweep")
    assert set(result.results) == {"2"}
    assert [(label, stage) for label, stage, _ in result.failures] == [("1", "train")]
    assert "norms vanish" in result.failures[0][2]


def _rebind_everywhere(monkeypatch, original, replacement):
    """Rebind every ``augbound`` module attribute that holds ``original``."""
    for name, module in list(sys.modules.items()):
        if name == "augbound" or name.startswith("augbound."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def test_a_sweep_runs_each_level_through_run_experiment_and_trains_inside_the_first(
    tmp_path, monkeypatch
):
    # The benchmark times each level by rebinding run_experiment, wherever
    # it is held, to a timer that takes exactly (config, out_dir). The
    # lockstep training must run inside a level's timed call.
    calls = []
    running = []
    original = experiments.run_experiment

    def recorder(config, out_dir):
        calls.append(os.path.basename(out_dir))
        running.append(calls[-1])
        try:
            return original(config, out_dir)
        finally:
            running.pop()

    _rebind_everywhere(monkeypatch, original, recorder)
    stacks = []
    stack = encoder._train_stack

    def recording_stack(models, dataset, augs, config):
        stacks.append((list(running), len(models)))
        return stack(models, dataset, augs, config)

    monkeypatch.setattr(encoder, "_train_stack", recording_stack)
    config = config_from_dict(_config_dict(sweep={"kind": "pairs", "levels": _PAIRS_CATALOG}))
    result = run_sweep(config, str(tmp_path / "pairs"))
    assert len(result.results) == 6
    assert calls == [f"level_{i:02d}" for i in range(6)]
    assert stacks == [(["level_00"], 6)]
