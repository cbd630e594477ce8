"""Transform catalog, view enumeration, and the augmented distance."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from augbound import augment
from augbound.augment import (
    TILE_BYTES,
    AugmentationSet,
    Transform,
    additive_shift,
    augmented_distance,
    coordinate_permutation,
    distance_levels,
    identity,
    rotation_2d,
    sample_views,
    scaling,
    sign_flip_mask,
    view_tensor,
    view_weights,
)
from augbound.core import GeneratorConfig, from_spec, generate_dataset, spec_dict


def identity_only() -> AugmentationSet:
    return AugmentationSet(transforms=(identity(),), grid_resolution=2)


def test_identity_only_views():
    aug = identity_only()
    views = view_tensor(np.array([1.0, 2.0]), aug)[0]
    assert len(views) == 1
    np.testing.assert_array_equal(views[0], [1.0, 2.0])


def test_sign_flip_enumeration():
    aug = AugmentationSet(
        transforms=(identity(), sign_flip_mask((-1.0, 1.0))), grid_resolution=2
    )
    got = view_tensor(np.array([1.0, 2.0]), aug)[0]
    np.testing.assert_array_equal(got, [[1.0, 2.0], [-1.0, 2.0]])


def test_continuous_shift_grid_enumeration():
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((1.0,))), grid_resolution=3
    )
    views = view_tensor(np.array([0.0]), aug)[0]
    got = sorted(float(v[0]) for v in views)
    # identity view 0 plus the theta grid {0, 0.5, 1.0}
    np.testing.assert_allclose(got, [0.0, 0.0, 0.5, 1.0])


def test_views_contain_the_untransformed_point():
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((0.5, -0.5))), grid_resolution=4
    )
    x = np.array([0.3, -0.7])
    views = view_tensor(x, aug)[0]
    assert any(np.array_equal(v, x) for v in views)
    assert len(views) == aug.num_views == 1 + 4


def test_identity_must_be_a_member():
    with pytest.raises(ValueError, match="identity"):
        AugmentationSet(transforms=(additive_shift((1.0,)),), grid_resolution=3)


def test_distance_of_point_to_itself_is_zero():
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((0.4, 0.0))), grid_resolution=3
    )
    x = np.array([0.9, -0.2])
    assert augmented_distance(x, x, aug) == 0.0


def test_identity_only_distance_is_euclidean():
    aug = identity_only()
    rng = np.random.default_rng(0)
    for _ in range(20):
        x1, x2 = rng.normal(size=(2, 3))
        np.testing.assert_allclose(
            augmented_distance(x1, x2, aug), np.linalg.norm(x1 - x2), rtol=1e-12
        )


def test_coordinate_swap_collapses_distance():
    aug = AugmentationSet(
        transforms=(identity(), coordinate_permutation((1, 0))), grid_resolution=2
    )
    d = augmented_distance(np.array([1.0, 2.0]), np.array([2.0, 1.0]), aug)
    assert d == 0.0


def test_augmented_distance_is_symmetric():
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((0.2, 0.1)), sign_flip_mask((1.0, -1.0))),
        grid_resolution=3,
    )
    rng = np.random.default_rng(1)
    for _ in range(10):
        x1, x2 = rng.normal(size=(2, 2))
        d12 = augmented_distance(x1, x2, aug)
        d21 = augmented_distance(x2, x1, aug)
        np.testing.assert_allclose(d12, d21, rtol=0, atol=1e-12)
        assert d12 >= 0.0


def test_dimension_mismatch_rejected():
    aug = identity_only()
    with pytest.raises(ValueError):
        augmented_distance(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]), aug)


@pytest.mark.parametrize(
    "member, message",
    [
        (additive_shift((0.1, 0.2, 0.3)), "additive_shift length does not match feature dimension 2"),
        (rotation_2d((0, 2), 0.5, 1.0), "rotation axes outside feature dimension 2"),
        (sign_flip_mask((1.0, -1.0, 1.0)), "sign_flip_mask length does not match feature dimension 2"),
        (coordinate_permutation((1, 0, 2)),
         "coordinate_permutation length does not match feature dimension 2"),
    ],
)
def test_view_tensor_refuses_a_member_that_does_not_fit(member, message):
    # view_tensor checks every member's dimension once and then applies the
    # unchecked maps, which would fail on these with a broadcasting or
    # index error, or not at all.
    aug = AugmentationSet(transforms=(identity(), member), grid_resolution=3)
    with pytest.raises(ValueError, match=f"^{message}$"):
        view_tensor(np.zeros((4, 2)), aug)


@pytest.mark.parametrize("k", [5, 18, 131])
def test_float32_matmul_sums_in_float32_in_both_step_shapes(k):
    # The rounding bound E of distance_levels assumes that BLAS reads float32
    # operands as float32 and accumulates in float32 or wider. Each row holds
    # 1 + 2^-20 and two 2^-21 among zeros: its sum, 1 + 2^-19, and every
    # partial sum in any order are float32 numbers, so float32 arithmetic
    # returns the sum exactly. TF32, bfloat16 or float16 operands or
    # accumulation lose the small terms, as float16 does below.
    rng = np.random.default_rng(k)
    rows = np.zeros((48, k), dtype=np.float32)
    for row in rows:
        row[rng.permutation(k)[:3]] = (1 + 2**-20, 2**-21, 2**-21)
    want = np.float32(1 + 2**-19)
    assert float(want) == 1 + 2**-19
    # 2-D, as _all_minima: GEMM rows against a transposed block of lifted views.
    cols = np.ones((40, k), dtype=np.float32)
    two_d = np.matmul(rows, cols.T, out=np.empty((48, 40), dtype=np.float32))
    assert np.all(two_d == want)
    # Stacked 3-D, as _pair_minima: one (v, K) @ (K, v) product per pair.
    stacked = np.matmul(
        rows.reshape(8, 6, k), np.ones((8, k, 6), dtype=np.float32),
        out=np.empty((8, 6, 6), dtype=np.float32),
    )
    assert np.all(stacked == want)
    assert np.all(rows.astype(np.float16) @ cols.T.astype(np.float16) == 1.0)


def _toy_dataset(n_per_class=4, seed=0):
    cfg = GeneratorConfig(
        num_classes=2,
        samples_per_class=n_per_class,
        cluster_centers=((-3.0, 0.0), (3.0, 0.0)),
        cluster_spread=0.3,
        manifold="gaussian_blobs",
        seed=seed,
    )
    return generate_dataset(cfg)


def _class_points(dataset, class_id):
    """The features of one class, or of the whole dataset for ``None``."""
    if class_id is None:
        return dataset.features
    return dataset.features[dataset.class_indices(class_id)]


def _row_block_distance_matrix(points, aug, block_rows=32):
    """The reference distances: full rows of view distances by cdist, then
    the min with the transpose."""
    n = points.shape[0]
    views = view_tensor(points, aug)
    v = views.shape[1]
    flat = views.reshape(n * v, -1)
    out = np.empty((n, n))
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        d2 = cdist(flat[start * v : stop * v], flat, "sqeuclidean")
        out[start:stop] = d2.reshape(stop - start, v, n, v).min(axis=(1, 3))
    out = np.sqrt(np.maximum(out, 0.0))
    out = np.minimum(out, out.T)
    np.fill_diagonal(out, 0.0)
    return out


def _tight_grid(distances, count=48):
    """Up to ``count`` of the distinct off-diagonal ``distances``, evenly
    spread in sorted order, each with its float64 neighbours on both sides."""
    values = np.unique(distances[~np.eye(len(distances), dtype=bool)])
    picked = values[np.linspace(0, values.size - 1, min(count, values.size)).astype(int)]
    grid = np.concatenate([picked, np.nextafter(picked, -np.inf), np.nextafter(picked, np.inf)])
    return np.unique(np.maximum(grid, 0.0))


def _grids(distances):
    """A coarse grid at quantiles of the off-diagonal ``distances``, where
    bounds settle most pairs, and the tight grid, where some pairs sit
    exactly on a delta and others one float64 step from one."""
    off = distances[~np.eye(len(distances), dtype=bool)]
    coarse = np.quantile(off, [0.1, 0.3, 0.5, 0.7]) if off.size else np.array([0.5])
    return [coarse, _tight_grid(distances)]


def _assert_levels_match_reference(points, aug, block_rows=32):
    """``distance_levels`` against the thresholded reference on both grids;
    returns the reference distances."""
    reference = _row_block_distance_matrix(points, aug, block_rows)
    for deltas in _grids(reference):
        levels = distance_levels(points, aug, deltas)
        np.testing.assert_array_equal(levels, np.searchsorted(deltas, reference, side="left"))
    return reference


def test_distance_levels_trivial_cases():
    aug = identity_only()
    ds = _toy_dataset(1)
    np.testing.assert_array_equal(distance_levels(_class_points(ds, 0), aug, [0.5]), [[0]])
    # With no threshold every level is 0.
    np.testing.assert_array_equal(distance_levels(ds.features, aug, []), np.zeros((2, 2)))


@pytest.mark.parametrize("deltas", [[0.5, 0.2], [0.2, float("nan")], [-0.1, 0.2]])
def test_distance_levels_rejects_a_bad_grid(deltas):
    with pytest.raises(ValueError, match="non-negative and ascending"):
        distance_levels(_toy_dataset(2).features, identity_only(), deltas)


def test_distance_levels_match_euclidean_for_identity_only():
    ds = _toy_dataset(4)
    diff = ds.features[:, None, :] - ds.features[None, :, :]
    expected = np.sqrt((diff**2).sum(axis=2))
    for deltas in _grids(expected):
        levels = distance_levels(ds.features, identity_only(), deltas)
        np.testing.assert_array_equal(levels, np.searchsorted(deltas, expected, side="left"))
        np.testing.assert_array_equal(levels, levels.T)
        np.testing.assert_array_equal(np.diag(levels), 0)


def test_distance_levels_pairwise_consistency():
    ds = _toy_dataset(3)
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((0.3, -0.2))), grid_resolution=3
    )
    n = ds.num_samples
    pairwise = np.array(
        [[augmented_distance(ds.features[i], ds.features[j], aug) for j in range(n)]
         for i in range(n)]
    )
    for deltas in _grids(pairwise):
        levels = distance_levels(ds.features, aug, deltas)
        np.testing.assert_array_equal(levels, np.searchsorted(deltas, pairwise, side="left"))


def test_enrichment_never_raises_a_level():
    ds = _toy_dataset(5)
    base = AugmentationSet(
        transforms=(identity(), additive_shift((0.3, 0.0))), grid_resolution=3
    )
    richer = AugmentationSet(
        transforms=(identity(), additive_shift((0.3, 0.0)), sign_flip_mask((1.0, -1.0))),
        grid_resolution=3,
    )
    # 3 -> 5 grid points: the coarse thetas {0, .5, 1} survive refinement
    finer = AugmentationSet(
        transforms=(identity(), additive_shift((0.3, 0.0))), grid_resolution=5
    )
    deltas = _tight_grid(_row_block_distance_matrix(ds.features, base))
    levels_base = distance_levels(ds.features, base, deltas)
    for enriched in (richer, finer):
        assert np.all(distance_levels(ds.features, enriched, deltas) <= levels_base)


def _ring_dataset(n_per_class, seed=0):
    # The interleaved two-ring task of the acceptance sweeps, 3-d points.
    return generate_dataset(
        GeneratorConfig(
            num_classes=2,
            samples_per_class=n_per_class,
            cluster_centers=((2.0, 0.0, 1.0), (2.0, 0.0, -1.0)),
            cluster_spread=3.2,
            manifold="ring_segments",
            seed=seed,
            disjoint_classes=False,
        )
    )


_RING_ROTATION = rotation_2d((0, 1), 1.4, 2.0)
_RING_SCALE = scaling(0.85, 1.15, 2.0)
_RING_SHIFT = additive_shift((0.0, 0.25, 0.0))
# The ``delta_grid`` of the scale_ladder benchmark.
_LADDER_DELTAS = (0.2, 0.4, 0.6, 0.8)


def _fits_all_pairs(n, aug, d=3):
    # The job size up to which ``distance_levels`` takes the exact formula
    # on every view pair.
    return (d + 1) * 8 * (n * aug.num_views) ** 2 <= TILE_BYTES


def _spy_steps(monkeypatch):
    """A list that gets, for each step of ``distance_levels`` as it runs, its
    name, the open pairs (rows, cols) it is given and the lower and upper
    levels it returns for them."""
    calls = []
    steps = augment._steps

    def record(step):
        def run(rows, cols):
            lo, hi = step(rows, cols)
            calls.append((step.__name__, rows, cols, *np.broadcast_arrays(lo, hi, rows)[:2]))
            return lo, hi

        return run

    monkeypatch.setattr(augment, "_steps", lambda *args: [record(s) for s in steps(*args)])
    return calls


@pytest.mark.parametrize(
    "aug, n_per_class, class_id",
    [
        # Discrete only, V = 1 and V = 3.
        (AugmentationSet((identity(),)), 20, None),
        (AugmentationSet((identity(), coordinate_permutation((2, 0, 1)),
                          sign_flip_mask((1.0, -1.0, 1.0)))), 20, 1),
        # V = 26: N = 50 screens 15 row samples per GEMM block.
        (AugmentationSet((identity(), _RING_ROTATION, _RING_SCALE), grid_resolution=5),
         25, None),
        # V = 290: one row sample per block, 6 column samples per GEMM.
        (AugmentationSet((identity(), _RING_ROTATION, _RING_SCALE), grid_resolution=17),
         4, None),
    ],
)
def test_distance_levels_match_row_blocks(aug, n_per_class, class_id):
    points = _class_points(_ring_dataset(n_per_class), class_id)
    reference = _assert_levels_match_reference(points, aug)
    n = len(reference)
    if aug.num_views >= 26:
        assert not _fits_all_pairs(n, aug)
    levels = distance_levels(points, aug, _LADDER_DELTAS)
    for i in range(0, n, 7):
        for j in range(n):
            distance = augmented_distance(points[i], points[j], aug)
            assert levels[i, j] == np.searchsorted(_LADDER_DELTAS, distance, side="left")


def test_distance_levels_memory_is_one_tile_plus_output_and_views(split_workers):
    # 96 per class x 126 views, the largest ladder rung: the identity
    # pre-pass takes 5 GEMMs of up to 21 row samples, the group floor
    # stacks up to 280 pairs' GEMMs of 26 group centers each, and the screen
    # 15 pairs' of 126 views each, with their gathered operands, each batch
    # within half a TILE_BYTES in a buffer of one, beside the GEMM rows and
    # the column operands built once per class (242 KB each); the former
    # row blocks held about 780 MB here. Every batch runs on the calling
    # thread, even where threads may start.
    started = split_workers(2)
    ds = _ring_dataset(96)
    aug = AugmentationSet(
        (identity(), _RING_ROTATION, _RING_SCALE, _RING_SHIFT), grid_resolution=5
    )
    n, v, d = 96, aug.num_views, ds.features.shape[1]
    assert v == 126
    tracemalloc.start()
    try:
        levels = distance_levels(_class_points(ds, 0), aug, _LADDER_DELTAS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert levels.shape == (n, n)
    slack = 1 << 20
    assert peak < TILE_BYTES + 8 * n * n + 2 * 8 * n * v * d + slack
    assert started == []


_RING_V6 = AugmentationSet((identity(), _RING_ROTATION), grid_resolution=5)
_RING_V26 = AugmentationSet((identity(), _RING_ROTATION, _RING_SCALE), grid_resolution=5)
_RING_V126 = AugmentationSet(
    (identity(), _RING_ROTATION, _RING_SCALE, _RING_SHIFT), grid_resolution=5
)


@pytest.mark.parametrize(
    "aug, n_per_class, tile_bytes",
    [
        # Each batch fills half the tile. V = 26, N = 50: pre-pass blocks of
        # 1, 39 and 50 row samples; screen batches of 1, 54 and 280 pairs,
        # behind group batches of 3 at the smallest tile.
        (_RING_V26, 25, 4 * 26 * 26),
        (_RING_V26, 25, 4 * 26 * 26 * 50 * 3),
        (_RING_V26, 25, TILE_BYTES),
        # V = 126, N = 20: pre-pass blocks of 3, 9 and 20 row samples; screen
        # batches of 1, 1 and 15 pairs, behind group batches of 8, 25 and 280.
        (_RING_V126, 10, 4 * 126 * 126),
        (_RING_V126, 10, 4 * 126 * 126 * 3 + 1),
        (_RING_V126, 10, TILE_BYTES),
        # V = 6, N = 64: pairs whose GEMM is smaller than its two operands,
        # with and without the group floor.
        (_RING_V6, 32, 4 * 6 * 6 * 64),
        (_RING_V6, 32, TILE_BYTES),
    ],
)
def test_distance_levels_do_not_depend_on_workers_or_tile_bytes(
    monkeypatch, split_workers, aug, n_per_class, tile_bytes
):
    ds = _ring_dataset(n_per_class)
    started = split_workers(2)
    monkeypatch.setattr(augment, "TILE_BYTES", tile_bytes)
    reference = _assert_levels_match_reference(ds.features, aug, block_rows=4)
    # Each GEMM routine call: whole-class or pairwise, its row views per
    # sample, its column views per sample, its row and column samples or
    # the pairs asked about, and the row operand shape of each of its GEMMs.
    calls = []
    all_minima, pair_minima = augment._all_minima, augment._pair_minima

    class CountedNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(a, b, out):
            calls[-1][4].append(a.shape)
            return np.matmul(a, b, out=out)

    def counted_all(left, right, v, buf):
        calls.append(("all", v, 1, (len(left) // v, len(right)), []))
        return all_minima(left, right, v, buf)

    def counted_pairs(left, right, v, rows, cols, buf):
        calls.append(("pairs", v, v, rows.size, []))
        return pair_minima(left, right, v, rows, cols, buf)

    monkeypatch.setattr(augment, "np", CountedNumpy())
    monkeypatch.setattr(augment, "_all_minima", counted_all)
    monkeypatch.setattr(augment, "_pair_minima", counted_pairs)
    distance_levels(ds.features, aug, _grids(reference)[0])
    n, v, k = 2 * n_per_class, aug.num_views, ds.features.shape[1] + 2
    # The identity pre-pass over the whole class (V by 1), then, where a
    # GEMM of all rows against one column sample holds at most one row
    # sample, the group floor (G by G, G the discrete views and the run
    # centers of each sample), and the screen (V by V). Every GEMM after
    # the pre-pass is stacked per pair.
    g = aug.num_discrete + (v - aug.num_discrete) // aug.grid_resolution
    one_row = tile_bytes // (4 * v * v * n) <= 1
    assert [call[:3] for call in calls] == (
        [("all", v, 1)] + [("pairs", g, g)] * one_row + [("pairs", v, v)]
    )
    # Every GEMM is as large as half the tile allows: whole-class blocks of
    # row samples, or stacks of pairs with their gathered operands.
    for kind, per_row, w, asked, shapes in calls:
        if kind == "all":
            n_rows, n_cols = asked
            block = max(1, tile_bytes // 2 // (4 * per_row * w * n_cols))
            assert max(shapes) == (min(block, n_rows) * per_row, k)
        elif shapes:
            step = max(1, tile_bytes // 2 // (4 * (per_row * w + (per_row + w) * k)))
            assert {shape[1:] for shape in shapes} == {(per_row, k)}
            assert max(shapes)[0] == min(step, asked)
    # Every batch runs on the calling thread, even where threads may start.
    assert started == []


def test_screen_gathers_from_a_contiguous_column_operand():
    # ``ndarray.take`` copies a non-contiguous source whole before it
    # gathers, so a screen batch that gathered from a transposed view of
    # the lifted views would allocate one copy of the operand per batch
    # (504 KB at 200 samples x 126 views). The gathers write into the
    # caller's buffer, so one call allocates little beyond its output; the
    # 298 pairs here take 20 batches of 15.
    points = _ring_dataset(100).features
    n, v = len(points), _RING_V126.num_views
    coords = np.ascontiguousarray(view_tensor(points, _RING_V126).reshape(n * v, -1).T)
    columns, left, _, _ = augment._lifted(coords, v)
    assert columns.shape == (n, coords.shape[0] + 2, v) and columns.flags.c_contiguous
    buf = np.empty(TILE_BYTES // 4, dtype=np.float32)
    rows, cols = np.triu_indices(n, 1)
    rows, cols = rows[::67], cols[::67]
    tracemalloc.start()
    try:
        augment._pair_minima(left, columns, v, rows, cols, buf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.size > 15 and peak < columns.nbytes // 4


def test_distance_levels_of_one_tile_runs_inline(split_workers):
    # The squared view distances of 19 samples x 26 views fit one tile.
    started = split_workers(2)
    ds = _ring_dataset(19)
    _assert_levels_match_reference(_class_points(ds, 0), _RING_V26)
    assert 8 * (19 * 26) ** 2 <= TILE_BYTES and started == []


def test_identity_pre_pass_settles_pairs_before_the_screen(monkeypatch):
    # Below the first delta every pair is settled at level 0 by its identity
    # bound, and no step runs after the pre-pass; the ladder grid leaves some
    # pairs to the screen.
    ds = _ring_dataset(25)
    steps = _spy_steps(monkeypatch)
    views = view_tensor(ds.features, _RING_V126).reshape(-1, 3)
    diameter = float(np.sqrt(((views.max(axis=0) - views.min(axis=0)) ** 2).sum()))
    levels = distance_levels(ds.features, _RING_V126, [diameter, 2 * diameter])
    np.testing.assert_array_equal(levels, 0)
    assert [name for name, *_ in steps] == ["pre_pass"]
    steps.clear()
    distance_levels(ds.features, _RING_V126, _LADDER_DELTAS)
    [screened] = [rows.size for name, rows, *_ in steps if name == "screen"]
    assert 0 < screened < 50 * 49 // 2


def test_exact_fallback_runs_where_the_bounds_straddle_a_delta(monkeypatch):
    # On a grid of the reference distances themselves, a pair whose distance
    # is a delta has bounds on both sides of it; only the exact formula
    # places it.
    ds = _ring_dataset(20)
    fallback = []
    exact_minima = augment._exact_minima

    def counted(coords, v, rows, cols):
        fallback.append(rows.size)
        return exact_minima(coords, v, rows, cols)

    monkeypatch.setattr(augment, "_exact_minima", counted)
    points = _class_points(ds, 0)
    reference = _row_block_distance_matrix(points, _RING_V126)
    deltas = np.unique(reference)
    levels = distance_levels(points, _RING_V126, deltas)
    np.testing.assert_array_equal(levels, np.searchsorted(deltas, reference, side="left"))
    assert fallback[0] >= 20 * 19 // 2 - 1
    # The exact formula on each of those pairs is ``augmented_distance``.
    for i, j in [(0, 1), (3, 17), (18, 19)]:
        assert deltas[levels[i, j]] == augmented_distance(points[i], points[j], _RING_V126)


def _random_class(n, dim, seed):
    return np.random.default_rng(seed).standard_normal((n, dim))


def _rich_aug(dim, seed):
    # V = 1 + 3 * 3: a scaling and a shift on a 3-point grid.
    direction = np.random.default_rng(seed).standard_normal(dim)
    return AugmentationSet(
        (identity(), scaling(0.5, 1.5, 10.0), additive_shift(tuple(direction))), grid_resolution=3
    )


_RING_V290 = AugmentationSet((identity(), _RING_ROTATION, _RING_SCALE), grid_resolution=17)

# Each job is too large for the all-pairs path, so it runs the GEMM bounds.
_HARD_CASES = {
    # Points near 1e6 a thousandth apart: uncentered, the GEMM's squared
    # norms would be about 1e12; the centering keeps the bound E small.
    "cancellation": (
        1e6 + 1e-3 * np.random.default_rng(1).standard_normal((30, 3)),
        AugmentationSet(
            (identity(), additive_shift((1e-3, 0.0, 0.0)), rotation_2d((0, 1), 1e-9, 2e6)),
            grid_resolution=3,
        ),
    ),
    "duplicate points": (
        np.repeat(np.random.default_rng(2).standard_normal((6, 3)), 4, axis=0),
        _RING_V26,
    ),
    # Rotations at theta = 0 repeat the identity view; with max_angle 0 all
    # six views of a point coincide, so every view pair ties.
    "duplicate views": (
        _ring_dataset(30).features, AugmentationSet((identity(), _RING_ROTATION), 5)
    ),
    "all views equal": (
        _ring_dataset(30).features,
        AugmentationSet((identity(), rotation_2d((0, 1), 0.0, 2.0)), 5),
    ),
    "D=1": (_random_class(40, 1, 3), _rich_aug(1, 3)),
    "D=2": (_random_class(40, 2, 4), _rich_aug(2, 4)),
    "D=3": (_random_class(40, 3, 5), _rich_aug(3, 5)),
    "D=8": (_random_class(40, 8, 6), _rich_aug(8, 6)),
    "V=1": (_random_class(300, 3, 7), AugmentationSet((identity(),))),
    "N=1": (_random_class(1, 3, 8), _RING_V290),
    "N=2": (_random_class(2, 3, 9), _RING_V290),
    "multi-batch": (_ring_dataset(50).features, _RING_V126),
}


@pytest.mark.parametrize("case", list(_HARD_CASES))
def test_distance_levels_are_exact_in_hard_cases(case):
    points, aug = _HARD_CASES[case]
    n, d = points.shape
    assert not _fits_all_pairs(n, aug, d)
    if case == "multi-batch":
        assert 4 * (n * aug.num_views) ** 2 > 8 * TILE_BYTES
    _assert_levels_match_reference(points, aug)


def _assert_levels_of_augmented_distance(points, aug):
    n = len(points)
    pairwise = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            pairwise[i, j] = pairwise[j, i] = augmented_distance(points[i], points[j], aug)
    for deltas in _grids(pairwise):
        levels = distance_levels(points, aug, deltas)
        np.testing.assert_array_equal(levels, np.searchsorted(deltas, pairwise, side="left"))


@pytest.mark.parametrize("scale", [1e-30, 1e20, 1e25])
def test_distance_levels_are_exact_at_extreme_magnitudes(scale):
    # Squared norms near 1e-60, 1e40 and 1e50 lie outside float32's range;
    # the GEMMs scale the views by a power of two before rounding them, and
    # the bounds divide by its square.
    points = _ring_dataset(25).features * scale
    assert not _fits_all_pairs(len(points), _RING_V26)
    _assert_levels_of_augmented_distance(points, _RING_V26)


def test_distance_levels_are_exact_on_near_ties_below_the_float32_bound():
    # A shift of 1e-7 and a rotation of at most 1e-6 make the view distances
    # of each sample pair differ by more than a float64 bound but less than
    # the float32 one, so the float32 GEMM cannot order them.
    points = _ring_dataset(25).features
    aug = AugmentationSet(
        (identity(), additive_shift((1e-7, 1e-7, 0.0)), rotation_2d((0, 1), 1e-6, 8.0)),
        grid_resolution=5,
    )
    n, v, d = len(points), aug.num_views, points.shape[1]
    flat = view_tensor(points, aug).reshape(n * v, d)
    peak = float(np.max(np.sum((flat - flat.mean(axis=0)) ** 2, axis=1)))
    bound64 = 10 * (d + 4) * (np.finfo(np.float64).eps * peak + np.finfo(np.float64).tiny)
    bound32 = 10 * (d + 4) * np.finfo(np.float32).eps * peak
    sq = cdist(flat, flat, "sqeuclidean").reshape(n, v, n, v).transpose(0, 2, 1, 3)
    gaps = sq.reshape(n, n, v * v) - sq.min(axis=(2, 3))[:, :, None]
    near = ((gaps > 2 * bound64) & (gaps <= 2 * bound32)).any(axis=2)
    assert near[~np.eye(n, dtype=bool)].mean() > 0.9
    _assert_levels_of_augmented_distance(points, aug)


# Ring classes at 6, 26 and 126 views, and the extreme magnitudes above.
_BOUND_CASES = {
    "V=6": (_class_points(_ring_dataset(48), 0), _RING_V6),
    "V=26": (_class_points(_ring_dataset(25), 0), _RING_V26),
    "V=126": (_class_points(_ring_dataset(25), 0), _RING_V126),
    **{f"x{scale:g}": (_ring_dataset(25).features * scale, _RING_V26)
       for scale in (1e-30, 1e20, 1e25)},
}


@pytest.mark.parametrize("case", list(_BOUND_CASES))
def test_gemm_bounds_hold_pair_by_pair(monkeypatch, case):
    # Levels only show a bound that errs by more than the gap to the nearest
    # delta; here every bound is compared with the pair's exact smallest
    # squared view distance c. A zero delta screens every pair but those the
    # group floor settles, where it runs.
    points, aug = _BOUND_CASES[case]
    (n, d), v = points.shape, aug.num_views
    assert not _fits_all_pairs(n, aug, d)
    lifted, all_minima, pair_minima = augment._lifted, augment._all_minima, augment._pair_minima
    scaled, identity_minima, screened, grouped = [], [], [], []

    def spy_lifted(coords, w):
        out = lifted(coords, w)
        # The views, not the group centers.
        if coords.shape[1] == n * v:
            scaled.append(out[2:])
        return out

    def spy_all(left, right, v, buf):
        out = all_minima(left, right, v, buf)
        # The identity pre-pass, the only whole-class GEMM.
        identity_minima.append(out.copy())
        return out

    def spy_pairs(left, right, w, rows, cols, buf):
        out = pair_minima(left, right, w, rows, cols, buf)
        (screened if w == v else grouped).append((out.copy(), rows, cols))
        return out

    monkeypatch.setattr(augment, "_lifted", spy_lifted)
    monkeypatch.setattr(augment, "_all_minima", spy_all)
    monkeypatch.setattr(augment, "_pair_minima", spy_pairs)
    levels = distance_levels(points, aug, [0.0])
    [(bound, scale)] = scaled
    [h] = identity_minima
    [(m, rows, cols)] = screened
    coords = np.ascontiguousarray(view_tensor(points, aug).reshape(n * v, d).T)
    every = np.indices((n, n)).reshape(2, -1)
    exact = augment._exact_minima(coords, v, *every).reshape(n, n)
    # Each sample's views against each sample's identity view bound c from above.
    assert np.all(augment._unscaled(h, bound, scale) >= exact)
    need = np.zeros((n, n), dtype=bool)
    need[rows, cols] = True
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    settled = upper & ~need
    assert np.all(need <= upper) and settled.any() == bool(grouped)
    np.testing.assert_array_equal(levels[settled], 1)
    assert np.all(augment._unscaled(m, -bound, scale) <= exact[rows, cols])
    assert np.all(exact[rows, cols] <= augment._unscaled(m, bound, scale))


# The group floor's cases beside the ``_BOUND_CASES``: a rotation by at
# most 0, whose runs have radius 0, so that each floor is the GEMM bound of
# its centers; the wide rotation as the last-declared member, so that its
# runs are wide and little is settled; sign-flip and permutation members,
# each a group of its own, beside the runs; and a discrete-only set, which
# has no group step.
_GROUP_CASES = {
    **_BOUND_CASES,
    "runs of equal views": (
        _class_points(_ring_dataset(25), 0),
        AugmentationSet((identity(), rotation_2d((0, 1), 0.0, 2.0)), 5),
    ),
    "rotation last": (
        _class_points(_ring_dataset(25), 0),
        AugmentationSet((identity(), _RING_SCALE, _RING_SHIFT, _RING_ROTATION), 5),
    ),
    "discrete members": (
        _class_points(_ring_dataset(25), 0),
        AugmentationSet(
            (identity(), sign_flip_mask((1.0, -1.0, 1.0)), coordinate_permutation((2, 0, 1)),
             _RING_ROTATION, _RING_SHIFT),
            5,
        ),
    ),
    "discrete only": (
        _random_class(60, 3, 10),
        AugmentationSet((identity(), sign_flip_mask((1.0, -1.0, 1.0)),
                         coordinate_permutation((2, 0, 1)))),
    ),
}


@pytest.mark.parametrize("case", list(_GROUP_CASES))
def test_group_floors_hold_pair_by_pair(monkeypatch, case):
    # Every floor of the group step is compared with the pair's distance
    # fl(√c) by the exact formula. A zero delta leaves every pair to it; a
    # smaller tile makes the group step run where it does not.
    points, aug = _GROUP_CASES[case]
    (n, d), v = points.shape, aug.num_views
    if TILE_BYTES // (4 * v * v * n) > 1:
        monkeypatch.setattr(augment, "TILE_BYTES", 4 * v * v * n)
    group_floor, floors = augment._group_floor, []

    def spy(coords, aug, rows, cols, buf):
        out = group_floor(coords, aug, rows, cols, buf)
        floors.append((out, rows, cols))
        return out

    monkeypatch.setattr(augment, "_group_floor", spy)
    levels = distance_levels(points, aug, [0.0])
    coords = np.ascontiguousarray(view_tensor(points, aug).reshape(n * v, d).T)
    every = np.indices((n, n)).reshape(2, -1)
    exact = np.sqrt(augment._exact_minima(coords, v, *every)).reshape(n, n)
    np.testing.assert_array_equal(levels, exact > 0)
    if not aug.continuous:
        assert floors == []
        return
    [(floor, rows, cols)] = floors
    need = np.zeros((n, n), dtype=bool)
    need[rows, cols] = True
    np.testing.assert_array_equal(need, np.triu(exact > 0, 1))
    assert np.all(floor <= exact[rows, cols])
    settled = np.mean(floor > 0)
    assert settled < 0.05 if case == "rotation last" else settled > 0.2
    _assert_levels_match_reference(points, aug)
    if case == "rotation last":
        _assert_levels_of_augmented_distance(points, aug)


# The ``_BOUND_CASES`` and four ring shapes of the scale ladder, one class each.
_STEP_CASES = {
    **_BOUND_CASES,
    **{f"n{n}_v{aug.num_views}": (_class_points(_ring_dataset(n), 0), aug)
       for n in (14, 32) for aug in (_RING_V26, _RING_V126)},
}


@pytest.mark.parametrize("case", list(_STEP_CASES))
def test_every_step_bounds_the_exact_level_pair_by_pair(monkeypatch, case):
    # Each step's lower and upper levels must hold the exact level of every
    # pair it is given. The exact distances are checked against
    # ``augmented_distance``. Beside a coarse grid, the grid of every exact
    # distance and its float64 neighbours puts a delta at each pair's
    # distance, so a bound one float64 step on the wrong side of it shows. A
    # smaller tile makes the group step run where it does not.
    points, aug = _STEP_CASES[case]
    (n, d), v = points.shape, aug.num_views
    assert not _fits_all_pairs(n, aug, d)
    if TILE_BYTES // (4 * v * v * n) > 1:
        monkeypatch.setattr(augment, "TILE_BYTES", 4 * v * v * n)
    coords = np.ascontiguousarray(view_tensor(points, aug).reshape(n * v, d).T)
    every = np.indices((n, n)).reshape(2, -1)
    exact = np.sqrt(augment._exact_minima(coords, v, *every)).reshape(n, n)
    for i, j in [(0, 1), (0, n - 1), (n - 2, n - 1)]:
        assert exact[i, j] == augmented_distance(points[i], points[j], aug)
    near = np.concatenate([exact, np.nextafter(exact, -np.inf), np.nextafter(exact, np.inf)])
    steps = _spy_steps(monkeypatch)
    for deltas in (_grids(exact)[0], np.unique(np.maximum(near, 0.0))):
        steps.clear()
        expected = np.searchsorted(deltas, exact, side="left")
        np.testing.assert_array_equal(distance_levels(points, aug, deltas), expected)
        names = [name for name, *_ in steps]
        assert names == [s for s in ("pre_pass", "group", "screen", "exact") if s in names]
        assert names[:2] == ["pre_pass", "group"]
        for name, rows, cols, lo, hi in steps:
            level = expected[rows, cols]
            assert np.all(lo <= level) and np.all(level <= hi), name


def test_a_pair_settles_at_a_middle_level_without_the_screen(monkeypatch):
    # A rotation by at most 0 repeats each point, so both the identity bound
    # and the group floor of a pair lie within rounding of its distance. On
    # 25 points of the unit lattice and a grid of half the smallest and
    # twice the largest distance, the pre-pass's upper level and the group's
    # lower level meet at level 1 for every pair, and no pair reaches the
    # screen.
    points = np.array(list(itertools.product(range(3), repeat=3)), dtype=float)[:25]
    aug = AugmentationSet((identity(), rotation_2d((0, 1), 0.0, 2.0)), 5)
    n, v = len(points), aug.num_views
    monkeypatch.setattr(augment, "TILE_BYTES", 4 * v * v * n)
    distances = _row_block_distance_matrix(points, aug)[~np.eye(n, dtype=bool)]
    widths, pair_minima = [], augment._pair_minima

    def spy(left, right, w, *rest):
        widths.append(w)
        return pair_minima(left, right, w, *rest)

    monkeypatch.setattr(augment, "_pair_minima", spy)
    levels = distance_levels(points, aug, [distances.min() / 2, 2 * distances.max()])
    np.testing.assert_array_equal(levels, 1 - np.eye(n, dtype=int))
    # Only the group floor's GEMM runs, on each sample's 2 group centers.
    assert widths == [2]


@pytest.mark.parametrize("dim", range(1, 13))
def test_squared_distances_equal_cdist_bit_for_bit(dim):
    # Coordinates of mixed scales and offsets, so that the summation order
    # shows in the last bits.
    rng = np.random.default_rng(dim)
    scale = 10.0 ** rng.uniform(-3, 3, dim)
    a = rng.standard_normal((60, dim)) * scale + rng.standard_normal(dim) * scale
    b = rng.standard_normal((50, dim)) * scale
    np.testing.assert_array_equal(
        augment._sqeuclidean(a.T[:, :, None], b.T[:, None, :]), cdist(a, b, "sqeuclidean")
    )
    aug = _rich_aug(dim, dim)
    for x, y in zip(a[:8], b[:8]):
        d2 = cdist(view_tensor(x, aug)[0], view_tensor(y, aug)[0], "sqeuclidean")
        assert augmented_distance(x, y, aug) == np.sqrt(max(d2.min(), 0.0))


def test_sample_view_pair_identity_only_returns_the_point():
    aug = AugmentationSet(transforms=(identity(),), grid_resolution=2)
    rng = np.random.default_rng(0)
    x = np.array([0.5, -1.5])
    for _ in range(5):
        np.testing.assert_array_equal(sample_views(np.stack([x, x]), aug, rng), [x, x])


def test_sample_views_branch_frequencies():
    # Half the draws should use a discrete transform, half a continuous
    # theta; identify the branch via a pure shift on a zero vector.
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((1.0,))), grid_resolution=3
    )
    rng = np.random.default_rng(42)
    n = 100_000
    points = np.zeros((n, 1))
    views = sample_views(points, aug, rng)
    continuous = views[:, 0] != 0.0  # shift by theta > 0 marks the continuous branch
    # P[continuous and theta > 0] = 1/2 (theta = 0 has measure zero)
    freq = continuous.mean()
    sd = np.sqrt(0.25 / n)
    assert abs(freq - 0.5) < 3 * sd


def _per_row_views(points, aug, coin, disc_idx, thetas):
    """One Transform.apply per row and member, for the drawn branch only."""
    out = np.empty_like(points)
    for r, x in enumerate(points):
        if coin[r] < 0.5 or not aug.continuous:
            out[r] = aug.discrete[disc_idx[r]].apply(x)
            continue
        for trans, theta in zip(aug.continuous, thetas[r]):
            x = trans.apply(x, theta)
        out[r] = x
    return out


@pytest.mark.parametrize("with_continuous", [True, False])
def test_sample_views_matches_per_row_oracle_and_draw_order(with_continuous):
    members = (
        identity(),
        coordinate_permutation((2, 0, 1)),
        sign_flip_mask((1.0, -1.0, -1.0)),
    )
    if with_continuous:
        members += (
            additive_shift((0.3, 0.0, -0.2)),
            rotation_2d((0, 2), 0.9, 3.0),
            scaling(0.8, 1.25, 3.0),
        )
    aug = AugmentationSet(transforms=members, grid_resolution=3)
    points = np.random.default_rng(5).normal(size=(64, 3))
    b, m, n = len(points), aug.num_discrete, aug.num_continuous_params
    for seed in range(4):
        rng = np.random.default_rng(seed)
        views = sample_views(points, aug, rng)
        oracle_rng = np.random.default_rng(seed)
        coin = oracle_rng.random(b)
        disc_idx = oracle_rng.integers(0, m, size=b)
        thetas = oracle_rng.random((b, n))
        np.testing.assert_array_equal(views, _per_row_views(points, aug, coin, disc_idx, thetas))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("with_continuous", [True, False])
def test_one_discrete_member_makes_no_index_draw(with_continuous):
    # integers(0, 1, B) returns int64 zeros and consumes nothing from the
    # generator, so the coins and parameters are consecutive random draws
    # (the block decode of training relies on it); a numpy that changes
    # either fact would change the contract order of the README.
    members = (identity(), rotation_2d((0, 1), 0.9, 2.0)) if with_continuous else (identity(),)
    aug = AugmentationSet(transforms=members, grid_resolution=3)
    b, n = 16, aug.num_continuous_params
    rng = np.random.default_rng(21)
    uniforms, disc_idx = augment._empty_draws(aug, (b,))
    augment._draw_views(aug, rng, uniforms, disc_idx)
    coin, thetas = uniforms[:b], uniforms[b:].reshape(b, n)
    twin = np.random.default_rng(21)
    twin_coin = twin.random(b)
    twin_idx = twin.integers(0, 1, size=b)
    twin_thetas = twin.random((b, n)) if n else np.empty((b, 0))
    assert rng.bit_generator.state == twin.bit_generator.state
    assert twin_idx.dtype == disc_idx.dtype == np.int64
    np.testing.assert_array_equal(twin_idx, np.zeros(b, dtype=np.int64))
    np.testing.assert_array_equal(disc_idx, twin_idx)
    np.testing.assert_array_equal(coin, twin_coin)
    np.testing.assert_array_equal(thetas, twin_thetas)


@pytest.mark.parametrize("seed", range(5))
def test_sample_views_rejects_a_member_that_does_not_fit_for_every_seed(seed):
    # Only some draws route a row to the 3-long mask; the error must not
    # depend on them, and it comes before any draw.
    aug = AugmentationSet(
        transforms=(identity(), sign_flip_mask((1.0, -1.0, 1.0)), additive_shift((0.1, 0.0))),
        grid_resolution=3,
    )
    rng = np.random.default_rng(seed)
    with pytest.raises(ValueError, match="feature dimension"):
        sample_views(np.zeros((4, 2)), aug, rng)
    assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state


def test_sampling_is_reproducible():
    aug = AugmentationSet(
        transforms=(identity(), sign_flip_mask((-1.0,)), additive_shift((0.7,))),
        grid_resolution=3,
    )
    x = np.array([1.0])
    a = [sample_views(np.stack([x, x]), aug, np.random.default_rng(9)) for _ in range(4)]
    b = [sample_views(np.stack([x, x]), aug, np.random.default_rng(9)) for _ in range(4)]
    for a_views, b_views in zip(a, b):
        np.testing.assert_array_equal(a_views, b_views)


@pytest.mark.parametrize(
    "transform, dim",
    [
        (additive_shift((0.5, -0.25)), 2),
        (rotation_2d((0, 1), 0.8, 2.0), 2),
        (scaling(0.7, 1.4, 2.0), 3),
    ],
)
def test_declared_lipschitz_constant_certifies_sampled_ratios(transform, dim):
    rng = np.random.default_rng(123)
    m = transform.lipschitz_bound
    worst = 0.0
    for _ in range(10_000):
        x = rng.uniform(-1.0, 1.0, size=dim)
        if transform.rule in ("rotation_2d_subspace", "scale"):
            x = x / max(np.linalg.norm(x) / 2.0, 1.0)  # keep within data_radius=2
        t1, t2 = rng.uniform(0.0, 1.0, size=2)
        if t1 == t2:
            continue
        d = np.linalg.norm(transform.apply(x, t1) - transform.apply(x, t2))
        worst = max(worst, d / abs(t1 - t2))
    assert worst <= m + 1e-9


def test_effective_lipschitz_is_the_max_over_members():
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((0.3, 0.4)), scaling(0.5, 1.5, 2.0)),
        grid_resolution=3,
    )
    # shift: ||direction|| = 0.5; scaling: |high - low| * data_radius = 2.0
    assert aug.effective_lipschitz == pytest.approx(2.0)
    assert aug.num_discrete == 1
    assert aug.num_continuous_params == 2


def test_view_weights_mirror_the_sampling_split():
    aug = AugmentationSet(
        transforms=(identity(), sign_flip_mask((-1.0,)), additive_shift((0.5,))),
        grid_resolution=4,
    )
    w = view_weights(aug)
    assert w.shape == (aug.num_views,)
    np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)
    np.testing.assert_allclose(w[:2], 1.0 / (2 * 2))
    np.testing.assert_allclose(w[2:], 1.0 / (2 * 4))


def test_view_weights_identity_only_are_uniform():
    aug = AugmentationSet(
        transforms=(identity(), sign_flip_mask((-1.0,))), grid_resolution=2
    )
    np.testing.assert_allclose(view_weights(aug), [0.5, 0.5])


def test_spec_round_trip():
    aug = AugmentationSet(
        transforms=(
            identity(),
            coordinate_permutation((1, 0)),
            sign_flip_mask((1.0, -1.0)),
            additive_shift((0.1, 0.2)),
            rotation_2d((0, 1), 0.5, 3.0),
            scaling(0.8, 1.2, 3.0),
        ),
        grid_resolution=4,
    )
    back = from_spec(AugmentationSet, spec_dict(aug), "augmentation")
    assert back == aug
    for t in aug.transforms:
        assert from_spec(Transform, spec_dict(t), "transform") == t


@pytest.mark.parametrize("axes", [(-1, 1), (0, -2), (-2, -1)])
def test_rotation_rejects_negative_axes(axes):
    # (-1, 1) on 2-d points would address coordinate 1 twice: not a rotation.
    with pytest.raises(ValueError, match="non-negative axes"):
        rotation_2d(axes, 1.0, 2.0)
    spec = {"rule": "rotation_2d_subspace", "axes": list(axes), "max_angle": 1.0,
            "data_radius": 2.0}
    with pytest.raises(ValueError, match="non-negative axes"):
        from_spec(Transform, spec, "transform")


@pytest.mark.parametrize(
    "make",
    [
        lambda: rotation_2d((0, 1), float("nan"), 2.0),
        lambda: rotation_2d((0, 1), float("inf"), 2.0),
        lambda: rotation_2d((0, 1), 1.0, float("inf")),
        lambda: scaling(float("nan"), 1.2, 2.0),
        lambda: scaling(0.8, float("inf"), 2.0),
        lambda: scaling(0.8, 1.2, float("-inf")),
        lambda: additive_shift((float("nan"), 0.0)),
        lambda: additive_shift((0.0, float("-inf"))),
    ],
)
def test_transforms_reject_non_finite_parameters(make):
    with pytest.raises(ValueError, match="must be finite"):
        make()


@pytest.mark.parametrize(
    "spec",
    [
        {"rule": "rotation_2d_subspace", "axes": [0, 1], "max_angle": float("nan"),
         "data_radius": 2.0},
        {"rule": "rotation_2d_subspace", "axes": [0, 1], "max_angle": 1.0,
         "data_radius": float("inf")},
        {"rule": "scale", "scale_span": [0.8, float("nan")], "data_radius": 2.0},
        {"rule": "additive_shift", "direction": [float("nan"), 0.0]},
        {"rule": "additive_shift", "direction": [0.0, float("inf")]},
    ],
)
def test_transform_spec_rejects_non_finite_parameters(spec):
    # The json module writes and reads NaN and Infinity.
    text = json.dumps(spec)
    assert "NaN" in text or "Infinity" in text
    with pytest.raises(ValueError, match="must be finite"):
        from_spec(Transform, json.loads(text), "transform")


@pytest.mark.parametrize("theta", [float("nan"), np.array([0.5, float("nan")])])
def test_apply_rejects_a_nan_theta(theta):
    shift = additive_shift((0.0, 1.0))
    with pytest.raises(ValueError, match=r"theta must lie in \[0, 1\]"):
        shift.apply(np.zeros((2, 2)), theta)


def test_view_tensor_matches_enumerate_views():
    aug = AugmentationSet(
        transforms=(identity(), sign_flip_mask((-1.0, 1.0)), additive_shift((0.3, 0.1))),
        grid_resolution=3,
    )
    pts = np.array([[0.5, 1.0], [-0.25, 2.0]])
    tensor = view_tensor(pts, aug)
    assert tensor.shape == (2, aug.num_views, 2)
    # Each row equals the views of its point enumerated on its own.
    for i, p in enumerate(pts):
        np.testing.assert_allclose(tensor[i], view_tensor(p, aug)[0], atol=1e-12)


def _per_theta_view_tensor(points, aug):
    """Views built one grid point at a time, each composing every member."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    chunks = [t.apply(points) for t in aug.discrete]
    axis = np.linspace(0.0, 1.0, aug.grid_resolution)
    for theta in itertools.product(axis, repeat=len(aug.continuous)) if aug.continuous else ():
        out = points
        for trans, th in zip(aug.continuous, theta):
            out = trans.apply(out, th)
        chunks.append(out)
    return np.stack(chunks, axis=1)


_PERMUTE = coordinate_permutation((2, 0, 1))
_FLIP = sign_flip_mask((1.0, -1.0, 1.0))


@pytest.mark.parametrize("n_points", [1, 192])
@pytest.mark.parametrize("resolution", [2, 3, 5, 17])
@pytest.mark.parametrize(
    "members",
    [
        (identity(), _PERMUTE, _FLIP),
        (identity(), _RING_ROTATION),
        (identity(), _RING_ROTATION, _RING_SCALE),
        (identity(), _RING_ROTATION, _RING_SCALE, _RING_SHIFT),
        # Discrete and continuous members interleaved in declaration order.
        (_RING_SHIFT, _PERMUTE, identity(), _RING_ROTATION, _FLIP, _RING_SCALE),
    ],
)
def test_view_tensor_matches_the_per_theta_oracle(members, resolution, n_points):
    aug = AugmentationSet(members, grid_resolution=resolution)
    # 192 points: the whole dataset of the largest ladder rung.
    points = _ring_dataset(96).features
    points = points[0] if n_points == 1 else points
    tensor = view_tensor(points, aug)
    assert tensor.shape == (n_points, aug.num_views, 3)
    np.testing.assert_array_equal(tensor, _per_theta_view_tensor(points, aug))
