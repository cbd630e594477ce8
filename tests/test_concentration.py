"""Threshold graphs, clique search, and sigma estimation."""

import sys
import tracemalloc

import numpy as np
import pytest

import test_acceptance
from augbound import concentration, experiments
from augbound.augment import (
    AugmentationSet,
    additive_shift,
    augmented_distance,
    identity,
    sign_flip_mask,
)
from augbound.concentration import (
    APPROX_NODE_BUDGET,
    EXACT_CLIQUE_BUDGET,
    _adjacency_masks,
    ConcentrationEstimate,
    approx_max_clique,
    build_threshold_graph,
    estimate_sigma,
    exact_max_clique,
    sigma_delta_curve,
)
from augbound.core import Dataset, GeneratorConfig, generate_dataset
from oracles import recursive_search


def brute_force_max_clique_size(adjacency: np.ndarray) -> int:
    """Exhaustive subset scan; usable up to ~20 nodes."""
    n = adjacency.shape[0]
    masks = [0] * n
    for i in range(n):
        for j in range(n):
            if adjacency[i, j]:
                masks[i] |= 1 << j
    best = 1 if n else 0
    for subset in range(1, 1 << n):
        size = subset.bit_count()
        if size <= best:
            continue
        ok = True
        s = subset
        while s:
            i = (s & -s).bit_length() - 1
            s &= s - 1
            if (subset & ~(masks[i] | (1 << i))) != 0:
                ok = False
                break
        if ok:
            best = size
    return best


def is_clique(adjacency: np.ndarray, members) -> bool:
    members = list(members)
    return all(
        adjacency[a, b] for i, a in enumerate(members) for b in members[i + 1 :]
    )


def is_maximal(adjacency: np.ndarray, members) -> bool:
    """No vertex outside ``members`` is adjacent to every member."""
    inside = np.zeros(adjacency.shape[0], dtype=bool)
    inside[list(members)] = True
    return not np.any(~inside & adjacency[:, inside].all(axis=1))


def random_graph(rng, n, density):
    adj = np.triu(rng.random((n, n)) < density, 1)
    adj = adj | adj.T
    dist = np.where(adj, 0.5, 2.0)
    np.fill_diagonal(dist, 0.0)
    return build_threshold_graph(dist, 1.0)


def line_distances(positions) -> np.ndarray:
    pos = np.asarray(positions, dtype=float)
    return np.abs(pos[:, None] - pos[None, :])


def test_threshold_graph_edge_rule():
    dist = line_distances([0.0, 1.0, 2.0, 3.0])
    g0 = build_threshold_graph(dist, 0.0)
    assert not g0.adjacency.any()
    g_full = build_threshold_graph(dist, 3.0)
    assert g_full.adjacency.sum() == 4 * 3  # complete, both directions
    g_path = build_threshold_graph(dist, 1.0)
    expected = np.zeros((4, 4), dtype=bool)
    for i in range(3):
        expected[i, i + 1] = expected[i + 1, i] = True
    np.testing.assert_array_equal(g_path.adjacency, expected)
    assert not g_path.adjacency.diagonal().any()


def test_threshold_graph_reads_integer_levels_without_a_float_copy():
    # ``_curve`` passes each class's (N, N) intp threshold levels; a float64
    # copy of them would allocate as much as the levels again.
    levels = np.random.default_rng(3).integers(0, 5, (300, 300))
    levels = levels + levels.T
    tracemalloc.start()
    try:
        graph = build_threshold_graph(levels, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    expected = levels <= 4
    np.fill_diagonal(expected, False)
    np.testing.assert_array_equal(graph.adjacency, expected)
    assert peak < levels.nbytes // 2


def test_threshold_graph_compares_floats_in_float64():
    # float32(0.1) lies above the float64 delta 0.1, though a comparison in
    # float32 would find them equal.
    dist = np.full((3, 3), 0.1, dtype=np.float32)
    assert not build_threshold_graph(dist, 0.1).adjacency.any()
    assert build_threshold_graph(np.full((3, 3), 0.1), 0.1).adjacency.sum() == 6


def test_threshold_graph_rejects_negative_delta():
    with pytest.raises(ValueError):
        build_threshold_graph(np.zeros((2, 2)), -0.1)


def test_threshold_graph_rejects_nan_delta():
    with pytest.raises(ValueError, match="non-negative"):
        build_threshold_graph(np.zeros((2, 2)), float("nan"))


def test_exact_clique_complete_graph():
    dist = np.zeros((5, 5))
    g = build_threshold_graph(dist, 0.5)
    assert exact_max_clique(g) == (0, 1, 2, 3, 4)


def test_exact_clique_edgeless_graph_tie_break():
    dist = line_distances([0.0, 10.0, 20.0, 30.0])
    g = build_threshold_graph(dist, 1.0)
    g_edgeless = build_threshold_graph(line_distances([0.0, 10.0, 20.0]), 1.0)
    assert exact_max_clique(g_edgeless) == (0,)
    # path graph: max clique size 2, lexicographically smallest is {0, 1}
    assert exact_max_clique(build_threshold_graph(line_distances([0, 1, 2, 3]), 1.0)) == (0, 1)


def test_exact_clique_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 13))
        adj = rng.random((n, n)) < 0.5
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        dist = np.where(adj, 0.5, 2.0)
        np.fill_diagonal(dist, 0.0)
        g = build_threshold_graph(dist, 1.0)
        clique = exact_max_clique(g)
        assert is_clique(g.adjacency, clique)
        assert len(clique) == brute_force_max_clique_size(g.adjacency)


def _loop_adjacency_masks(adjacency):
    masks = []
    for i in range(adjacency.shape[0]):
        row = 0
        for j in np.flatnonzero(adjacency[i]):
            row |= 1 << int(j)
        masks.append(row)
    return masks


@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65])
def test_adjacency_masks_match_the_bit_loop(n):
    # Sizes on both sides of a byte and of a 64-bit word.
    rng = np.random.default_rng(n)
    for density in (0.0, 0.3, 0.7, 1.0):
        adj = np.triu(rng.random((n, n)) < density, 1)
        adj = adj | adj.T
        assert _adjacency_masks(adj) == _loop_adjacency_masks(adj)


def test_exact_clique_budget():
    n = EXACT_CLIQUE_BUDGET + 1
    g = build_threshold_graph(np.zeros((n, n)), 1.0)
    with pytest.raises(ValueError) as info:
        exact_max_clique(g)
    assert str(info.value) == (
        "graph has 33 nodes, over the exact budget of 32; use the dual_approx mode"
    )


def test_approx_clique_complete_graph():
    g = build_threshold_graph(np.zeros((6, 6)), 1.0)
    assert approx_max_clique(g) == (0, 1, 2, 3, 4, 5)


def test_approx_clique_edgeless_clamps_to_singleton():
    g = build_threshold_graph(line_distances([0.0, 10.0, 20.0, 30.0]), 1.0)
    assert approx_max_clique(g) == (0,)


def test_approx_clique_is_conservative_and_valid():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(2, 15))
        adj = rng.random((n, n)) < rng.choice([0.2, 0.5, 0.8])
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        dist = np.where(adj, 0.5, 2.0)
        np.fill_diagonal(dist, 0.0)
        g = build_threshold_graph(dist, 1.0)
        approx = approx_max_clique(g)
        exact = exact_max_clique(g)
        assert is_clique(g.adjacency, approx)
        assert is_clique(g.adjacency, exact)
        assert 1 <= len(approx) <= len(exact)
        assert is_maximal(g.adjacency, approx)


def test_approx_clique_is_exact_up_to_eight_vertices():
    # At most 2^8 search nodes, so the budget never cuts the search.
    assert APPROX_NODE_BUDGET >= 2**8
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        assert approx_max_clique(g) == exact_max_clique(g)


def test_approx_clique_when_the_budget_runs_out():
    # Dense enough that the complete search needs far more than the budget:
    # the incumbent (10 vertices) stops short of the maximum (12).
    g = random_graph(np.random.default_rng(4), 32, 0.8)
    approx, exact = approx_max_clique(g), exact_max_clique(g)
    assert len(approx) < len(exact)
    assert is_clique(g.adjacency, approx)
    assert is_maximal(g.adjacency, approx)
    assert list(approx) == sorted(approx)
    assert all(approx_max_clique(g) == approx for _ in range(3))


@pytest.mark.parametrize("budget", [None, 1, 2, 7, 256])
def test_search_matches_the_recursive_search(budget):
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 41))
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        assert concentration._search(g, budget) == recursive_search(g, budget)


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # The first descent on a complete graph is one node per vertex.
    n = sys.getrecursionlimit() + 100
    g = build_threshold_graph(np.zeros((n, n)), 1.0)
    assert approx_max_clique(g) == tuple(range(n))


def _blob_dataset(samples=6, seed=0, spread=0.2):
    cfg = GeneratorConfig(
        num_classes=2,
        samples_per_class=samples,
        cluster_centers=((-4.0, 0.0), (4.0, 0.0)),
        cluster_spread=spread,
        manifold="gaussian_blobs",
        seed=seed,
    )
    return generate_dataset(cfg)


def _identity_aug():
    return AugmentationSet(transforms=(identity(),), grid_resolution=2)


def test_sigma_one_when_delta_covers_every_class():
    ds = _blob_dataset()
    est = estimate_sigma(ds, _identity_aug(), delta=10.0, mode="exact")
    assert est.sigma == 1.0
    assert est.per_class_sigma == (1.0, 1.0)
    for k, part in enumerate(est.main_parts):
        assert sorted(part) == sorted(ds.class_indices(k).tolist())


def test_sigma_at_zero_delta_is_one_over_class_size():
    ds = _blob_dataset(samples=5)
    est = estimate_sigma(ds, _identity_aug(), delta=0.0, mode="exact")
    assert est.sigma == pytest.approx(1 / 5)
    assert all(len(p) == 1 for p in est.main_parts)


def test_sigma_matches_brute_force_on_hand_classes():
    # two classes of 5 points each on a line, far apart
    feats = np.array(
        [[0.0], [0.3], [0.6], [2.0], [2.1], [50.0], [50.4], [50.5], [53.0], [56.0]]
    )
    labels = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    ds = Dataset(feats, labels)
    aug = _identity_aug()
    delta = 0.5
    est = estimate_sigma(ds, aug, delta, mode="exact")
    for k in range(2):
        idx = ds.class_indices(k)
        dist = np.abs(feats[idx, 0][:, None] - feats[idx, 0][None, :])
        g = build_threshold_graph(dist, delta)
        expected = brute_force_max_clique_size(g.adjacency) / idx.size
        assert est.per_class_sigma[k] == pytest.approx(expected)
    assert est.sigma == min(est.per_class_sigma)


def test_main_parts_certify_the_definition():
    ds = _blob_dataset(samples=8, seed=2)
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((0.1, 0.1))), grid_resolution=3
    )
    delta = 0.6
    for mode in ("exact", "dual_approx"):
        est = estimate_sigma(ds, aug, delta, mode=mode)
        from augbound.augment import augmented_distance

        for k, part in enumerate(est.main_parts):
            assert len(part) >= est.sigma * ds.class_indices(k).size - 1e-12
            for i, a in enumerate(part):
                for b in part[i + 1 :]:
                    assert augmented_distance(ds.features[a], ds.features[b], aug) <= delta + 1e-12


def test_sigma_delta_curve_endpoints_and_monotonicity():
    ds = _blob_dataset(samples=7, seed=5, spread=0.4)
    aug = _identity_aug()
    deltas = [0.0, 0.2, 0.2, 0.6, 1.2, 50.0]
    curve = sigma_delta_curve(ds, aug, deltas, mode="exact")
    sigmas = [c.sigma for c in curve]
    assert sigmas[0] == pytest.approx(1 / 7)
    assert sigmas[-1] == 1.0
    assert all(b >= a for a, b in zip(sigmas, sigmas[1:]))
    # repeated delta values give repeated sigma values
    assert sigmas[1] == sigmas[2]
    assert curve[1].main_parts == curve[2].main_parts


def test_sigma_delta_curve_matches_pointwise_estimates_in_exact_mode():
    ds = _blob_dataset(samples=5, seed=9, spread=0.5)
    aug = _identity_aug()
    deltas = [0.1, 0.4, 0.9, 2.0]
    curve = sigma_delta_curve(ds, aug, deltas, mode="exact")
    for delta, est in zip(deltas, curve):
        single = estimate_sigma(ds, aug, delta, mode="exact")
        assert est.sigma == pytest.approx(single.sigma)
        assert est.per_class_sigma == single.per_class_sigma


def test_sigma_delta_curve_rejects_descending_deltas():
    ds = _blob_dataset(samples=4)
    with pytest.raises(ValueError, match="ascending"):
        sigma_delta_curve(ds, _identity_aug(), [0.5, 0.2], mode="exact")


def test_sigma_delta_curve_rejects_nan_thresholds():
    # A NaN compares false both ways, so it would pass an ascending check and
    # break the monotone curve.
    ds = _blob_dataset(samples=4)
    for deltas in ([0.2, float("nan"), 0.6], [0.6, float("nan"), 0.1]):
        with pytest.raises(ValueError, match="non-negative"):
            sigma_delta_curve(ds, _identity_aug(), deltas, mode="exact")


def test_estimate_sigma_rejects_nan_delta():
    with pytest.raises(ValueError, match="non-negative"):
        estimate_sigma(_blob_dataset(samples=4), _identity_aug(), float("nan"))


def _sized_dataset(sizes):
    labels = np.repeat(np.arange(len(sizes)), sizes)
    features = np.random.default_rng(3).normal(size=(labels.size, 2))
    return Dataset(features, labels)


def _forbid_distance_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("distance_levels was called")

    monkeypatch.setattr(concentration, "distance_levels", fail)


def _exact_refusal(n):
    with pytest.raises(ValueError) as info:
        exact_max_clique(build_threshold_graph(np.zeros((n, n)), 1.0))
    return str(info.value)


@pytest.mark.parametrize("sizes, refused", [((32, 33), 33), ((32, 34, 33), 34)])
def test_exact_mode_refuses_an_over_budget_class_before_any_distance_work(
    monkeypatch, sizes, refused
):
    # The first class over the budget, in class order, names the refusal.
    ds = _sized_dataset(sizes)
    _forbid_distance_work(monkeypatch)
    with pytest.raises(ValueError) as info:
        sigma_delta_curve(ds, _identity_aug(), [0.5, 1.0], mode="exact")
    assert str(info.value) == _exact_refusal(refused)
    with pytest.raises(ValueError) as info:
        estimate_sigma(ds, _identity_aug(), 0.5, mode="exact")
    assert str(info.value) == _exact_refusal(refused)


def test_empty_delta_list_does_no_distance_work(monkeypatch):
    _forbid_distance_work(monkeypatch)
    assert sigma_delta_curve(_sized_dataset((33, 33)), _identity_aug(), [], "exact") == []


def test_a_misspelt_mode_is_refused_before_any_distance_work(monkeypatch):
    # Over the exact budget too: the mode is checked before the class sizes.
    ds = _sized_dataset((33, 4))
    _forbid_distance_work(monkeypatch)
    with pytest.raises(ValueError, match="unknown concentration mode 'exakt'"):
        sigma_delta_curve(ds, _identity_aug(), [0.5, 1.0], mode="exakt")
    with pytest.raises(ValueError, match="unknown concentration mode 'exakt'"):
        estimate_sigma(ds, _identity_aug(), 0.5, mode="exakt")


@pytest.mark.parametrize("mode", ["exact", "dual_approx"])
def test_each_class_is_searched_before_the_next_class_has_levels(monkeypatch, mode):
    # The classes run one at a time: a class's levels, then its search at
    # every delta, then the next class's levels. Class sizes tell them apart.
    events = []
    real_levels = concentration.distance_levels
    real_search = exact_max_clique if mode == "exact" else approx_max_clique

    def levels(points, aug, deltas):
        events.append(("levels", len(points)))
        return real_levels(points, aug, deltas)

    def search(graph):
        events.append(("search", graph.num_nodes))
        return real_search(graph)

    monkeypatch.setattr(concentration, "distance_levels", levels)
    monkeypatch.setattr(concentration, real_search.__name__, search)
    deltas = [0.5, 1.0, 2.0]
    curve = sigma_delta_curve(_sized_dataset((3, 5, 4)), _identity_aug(), deltas, mode)
    assert len(curve) == len(deltas)
    assert events == [
        event for n in (3, 5, 4) for event in [("levels", n)] + [("search", n)] * len(deltas)
    ]


def test_exact_mode_runs_at_the_budget_and_approx_beyond_it():
    aug = _identity_aug()
    at_budget = sigma_delta_curve(_sized_dataset((32, 32)), aug, [0.5, 100.0], "exact")
    assert [e.mode for e in at_budget] == ["exact", "exact"]
    assert at_budget[-1].sigma == 1.0
    beyond = sigma_delta_curve(_sized_dataset((32, 33)), aug, [0.5, 100.0], "dual_approx")
    assert beyond[-1].per_class_sigma == (1.0, 1.0)
    assert all(b.sigma >= a.sigma for a, b in zip(beyond, beyond[1:]))


def test_dual_approx_curve_is_monotone():
    ds = _blob_dataset(samples=10, seed=11, spread=0.5)
    aug = _identity_aug()
    deltas = np.linspace(0.05, 3.0, 9)
    curve = sigma_delta_curve(ds, aug, deltas, mode="dual_approx")
    sigmas = [c.sigma for c in curve]
    assert all(b >= a for a, b in zip(sigmas, sigmas[1:]))


def test_enrichment_with_baseline_never_decreases_sigma():
    ds = _blob_dataset(samples=9, seed=4, spread=0.5)
    lean = AugmentationSet(transforms=(identity(),), grid_resolution=3)
    rich = AugmentationSet(
        transforms=(identity(), additive_shift((0.2, 0.0))), grid_resolution=3
    )
    richer = AugmentationSet(
        transforms=(identity(), additive_shift((0.2, 0.0)), sign_flip_mask((1.0, -1.0))),
        grid_resolution=3,
    )
    delta = 0.45
    for mode in ("exact", "dual_approx"):
        prev = None
        prev_sigma = 0.0
        for aug in (lean, rich, richer):
            est = estimate_sigma(ds, aug, delta, mode=mode, baseline=prev)
            assert est.sigma >= prev_sigma - 1e-12
            prev, prev_sigma = est, est.sigma


def test_baseline_part_is_ignored_unless_it_is_a_clique_of_the_first_graph():
    # Both outside parts are larger than the search's singletons at delta
    # 0, and neither is a clique there: one is a whole class certified at a
    # larger delta, the other holds a sample of the other class.
    ds = _blob_dataset(samples=6)
    aug = _identity_aug()
    plain = estimate_sigma(ds, aug, 0.0, mode="exact")
    assert all(len(p) == 1 for p in plain.main_parts)
    wide = estimate_sigma(ds, aug, 10.0, mode="exact")
    assert wide.per_class_sigma == (1.0, 1.0)
    first, second = (ds.class_indices(k).tolist() for k in range(2))
    mixed = ConcentrationEstimate(
        delta=0.0,
        main_parts=(tuple(first[:5] + second[:1]), tuple(second[:1] + first[:5])),
        class_sizes=(6, 6),
        mode="exact",
    )
    for mode in ("exact", "dual_approx"):
        for baseline in (wide, mixed):
            est = estimate_sigma(ds, aug, 0.0, mode=mode, baseline=baseline)
            assert est.main_parts == plain.main_parts
            assert est.sigma == pytest.approx(1 / 6)


@pytest.mark.parametrize(
    "mode, node_budget",
    [("exact", None), ("dual_approx", APPROX_NODE_BUDGET), ("dual_approx", 1)],
)
def test_an_outside_part_is_kept_exactly_when_it_is_a_larger_clique_of_the_graph(
    monkeypatch, mode, node_budget
):
    # Per class, estimate_sigma returns the baseline's part where that part
    # lies in the class, is a clique of the threshold graph on
    # augmented_distance and is larger than the plain search's part, and
    # the plain part otherwise. A budget of one node leaves the approximate
    # search its first descent, so a larger outside clique is common there.
    if node_budget is not None:
        monkeypatch.setattr(concentration, "APPROX_NODE_BUDGET", node_budget)
    ds = _blob_dataset(samples=10, seed=7, spread=0.6)
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((0.3, 0.0))), grid_resolution=3
    )
    delta = 0.5
    plain = estimate_sigma(ds, aug, delta, mode=mode)
    class_ids = [ds.class_indices(k) for k in range(ds.num_classes)]
    graphs = [
        build_threshold_graph(
            np.array([[augmented_distance(ds.features[a], ds.features[b], aug) for b in ids]
                      for a in ids]),
            delta,
        )
        for ids in class_ids
    ]
    largest = [ids[list(exact_max_clique(g))] for ids, g in zip(class_ids, graphs)]
    rng = np.random.default_rng(17)
    kept = 0
    for _ in range(60):
        parts = []
        for k, ids in enumerate(class_ids):
            # Within the class's largest clique, within the class, or across classes.
            pool = (largest[k], ids, np.arange(ds.num_samples))[rng.integers(3)]
            part = rng.choice(pool, int(rng.integers(1, min(pool.size, ids.size) + 1)), False)
            parts.append(tuple(int(v) for v in (np.sort(part) if rng.random() < 0.5 else part)))
        baseline = ConcentrationEstimate(
            delta=delta, main_parts=tuple(parts), class_sizes=plain.class_sizes, mode=mode
        )
        est = estimate_sigma(ds, aug, delta, mode=mode, baseline=baseline)
        for k, (ids, part) in enumerate(zip(class_ids, parts)):
            local = [int(np.flatnonzero(ids == v)[0]) for v in part if v in ids]
            if (
                len(local) == len(part)
                and is_clique(graphs[k].adjacency, local)
                and len(part) > len(plain.main_parts[k])
            ):
                assert est.main_parts[k] == tuple(sorted(part))
                kept += 1
            else:
                assert est.main_parts[k] == plain.main_parts[k]
    # The exact search's part is a largest clique, and so is the approximate
    # one's at the full budget on these small classes; only the one-node
    # budget leaves a larger clique for the baseline.
    assert (kept > 0) == (node_budget == 1)


def test_estimate_rejects_inconsistent_construction():
    def build(parts, sizes):
        return ConcentrationEstimate(delta=0.5, main_parts=parts, class_sizes=sizes, mode="exact")

    with pytest.raises(ValueError, match="must align"):
        build(((0,),), (2, 2))
    with pytest.raises(ValueError, match="at least one class"):
        build((), ())
    with pytest.raises(ValueError, match="non-empty"):
        build(((0,), ()), (2, 2))
    with pytest.raises(ValueError, match="no larger than its class"):
        build(((0, 1, 2), (3,)), (2, 2))
    # A repeated member would read sigma 1 for a class of two from one sample.
    with pytest.raises(ValueError, match="main part of class 0 repeats a member"):
        build(((0, 0), (5,)), (2, 2))
    with pytest.raises(ValueError, match="main part of class 1 repeats a member"):
        build(((0,), (3, 4, 3)), (2, 3))
    est = build(((0,), (2, 3)), (2, 2))
    assert est.per_class_sigma == (0.5, 1.0)
    assert est.sigma == 0.5


class _Captured(Exception):
    """Raised in place of acceptance 09's sweep once its config is captured."""


def test_median_sigma_rises_with_richness_in_every_block_of_acceptance_09_seeds(monkeypatch):
    # The robust half of acceptance 09 (ROADMAP direction 18), over its seeds
    # 0-49 in ten blocks of five. Sigma depends only on the dataset seed and
    # the augmentation, so no level is trained. The config is captured from
    # acceptance 09 itself, as its sweep is about to run, so it cannot drift.
    configs = []

    def capture(config, out_dir):
        configs.append(config)
        raise _Captured

    monkeypatch.setattr(test_acceptance, "run_sweep", capture)
    with pytest.raises(_Captured):
        test_acceptance.test_09_richness_sweep_improves_sigma_and_error()
    (config,) = configs
    levels = experiments._sweep_levels(config, config.sweep)
    assert [label for label, _ in levels] == ["1", "2", "3"]
    sigmas = np.empty((50, len(levels)))
    for seed in range(50):
        dataset = generate_dataset(experiments.with_seed_override(config, seed).dataset)
        for i, (_, aug) in enumerate(levels):
            curve = sigma_delta_curve(dataset, aug, config.delta_grid, config.clique_mode)
            sigmas[seed, i] = curve[-1].sigma
    medians = np.median(sigmas.reshape(10, 5, len(levels)), axis=1)
    assert (np.diff(medians, axis=1) > 0).all(), medians
