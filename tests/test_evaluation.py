"""Centers, nearest-center classification, r_eps, population losses."""

import copy
import csv
import dataclasses
import math
import os
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from augbound import augment, encoder, evaluation, experiments
from augbound.augment import (
    AugmentationSet,
    additive_shift,
    coordinate_permutation,
    identity,
    rotation_2d,
    scaling,
    sign_flip_mask,
    view_tensor,
    view_weights,
)
from augbound.bounds import delta_mu
from augbound.core import Dataset, GeneratorConfig, generate_dataset
from augbound.encoder import forward_prenorm, init_encoder, with_params
from augbound.evaluation import (
    TILE_BYTES,
    class_centers,
    class_moments,
    classify_batch,
    embed_views,
    empirical_r_eps,
    population_loss,
)
from oracles import error_rate, forward, freeze, nn_classify

IDENTITY_ONLY = AugmentationSet(transforms=(identity(),), grid_resolution=3)


def _freeze(model, ds, aug):
    return freeze(model, view_tensor(ds.features, aug), view_weights(aug))


def _embedded(enc, ds, aug):
    # Freezes enc.model on (ds, aug) again: the same map as enc where both
    # are what enc was frozen on, and for every sphere model.
    return embed_views(enc.model, view_tensor(ds.features, aug), view_weights(aug))


def _scaled(embedded, r):
    """Unit-sphere embeddings scaled to the sphere of radius r, with the
    values that depend on the scale scaled with them."""
    z = r * embedded.z
    return dataclasses.replace(
        embedded, lipschitz=r * embedded.lipschitz, radius=r, z=z, means=r * embedded.means,
        sq_norms=np.sum(z**2, axis=2),
    )


def _views_embedded(z):
    """Embeddings (N, V, d) as an ``EmbeddedViews`` with uniform view weights."""
    weights = np.full(z.shape[1], 1.0 / z.shape[1])
    return evaluation.EmbeddedViews(
        lipschitz=1.0, radius=1.0, z=z, weights=weights,
        means=np.einsum("v,nvd->nd", weights, z), sq_norms=np.sum(z**2, axis=2),
    )


def _identity_sphere(dim=2):
    model = init_encoder(
        input_dim=dim, hidden_dims=(), output_dim=dim, norm_mode="sphere",
        radius=1.0, seed=0,
    )
    flat = np.concatenate([np.eye(dim).ravel(), np.zeros(dim)])
    return _freeze(
        with_params(model, flat),
        _tiny_dataset(),
        IDENTITY_ONLY,
    )


def _collapsed_sphere(dim=2, bias=(0.3, -0.4)):
    model = init_encoder(
        input_dim=dim, hidden_dims=(), output_dim=dim, norm_mode="sphere",
        radius=1.0, seed=0,
    )
    flat = np.concatenate([np.zeros(dim * dim), np.asarray(bias, dtype=float)])
    return _freeze(with_params(model, flat), _tiny_dataset(), IDENTITY_ONLY)


def _tiny_dataset():
    feats = np.array([[2.0, 0.0], [0.0, 3.0], [-1.0, -1.0], [4.0, 1.0]])
    return Dataset(features=feats, labels=np.array([0, 0, 1, 1]))


def _blobs(seed=0, spread=0.1):
    cfg = GeneratorConfig(
        num_classes=2,
        samples_per_class=12,
        cluster_centers=((-2.0, 0.0), (2.0, 0.0)),
        cluster_spread=spread,
        manifold="gaussian_blobs",
        seed=seed,
    )
    return generate_dataset(cfg)


def test_collapsed_encoder_centers_coincide():
    ds = _tiny_dataset()
    embedded = _embedded(_collapsed_sphere(), ds, IDENTITY_ONLY)
    centers = class_centers(embedded, ds)
    expected = np.array([0.6, -0.8])  # (0.3, -0.4) projected to the shell
    np.testing.assert_allclose(centers, [expected, expected], atol=1e-12)
    assert delta_mu(centers, embedded.radius) == pytest.approx(0.0, abs=1e-12)


def test_one_sample_per_class_center_is_the_embedding():
    feats = np.array([[3.0, 4.0], [-5.0, 12.0]])
    ds = Dataset(features=feats, labels=np.array([0, 1]))
    enc = _identity_sphere()
    centers = class_centers(_embedded(enc, ds, IDENTITY_ONLY), ds)
    np.testing.assert_allclose(centers, [[0.6, 0.8], [-5 / 13, 12 / 13]], atol=1e-12)


def test_center_is_the_weighted_view_mean():
    # identity + one continuous shift on a 3-point grid: weights are
    # 1/2 on the untransformed view and 1/6 on each grid view.
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((0.0, 2.0))), grid_resolution=3
    )
    np.testing.assert_allclose(view_weights(aug), [0.5, 1 / 6, 1 / 6, 1 / 6])
    x = np.array([2.0, 0.0])
    ds = Dataset(features=x[None, :], labels=np.array([0]))
    enc = _identity_sphere()
    centers = class_centers(_embedded(enc, ds, aug), ds)
    views = np.array([x, x + [0, 0], x + [0, 1.0], x + [0, 2.0]])
    unit = views / np.linalg.norm(views, axis=1, keepdims=True)
    expected = 0.5 * unit[0] + (unit[1] + unit[2] + unit[3]) / 6.0
    np.testing.assert_allclose(centers[0], expected, atol=1e-12)


def test_sign_flip_pair_center_cancels():
    aug = AugmentationSet(
        transforms=(identity(), sign_flip_mask((-1.0, -1.0))), grid_resolution=3
    )
    x = np.array([[0.6, 0.8]])
    ds = Dataset(features=x, labels=np.array([0]))
    embedded = _embedded(_identity_sphere(), ds, aug)
    centers = class_centers(embedded, ds)
    np.testing.assert_allclose(centers, [[0.0, 0.0]], atol=1e-12)
    assert delta_mu(centers, embedded.radius) == pytest.approx(1.0)


def test_nn_classify_picks_nearest_and_breaks_ties_low():
    centers = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    z = np.array([[-0.9, 0.1], [0.0, 0.0], centers[2]])  # the middle one is a three-way tie
    np.testing.assert_array_equal(classify_batch(centers, z), [1, 0, 2])
    assert [nn_classify(centers, row) for row in z] == [1, 0, 2]


def test_classifier_forms_agree():
    rng = np.random.default_rng(11)
    centers = rng.normal(size=(4, 3))
    z = rng.normal(size=(2_000, 3))
    scan = np.array([nn_classify(centers, row) for row in z])
    np.testing.assert_array_equal(classify_batch(centers, z), scan)


@pytest.mark.parametrize("dim", range(1, 13))
def test_classifier_and_spreads_match_their_cdist_forms(dim):
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(100 + dim)
    scale = 10.0 ** rng.uniform(-2, 2, dim)
    centers = rng.normal(size=(5, dim)) * scale
    z = rng.normal(size=(400, dim)) * scale
    np.testing.assert_array_equal(
        classify_batch(centers, z), np.argmin(cdist(z, centers, "sqeuclidean"), axis=1)
    )
    # 30 samples of 126 views take several half-TILE_BYTES batches of
    # ``augment._exact_extremes``.
    views = rng.normal(size=(30, 126, dim)) * scale
    expected = np.array([np.sqrt(max(cdist(x, x, "sqeuclidean").max(), 0.0)) for x in views])
    np.testing.assert_array_equal(evaluation._spreads(views), expected)
    # The grid decision at every sample's spread, and between spreads.
    grid = np.sort(np.concatenate([expected, expected * 0.999]))
    assert empirical_r_eps(_views_embedded(views), grid) == [
        float(np.mean(expected > eps)) for eps in grid
    ]


def test_error_rate_zero_one_and_recount():
    ds = _blobs(seed=5)
    enc = _identity_sphere()
    centers = class_centers(_embedded(enc, ds, IDENTITY_ONLY), ds)
    assert error_rate(enc, ds, centers) == 0.0
    assert error_rate(enc, ds, centers[::-1]) == 1.0
    # recount with the batched rule on the identity's views
    z = _embedded(enc, ds, IDENTITY_ONLY).z[:, 0]
    batched = np.mean(classify_batch(centers[::-1], z) != ds.labels)
    assert error_rate(enc, ds, centers[::-1]) == batched


def test_r_eps_collapsed_encoder_is_zero():
    ds = _tiny_dataset()
    enc = _collapsed_sphere()
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((1.0, 1.0))), grid_resolution=4
    )
    assert empirical_r_eps(_embedded(enc, ds, aug), (0.0, 0.1, 1.0)) == [0.0, 0.0, 0.0]


def test_r_eps_vanishes_beyond_the_diameter():
    ds = _blobs(seed=6)
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((0.0, 3.0))), grid_resolution=3
    )
    enc = _identity_sphere()
    assert empirical_r_eps(_embedded(enc, ds, aug), [2.0]) == [0.0]  # sphere diameter 2r


def test_r_eps_rejects_nan_epsilon():
    ds = _tiny_dataset()
    embedded = _embedded(_identity_sphere(), ds, IDENTITY_ONLY)
    for grid in ([float("nan")], [0.1, float("nan")], [0.1, -0.1], [-0.0, -1e-300]):
        with pytest.raises(ValueError, match="non-negative"):
            empirical_r_eps(embedded, grid)


def test_r_eps_hand_geometry():
    # Two samples on the x-axis; a vertical shift tilts each by a known
    # angle, so the embedded spread is the chord 2 sin(angle / 2).
    feats = np.array([[4.0, 0.0], [1.0, 0.0]])
    ds = Dataset(features=feats, labels=np.array([0, 1]))
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((0.0, 3.0))), grid_resolution=2
    )
    enc = _identity_sphere()
    angles = np.arctan2(3.0, feats[:, 0])
    chords = 2.0 * np.sin(angles / 2.0)
    embedded = _embedded(enc, ds, aug)
    np.testing.assert_allclose(evaluation._spreads(embedded.z), chords, atol=1e-12)
    threshold = float(chords.mean())  # between the two spreads
    assert empirical_r_eps(embedded, [0.0, threshold, 2.0]) == [1.0, 0.5, 0.0]


def test_r_eps_monotone_in_epsilon_and_grid():
    ds = _blobs(seed=7, spread=0.3)
    model = init_encoder(
        input_dim=2, hidden_dims=(4,), output_dim=2, norm_mode="sphere",
        radius=1.0, seed=8,
    )
    coarse = AugmentationSet(
        transforms=(identity(), additive_shift((0.2, 0.4))), grid_resolution=3
    )
    fine = AugmentationSet(
        transforms=(identity(), additive_shift((0.2, 0.4))), grid_resolution=5
    )
    enc = _freeze(model, ds, coarse)
    values = empirical_r_eps(_embedded(enc, ds, coarse), np.linspace(0, 1, 9))
    assert all(a >= b for a, b in zip(values, values[1:]))
    # the 5-point grid contains the 3-point grid, so spreads cannot shrink
    grid = (0.0, 0.05, 0.2)
    pairs = zip(
        empirical_r_eps(_embedded(enc, ds, fine), grid),
        empirical_r_eps(_embedded(enc, ds, coarse), grid),
    )
    assert all(f >= c for f, c in pairs)


def _spread_test_embeddings(kind, n, v, d, seed):
    """n samples of v views in d dimensions: unit-sphere rows, or rows
    standardized over all views. In every other sample the second half of
    the views reflects the first through one point (the origin on the
    sphere), so its spread is close to twice its largest distance from its
    view mean, where the upper bound of ``_spread_bounds`` is tightest."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, v, d)) * rng.uniform(0.05, 1.0, size=(n, 1, 1))
    center = np.zeros((n // 2, 1, d)) if kind == "sphere" else rng.normal(size=(n // 2, 1, d))
    z[::2, v - v // 2 :] = 2.0 * center - z[::2, : v // 2]
    if kind == "sphere":
        return z / np.linalg.norm(z, axis=2, keepdims=True)
    flat = z.reshape(n * v, d)
    return ((z - flat.mean(axis=0)) / flat.std(axis=0)).reshape(n, v, d)


@pytest.mark.parametrize("kind", ["sphere", "standardized"])
@pytest.mark.parametrize("v", [1, 4, 126])
@pytest.mark.parametrize("d", [1, 2, 8, 12])
def test_r_eps_decides_each_spread_and_its_neighbours_exactly(kind, v, d):
    z = _spread_test_embeddings(kind, 40, v, d, seed=100 * d + v)
    exact = evaluation._spreads(z)
    lo, hi = evaluation._spread_bounds(_views_embedded(z))
    assert (lo <= exact).all() and (exact <= hi).all()
    below, above = np.nextafter(exact, -np.inf), np.nextafter(exact, np.inf)
    grid = np.unique(np.concatenate([exact, below, above]))
    grid = grid[grid >= 0]
    for i in range(len(z)):
        # One sample at a time, so each fraction is that sample's decision.
        decided = empirical_r_eps(_views_embedded(z[i : i + 1]), grid)
        assert decided == [float(exact[i] > eps) for eps in grid]
    assert empirical_r_eps(_views_embedded(z), grid) == [
        float(np.mean(exact > eps)) for eps in grid
    ]


@pytest.mark.parametrize("kind", ["sphere", "standardized"])
def test_r_eps_takes_the_exact_spread_of_exactly_the_straddling_samples(monkeypatch, kind):
    z = _spread_test_embeddings(kind, 40, 26, 2, seed=7)
    embedded = _views_embedded(z)
    exact = evaluation._spreads(z)
    lo, hi = evaluation._spread_bounds(embedded)
    assert (lo <= exact).all() and (exact <= hi).all()
    # Thresholds at three samples' own spreads make those three straddle.
    grid = np.array([0.25, 1.0, *exact[[3, 10, 17]]])
    straddling = ((lo[:, None] <= grid) & (grid < hi[:, None])).any(axis=1).nonzero()[0]
    assert {3, 10, 17} <= set(straddling) and straddling.size < len(z)
    seen, exact_spreads = [], evaluation._spreads

    def recording(rows):
        seen.append(rows.copy())
        return exact_spreads(rows)

    monkeypatch.setattr(evaluation, "_spreads", recording)
    assert empirical_r_eps(embedded, grid) == [float(np.mean(exact > eps)) for eps in grid]
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], z[straddling])


# A view in [1, 2)^8 whose differences from the center -0.4999·2^-52 round
# down, as do enough of their squares and of their left-to-right sum that w
# falls 4.2u short of the real squared distance: found by a search over such
# views for one that the outward roundings of ρ's steps alone do not cover,
# so that ρ needs its factor 1 + (d + 3)·eps64.
_ROUNDS_DOWN = (
    1.6494732872757738, 1.1116904016311808, 1.5424816529661882, 1.4312348141987454,
    1.2132900211575606, 1.4823042059924636, 1.502641591270629, 1.047084628768191,
)


@pytest.mark.parametrize("d", range(1, 9))
def test_center_radius_bounds_every_exact_view_distance(d):
    # Centers of magnitude 2^-540 to 2^500 with views at 2^0 to 2^-30 of
    # it, so that some squares are subnormal or vanish, and two crafted
    # centers of v equal views. The first is 0, with views whose d squares,
    # each about 2.49·2^-1074, round down by 0.49·2^-1074 each: from d = 5
    # on, more than the outward roundings of ρ's steps make up, so that only
    # its 2^-1000 keeps ρ sound. The second is the center of
    # ``_ROUNDS_DOWN``. w is formed as each caller forms it: an einsum
    # (``augment._group_floor``) and ``_sqeuclidean``
    # (``evaluation._spread_bounds``).
    rng = np.random.default_rng(40 + d)
    n, v = 120, 5
    scale = np.ldexp(1.0, rng.integers(-540, 501, size=(n - 2, 1, 1)))
    centers = rng.standard_normal((n - 2, 1, d)) * scale
    offsets = np.ldexp(rng.standard_normal((n - 2, v, d)), -rng.integers(0, 31, size=(n - 2, v, 1)))
    crafted = np.stack([np.full(d, math.sqrt(2.49) * 2.0**-537), _ROUNDS_DOWN[:d]])
    z = np.concatenate([centers + offsets * scale, np.repeat(crafted[:, None], v, axis=1)])
    centers = np.concatenate([centers, [[np.zeros(d)], [np.full(d, -0.4999 * 2.0**-52)]]])
    gap = (z - centers).transpose(2, 0, 1)
    coords = np.ascontiguousarray(z.transpose(2, 0, 1))
    sums = (
        np.einsum("ijk,ijk->jk", gap, gap),
        augment._sqeuclidean(coords, centers.transpose(2, 0, 1)),
    )
    assert (sums[0] < 2.0**-1022).any() and (sums[0] > 2.0**900).any()
    for w in sums:
        rho = augment._center_radius(w.max(axis=1), d)
        for i in range(n):
            center = [Fraction(c) for c in centers[i, 0]]
            for view in z[i]:
                exact = sum((Fraction(a) - c) ** 2 for a, c in zip(view, center))
                assert Fraction(rho[i]) ** 2 >= exact
    lo, hi = evaluation._spread_bounds(dataclasses.replace(_views_embedded(z), means=centers[:, 0]))
    spreads = evaluation._spreads(z)
    assert (lo <= spreads).all() and (spreads <= hi).all()


def test_sphere_centers_respect_jensen():
    ds = _blobs(seed=9, spread=0.4)
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((0.0, 1.0))), grid_resolution=4
    )
    model = init_encoder(
        input_dim=2, hidden_dims=(5,), output_dim=3, norm_mode="sphere", seed=10
    )
    embedded = _scaled(_embedded(_freeze(model, ds, aug), ds, aug), 1.5)
    centers = class_centers(embedded, ds)
    norms = np.linalg.norm(centers, axis=1)
    assert (norms <= 1.5 + 1e-9).all()
    assert embedded.radius == 1.5
    assert 0.0 <= delta_mu(centers, embedded.radius) <= 1.0


def test_class_moments_match_direct_loop():
    ds = _blobs(seed=12)
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((0.3, 0.1))), grid_resolution=3
    )
    model = init_encoder(
        input_dim=2, hidden_dims=(4,), output_dim=2, norm_mode="sphere",
        radius=1.0, seed=13,
    )
    enc = _freeze(model, ds, aug)
    centers = class_centers(_embedded(enc, ds, aug), ds)
    first, second = class_moments(_embedded(enc, ds, aug), ds, centers)
    weights = view_weights(aug)
    for k in range(ds.num_classes):
        acc1, acc2, count = 0.0, 0.0, 0
        for i in ds.class_indices(k):
            views = view_tensor(ds.features[i], aug)[0]
            z = enc.embed(views)
            dist = np.linalg.norm(z - centers[k], axis=1)
            acc1 += float(weights @ dist)
            acc2 += float(weights @ dist**2)
            count += 1
        assert first[k] == pytest.approx(acc1 / count, abs=1e-12)
        assert second[k] == pytest.approx(acc2 / count, abs=1e-12)
    # collapsed encoder has zero moments
    collapsed = _collapsed_sphere()
    ccenters = class_centers(_embedded(collapsed, ds, aug), ds)
    cfirst, csecond = class_moments(_embedded(collapsed, ds, aug), ds, ccenters)
    np.testing.assert_allclose(cfirst, 0.0, atol=1e-12)
    np.testing.assert_allclose(csecond, 0.0, atol=1e-12)


def test_frozen_standardization_is_exact_under_view_weights():
    ds = _blobs(seed=14)
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((0.0, 0.7))), grid_resolution=3
    )
    model = init_encoder(
        input_dim=2, hidden_dims=(6,), output_dim=3, norm_mode="batch_standardized",
        radius=1.0, seed=15,
    )
    enc = _freeze(model, ds, aug)
    embedded = _embedded(enc, ds, aug)
    assert embedded.radius == np.sqrt(3.0)
    views = view_tensor(ds.features, aug)
    n, v, _ = views.shape
    z = enc.embed(views.reshape(n * v, -1))
    np.testing.assert_array_equal(embedded.z, z.reshape(n, v, -1))
    w = np.tile(view_weights(aug), n) / n
    np.testing.assert_allclose(w @ z, 0.0, atol=1e-10)
    np.testing.assert_allclose(w @ z**2, 1.0, atol=1e-10)


def test_frozen_lipschitz_covers_view_pairs():
    ds = _blobs(seed=16)
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((0.0, 0.7))), grid_resolution=3
    )
    model = init_encoder(
        input_dim=2, hidden_dims=(4,), output_dim=2, norm_mode="batch_standardized",
        radius=1.0, seed=17,
    )
    enc = _freeze(model, ds, aug)
    bound = _embedded(enc, ds, aug).lipschitz
    views = view_tensor(ds.features, aug).reshape(-1, 2)
    z = enc.embed(views)
    rng = np.random.default_rng(18)
    i = rng.integers(0, len(views), 5000)
    j = rng.integers(0, len(views), 5000)
    keep = i != j
    num = np.linalg.norm(z[i[keep]] - z[j[keep]], axis=1)
    den = np.linalg.norm(views[i[keep]] - views[j[keep]], axis=1)
    assert (num <= bound * den + 1e-9).all()


def test_frozen_lipschitz_rounds_its_quotient_up(monkeypatch):
    # L times 2 (or 1) over c, against the exact quotient of the floats
    # it was built from; L is set to values a float quotient rounds.
    mins = []

    def recording_norm_forward(model, pre, sums):
        flat, scales = encoder._norm_forward(model, pre, sums)
        mins.append(float(scales.min()))
        return flat, scales

    monkeypatch.setattr(evaluation, "_norm_forward", recording_norm_forward)
    rng = np.random.default_rng(19)
    below = 0
    for k in range(40):
        norm_mode = ("sphere", "batch_standardized")[k % 2]
        model = init_encoder(
            input_dim=2, hidden_dims=(3,), output_dim=2, norm_mode=norm_mode,
            radius=1.0, seed=k,
        )
        layer_product = float(rng.uniform(0.5, 3.0))
        monkeypatch.setattr(evaluation, "lipschitz_upper_bound", lambda _: layer_product)
        lipschitz = embed_views(model, rng.normal(size=(6, 3, 2)), np.full(3, 1.0 / 3.0)).lipschitz
        factor = 2 if norm_mode == "sphere" else 1
        exact = Fraction(layer_product) * factor / Fraction(mins[-1])
        assert Fraction(lipschitz) >= exact
        below += Fraction(layer_product * factor / mins[-1]) < exact
    assert below  # the plain float quotient falls short for some


def _brute_population_info_nce(enc, ds, aug):
    weights = view_weights(aug)
    n = ds.num_samples
    all_z = [enc.embed(view_tensor(ds.features[i], aug)[0]) for i in range(n)]
    l1_acc, l2_acc = 0.0, 0.0
    for i in range(n):
        zi = all_z[i]
        for a, wa in enumerate(weights):
            for b, wb in enumerate(weights):
                l1_acc += wa * wb * 0.5 * np.sum((zi[a] - zi[b]) ** 2) / n
                for j in range(n):
                    for c, wc in enumerate(weights):
                        l2_acc += (
                            wa
                            * wb
                            * wc
                            * np.logaddexp(zi[a] @ zi[b], zi[a] @ all_z[j][c])
                            / (n * n)
                        )
    return l1_acc - 1.0, l2_acc


def test_population_info_nce_matches_brute_force():
    feats = np.array([[2.0, 0.3], [-1.0, 1.0], [0.5, -2.0]])
    ds = Dataset(features=feats, labels=np.array([0, 1, 1]))
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((0.0, 0.5))), grid_resolution=2
    )
    model = init_encoder(
        input_dim=2, hidden_dims=(3,), output_dim=2, norm_mode="sphere",
        radius=1.0, seed=19,
    )
    enc = _freeze(model, ds, aug)
    got = population_loss(_embedded(enc, ds, aug), "info_nce")
    l1, l2 = _brute_population_info_nce(enc, ds, aug)
    assert got.l1 == pytest.approx(l1, abs=1e-10)
    assert got.l2 == pytest.approx(l2, abs=1e-10)
    assert got.total == pytest.approx(l1 + l2, abs=1e-10)


def _logaddexp_population_l2(enc, ds, aug, r=1.0):
    """The InfoNCE divergence term as one logaddexp per pair term, on the
    embeddings of ``enc`` scaled by r."""
    weights = view_weights(aug)
    views = view_tensor(ds.features, aug)
    n, v, _ = views.shape
    z = r * enc.embed(views.reshape(n * v, -1)).reshape(n, v, -1)
    flat = z.reshape(n * v, -1)
    w_neg = np.tile(weights, n) / n
    pair_w = np.outer(weights, weights).ravel()
    l2 = 0.0
    for i in range(n):
        pos = (z[i] @ z[i].T).ravel()
        neg = z[i] @ flat.T
        terms = np.logaddexp(pos[:, None], np.repeat(neg, v, axis=0))
        l2 += pair_w @ terms @ w_neg
    return float(l2 / n)


MIXED_AUG = AugmentationSet(
    transforms=(
        identity(),
        sign_flip_mask((-1.0, 1.0)),
        coordinate_permutation((1, 0)),
        additive_shift((0.0, 0.5)),
        additive_shift((0.3, 0.0)),
    ),
    grid_resolution=4,
)


def _sphere_on(ds, aug, seed=25):
    model = init_encoder(
        input_dim=2, hidden_dims=(4,), output_dim=3, norm_mode="sphere", seed=seed
    )
    return _freeze(model, ds, aug)


def test_population_info_nce_tiles_match_logaddexp():
    ds = _blobs(seed=26, spread=0.5)
    n, v = ds.num_samples, MIXED_AUG.num_views
    # Rows to a tile as the kernel sizes them: 160 on one worker, 80 on two.
    rows_per_tile = TILE_BYTES // evaluation._WORKERS // _row_bytes(n, v)
    assert -(-n * v // rows_per_tile) >= 3  # several tiles
    enc = _sphere_on(ds, MIXED_AUG)
    got = population_loss(_embedded(enc, ds, MIXED_AUG), "info_nce")
    assert abs(got.l2 - _logaddexp_population_l2(enc, ds, MIXED_AUG)) <= 1e-12
    assert got.total == got.l1 + got.l2


def test_population_info_nce_peak_memory_is_one_tile():
    cfg = GeneratorConfig(
        num_classes=2,
        samples_per_class=24,
        cluster_centers=((-2.0, 0.0), (2.0, 0.0)),
        cluster_spread=0.3,
        manifold="gaussian_blobs",
        seed=27,
    )
    ds = generate_dataset(cfg)
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((0.0, 0.5)), additive_shift((0.4, 0.0))),
        grid_resolution=5,
    )
    n, v = ds.num_samples, aug.num_views
    enc = _sphere_on(ds, aug)
    # The logaddexp formula holds two (V^2, N V) float64 arrays per sample.
    per_sample_pairs = 2 * v**3 * n * 8
    # One tile plus O(N V d) for the views, activations and embeddings.
    budget = TILE_BYTES + 64 * n * v * 8
    assert per_sample_pairs > 4 * budget
    tracemalloc.start()
    try:
        population_loss(_embedded(enc, ds, aug), "info_nce")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget


def _per_tile_info_nce_l2(z, weights):
    """The divergence term of a job that fits one tile, on the unit sphere:
    scores summed left to right over the coordinates, then per anchor row
    (i, a), positive view b and negative view c one product over all N
    negative samples (one group), one log of it, and the row's weighted
    logs in one row sum."""
    n, v, d = z.shape
    flat = z.reshape(n * v, d)
    scores = flat[:, None, 0] * flat[None, :, 0]
    for k in range(1, d):
        scores = scores + flat[:, None, k] * flat[None, :, k]
    shift = scores.max(axis=1)
    q = np.exp(scores - shift[:, None]).reshape(n * v, n, v)
    anchor = np.arange(n * v)
    pos = q[anchor, anchor // v]
    # factors[row, j, b, c] = p_b + q_jc, multiplied over j in order.
    factors = pos[:, None, :, None] + q[:, :, None, :]
    logs = np.log(np.prod(factors, axis=1)).reshape(n * v, v * v)
    per_row = (logs * np.outer(weights, weights / n).ravel()).sum(axis=1)
    return float(np.tile(weights, n) @ (per_row + shift) / n)


def _row_bytes(n, v, groups=1):
    """Bytes the kernel holds per anchor row: N·V exponentials, a scratch of
    max(N·V, V²), and V² each for the positives, the log sum and, with more
    than one group of negative samples, the product."""
    return 8 * (n * v + max(n * v, v * v) + (3 if groups > 1 else 2) * v * v)


def _embeddings(enc, ds, aug):
    views = view_tensor(ds.features, aug)
    n, v, _ = views.shape
    return enc.embed(views.reshape(n * v, -1)).reshape(n, v, -1), view_weights(aug)


@pytest.mark.parametrize("workers", [1, 2])
def test_population_info_nce_of_one_tile_matches_the_per_tile_sum_bit_for_bit(
    split_workers, workers
):
    # 24 samples x 7 views fill 0.58 MB of one TILE_BYTES // 2 tile.
    started = split_workers(workers)
    ds = _blobs(seed=26, spread=0.5)
    aug = AugmentationSet(
        transforms=(identity(), sign_flip_mask((-1.0, 1.0)), additive_shift((0.0, 0.5))),
        grid_resolution=5,
    )
    n, v = ds.num_samples, aug.num_views
    assert n * v * _row_bytes(n, v) <= TILE_BYTES // 2
    enc = _sphere_on(ds, aug)
    got = population_loss(_embedded(enc, ds, aug), "info_nce")
    assert got.l2 == _per_tile_info_nce_l2(*_embeddings(enc, ds, aug))
    assert started == []


def test_population_info_nce_does_not_depend_on_workers_or_tiling(monkeypatch, split_workers):
    ds = _blobs(seed=26, spread=0.5)
    n, v = ds.num_samples, MIXED_AUG.num_views
    row_bytes = _row_bytes(n, v)
    enc = _sphere_on(ds, MIXED_AUG)
    # One row per tile; 7 rows (3 with two workers), the last tile short;
    # the default budget; and the whole job in one tile, which runs inline.
    budgets = (row_bytes, 7 * row_bytes + row_bytes // 2, TILE_BYTES, 2 * n * v * row_bytes)
    l2 = set()
    for workers in (1, 2):
        started = split_workers(workers)
        for tile_bytes in budgets:
            monkeypatch.setattr(evaluation, "TILE_BYTES", tile_bytes)
            l2.add(population_loss(_embedded(enc, ds, MIXED_AUG), "info_nce").l2)
    assert len(l2) == 1
    # A helper thread for each multi-tile budget with two workers.
    assert len(started) == 3


def test_population_info_nce_peak_memory_holds_with_two_workers(split_workers):
    # The same scenario and bound with the tiles split between two threads,
    # whatever the CPU count of the host running the tests.
    started = split_workers(2)
    test_population_info_nce_peak_memory_is_one_tile()
    assert len(started) == 1


class _Injected(Exception):
    pass


@pytest.mark.parametrize("fail_in_helper", [True, False])
def test_population_info_nce_error_in_either_share_propagates_after_the_join(
    monkeypatch, split_workers, fail_in_helper
):
    split_workers(2)
    ds = _blobs(seed=26, spread=0.5)
    enc = _sphere_on(ds, MIXED_AUG)
    baseline = threading.active_count()
    caller = threading.current_thread()
    calls = []
    log = np.log

    def log_failing_on_third_tile(*args, **kwargs):
        # Only the tile loop passes ``out``.
        if "out" in kwargs:
            in_helper = threading.current_thread() is not caller
            if in_helper == fail_in_helper:
                calls.append(None)
                if len(calls) == 3:
                    raise _Injected("third tile")
            else:
                # The other share is still running when the error is raised.
                time.sleep(0.005)
        return log(*args, **kwargs)

    monkeypatch.setattr(np, "log", log_failing_on_third_tile)
    with pytest.raises(_Injected, match="third tile"):
        population_loss(_embedded(enc, ds, MIXED_AUG), "info_nce")
    assert threading.active_count() == baseline


def test_run_split_gives_every_item_to_exactly_one_thread(split_workers):
    started = split_workers(2)
    items = range(2001)
    hits = np.zeros(len(items), dtype=np.int64)
    caller = threading.current_thread()
    owners = {}

    def work(share, workspace):
        for i in share:
            hits[i] += 1
        owners[threading.current_thread() is caller] = (share, workspace)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        evaluation._run_split(work, items, ["first", "second"])
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == 1
    np.testing.assert_array_equal(hits, 1)
    # Each share writes into its own workspace, the calling thread's the first.
    assert owners == {True: (items[0::2], "first"), False: (items[1::2], "second")}


def test_run_split_helper_keeps_the_callers_error_state(split_workers):
    started = split_workers(2)
    caller = threading.current_thread()

    def work(share, workspace):
        if threading.current_thread() is not caller:
            np.divide(np.ones(1), np.zeros(1))  # a floating-point event in the helper's share

    with np.errstate(all="raise"):
        with pytest.raises(FloatingPointError, match="divide by zero"):
            evaluation._run_split(work, range(4), [None, None])
    assert len(started) == 1


def test_usable_cpus_reads_the_affinity_mask_else_the_cpu_count(monkeypatch):
    assert evaluation._WORKERS == min(2, evaluation._usable_cpus())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert evaluation._usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert evaluation._usable_cpus() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert evaluation._usable_cpus() == 1


def test_population_info_nce_rejects_exponent_underflow():
    ds = _blobs(seed=28)
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((0.0, 0.5))), grid_resolution=3
    )
    enc = _sphere_on(ds, aug)
    unit = _embedded(enc, ds, aug)
    # 2 r^2 = 648 keeps exp of every shifted score a normal float64.
    got = population_loss(_scaled(unit, 18.0), "info_nce")
    assert got.l2 == pytest.approx(_logaddexp_population_l2(enc, ds, aug, 18.0), rel=1e-12)
    # 2 r^2 = 722 does not.
    with pytest.raises(ValueError, match="max"):
        population_loss(_scaled(unit, 19.0), "info_nce")


def _ring_embedded(radius, grid_resolution):
    """The ring_pairs task (14 samples per class, identity plus a rotation
    and a scaling: 26 views at grid 5) under a linear sphere encoder to 2-d,
    its embeddings scaled to the sphere of the given radius."""
    ds = generate_dataset(
        GeneratorConfig(
            num_classes=2,
            samples_per_class=14,
            cluster_centers=((2.0, 0.0, 1.0), (2.0, 0.0, -1.0)),
            cluster_spread=3.2,
            manifold="ring_segments",
            seed=0,
            disjoint_classes=False,
        )
    )
    aug = AugmentationSet(
        transforms=(identity(), rotation_2d((0, 1), 1.4, 2.0), scaling(0.85, 1.15, 2.0)),
        grid_resolution=grid_resolution,
    )
    model = init_encoder(input_dim=3, hidden_dims=(), output_dim=2, norm_mode="sphere", seed=0)
    return _scaled(embed_views(model, view_tensor(ds.features, aug), view_weights(aug)), radius)


def _long_double_population_l2(z, weights):
    """The InfoNCE divergence term in long double with one log per pair
    term, logaddexp(P, Q) = s + log(exp(P - s) + exp(Q - s)) for s the
    anchor's largest score."""
    assert np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
    n, v, d = z.shape
    flat = z.reshape(n * v, d).astype(np.longdouble)
    w = weights.astype(np.longdouble)
    w_neg = np.tile(w, n) / n
    l2 = np.longdouble(0)
    for i in range(n):
        scores = flat[i * v : (i + 1) * v] @ flat.T
        shift = scores.max(axis=1)
        e = np.exp(scores - shift[:, None])
        pos = e[:, i * v : (i + 1) * v]
        terms = np.log(pos[:, :, None] + e[:, None, :])
        l2 += w @ ((terms @ w_neg) @ w + shift)
    return l2 / n


@pytest.mark.parametrize(
    "radius, grid_resolution, groups", [(1.0, 5, 1), (6.0, 3, 4), (18.0, 3, 28)]
)
def test_population_info_nce_is_within_its_rounding_bound_of_a_long_double_oracle(
    radius, grid_resolution, groups
):
    # The ring_pairs shape N = 28, V = 26 on the unit sphere, one group of
    # all 28 samples; then N = 28, V = 10 at radius 6, groups of g = 9
    # (9, 9, 9, 1), and at radius 18, g = 1: a log per pair term.
    embedded = _ring_embedded(radius, grid_resolution)
    n = embedded.z.shape[0]
    span = 2.0 * embedded.sq_norms.max()
    g = min(n, int(-evaluation._EXP_FLOOR // max(span, 1.0)))
    assert n == 28 and -(-n // g) == groups
    got = population_loss(embedded, "info_nce").l2
    oracle = _long_double_population_l2(embedded.z, embedded.weights)
    assert abs(got - oracle) <= 2 * n * 2.0**-53 * max(1.0, abs(oracle))


@pytest.mark.parametrize("radius, groups, rows, tiles", [(1.0, 1, 46, 16), (6.0, 4, 37, 20)])
def test_population_info_nce_tile_sets_hold_a_product_only_past_one_group(
    monkeypatch, split_workers, radius, groups, rows, tiles
):
    # The ring_pairs shape, N = 28 and V = 26. Each share's set holds, R rows
    # each, the exponentials, the scratch, the positives and the log sums;
    # with several groups (radius 6, g = 9) the product too, and l2 stays
    # within the long-double oracle's bound. R fits _row_bytes in half a tile.
    split_workers(2)
    embedded = _ring_embedded(radius, 5)
    n, v, _ = embedded.z.shape
    assert rows == TILE_BYTES // 2 // _row_bytes(n, v, groups)
    handed = []
    run_split = evaluation._run_split

    def watched_split(work, items, workspaces):
        handed.append((items, workspaces))
        run_split(work, items, workspaces)

    monkeypatch.setattr(evaluation, "_run_split", watched_split)
    got = population_loss(embedded, "info_nce").l2
    ((items, workspaces),) = handed
    assert items == range(0, n * v, rows) and len(items) == tiles
    floats = [n * v, max(n * v, v * v), v * v, v * v] + [v * v] * (groups > 1)
    assert len(workspaces) == 2
    for workspace in workspaces:
        assert [buf.size for buf in workspace] == [rows * size for size in floats]
    oracle = _long_double_population_l2(embedded.z, embedded.weights)
    assert abs(got - oracle) <= 2 * n * 2.0**-53 * max(1.0, abs(oracle))


def test_population_info_nce_refuses_nan_embeddings_before_any_tile(monkeypatch):
    embedded = _ring_embedded(1.0, 3)
    z = embedded.z.copy()
    z[3, 1, 0] = np.nan
    nan = dataclasses.replace(embedded, z=z, sq_norms=np.sum(z**2, axis=2))

    def no_tiles(work, items, workspaces):
        raise AssertionError("a tile ran")

    monkeypatch.setattr(evaluation, "_run_split", no_tiles)
    with pytest.raises(ValueError, match="max"):
        population_loss(nan, "info_nce")


def test_population_info_nce_peak_memory_at_the_ring_pairs_shape_with_two_workers(
    split_workers,
):
    started = split_workers(2)
    embedded = _ring_embedded(1.0, 5)
    n, v, d = embedded.z.shape
    # The job's rows fill more than 15 tiles of TILE_BYTES // 2 (15.6 MiB in all).
    assert n * v * _row_bytes(n, v) > 15 * (TILE_BYTES // 2)
    tracemalloc.start()
    try:
        population_loss(embedded, "info_nce")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Two tiles of TILE_BYTES // 2 in flight, plus O(N V d): the per-row
    # log sums and shifts, the tiled weights and numpy's ufunc buffers.
    assert peak < TILE_BYTES + 32 * n * v * d * 8
    assert len(started) == 1


def test_population_info_nce_tiles_are_the_callers_and_start_on_cache_lines(
    monkeypatch, split_workers
):
    # The ring_pairs shape spans several tiles, split between the calling
    # thread and one helper; the helper allocates no tile buffer, and each
    # share gets its own set, every buffer on a 64-byte boundary.
    started = split_workers(2)
    embedded = _ring_embedded(1.0, 5)
    caller = threading.current_thread()
    in_helper = []
    empty = np.empty

    def watched_empty(*args, **kwargs):
        if threading.current_thread() is not caller:
            in_helper.append(args)
        return empty(*args, **kwargs)

    handed = []
    run_split = evaluation._run_split

    def watched_split(work, items, workspaces):
        handed.extend(workspaces)
        run_split(work, items, workspaces)

    monkeypatch.setattr(np, "empty", watched_empty)
    monkeypatch.setattr(evaluation, "_run_split", watched_split)
    population_loss(embedded, "info_nce")
    assert len(started) == 1 and in_helper == []
    assert len(handed) == 2
    buffers = [buf for workspace in handed for buf in workspace]
    assert all(buf.ctypes.data % 64 == 0 for buf in buffers)
    assert all(sum(buf.nbytes for buf in workspace) <= TILE_BYTES // 2 for workspace in handed)
    for i, first in enumerate(buffers):
        assert not any(np.shares_memory(first, second) for second in buffers[i + 1 :])


@pytest.mark.parametrize("workers", [1, 2])
def test_population_info_nce_is_the_same_on_buffers_off_the_cache_line(
    monkeypatch, split_workers, workers
):
    # Every tile buffer moved to 8 bytes past a cache line gives l2 bit for bit.
    split_workers(workers)
    embedded = _ring_embedded(1.0, 5)
    aligned = population_loss(embedded, "info_nce").l2
    run_split = evaluation._run_split

    def off_by_8(buf):
        raw = np.empty(buf.size + 8)
        skip = (8 - raw.ctypes.data) % 64 // 8
        moved = raw[skip : skip + buf.size]
        assert moved.ctypes.data % 64 == 8
        return moved

    def split_off_by_8(work, items, workspaces):
        run_split(work, items, [[off_by_8(buf) for buf in ws] for ws in workspaces])

    monkeypatch.setattr(evaluation, "_run_split", split_off_by_8)
    assert population_loss(embedded, "info_nce").l2 == aligned


@pytest.mark.parametrize("workers, helpers", [(2, 1), (1, 0)])
def test_population_info_nce_of_two_half_tiles_matches_the_per_tile_sum(
    split_workers, workers, helpers
):
    # 28 samples x 10 views need 1.62 MiB: one TILE_BYTES tile, but two of
    # TILE_BYTES // 2, which split between two threads where two may run.
    started = split_workers(workers)
    embedded = _ring_embedded(1.0, 3)
    n, v, _ = embedded.z.shape
    assert (n, v) == (28, 10)
    assert TILE_BYTES // 2 < n * v * _row_bytes(n, v) <= TILE_BYTES
    assert population_loss(embedded, "info_nce").l2 == _per_tile_info_nce_l2(
        embedded.z, embedded.weights
    )
    assert len(started) == helpers


def test_population_info_nce_does_not_depend_on_the_tiling_on_random_shapes(
    monkeypatch, split_workers
):
    # A BLAS product's rounding changes with the block shape: with each
    # tile's scores taken as one matrix product, the radius-18 shape here
    # gave two values.
    rng = np.random.default_rng(30)
    for radius in (1.0, 1.0, 3.0, 6.0, 18.0, 1.0, 1.0, 6.0):
        n, v, d = (int(x) for x in rng.integers((2, 1, 2), (30, 30, 5)))
        z = rng.standard_normal((n, v, d))
        z *= radius / np.linalg.norm(z, axis=2, keepdims=True)
        weights = rng.random(v)
        weights /= weights.sum()
        span = 2.0 * float(np.max(np.sum(z**2, axis=2)))
        g = min(n, int(-evaluation._EXP_FLOOR // max(span, 1.0)))
        row_bytes = _row_bytes(n, v, -(-n // g))
        l2 = set()
        for workers in (1, 2):
            split_workers(workers)
            for tile_bytes in (row_bytes, 3 * row_bytes, 20 * row_bytes + 8, n * v * row_bytes):
                monkeypatch.setattr(evaluation, "TILE_BYTES", tile_bytes)
                l2.add(evaluation._info_nce_divergence(z, weights, span))
        assert len(l2) == 1, (n, v, d, radius)


def test_empirical_r_eps_embeds_the_grid_once(monkeypatch):
    ds = _blobs(seed=29)
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((0.0, 0.5))), grid_resolution=3
    )
    enc = _sphere_on(ds, aug)
    calls = []

    def counting(model, x):
        calls.append(x.shape[0])
        return forward_prenorm(model, x)

    monkeypatch.setattr(evaluation, "forward_prenorm", counting)
    embedded = _embedded(enc, ds, aug)
    exact = evaluation._spreads(embedded.z)
    thresholds = np.quantile(exact, [0.25, 0.5, 0.75])
    r_eps = empirical_r_eps(embedded, thresholds)
    assert calls == [ds.num_samples * aug.num_views]
    # Spreads recomputed per sample from every pair of view embeddings.
    spreads = np.array(
        [max(np.linalg.norm(a - b) for a in zi for b in zi) for zi in embedded.z]
    )
    np.testing.assert_allclose(exact, spreads, atol=1e-12)
    assert r_eps == [float(np.mean(exact > eps)) for eps in thresholds]


_STAGE_CONFIG = {
    "dataset": {
        "num_classes": 2,
        "samples_per_class": 5,
        "cluster_centers": [[-2.0, 0.0], [2.0, 0.0]],
        "cluster_spread": 0.2,
        "manifold": "gaussian_blobs",
        "seed": 3,
    },
    "augmentation": {
        "grid_resolution": 3,
        "transforms": [
            {"rule": "identity"},
            {"rule": "sign_flip_mask", "signs": [1.0, -1.0]},
            {"rule": "additive_shift", "direction": [0.0, 0.3]},
        ],
    },
    "encoder": {"hidden_dims": [4], "output_dim": 2, "radius": 1.0, "seed": 4},
    "training": {"steps": 5, "batch_size": 4, "learning_rate": 0.05, "seed": 5},
    "analysis": {
        "delta_grid": [0.5, 1.0],
        "epsilon_grid": [0.05, 0.1, 0.2, 0.4],
        "clique_mode": "exact",
    },
}


@pytest.mark.parametrize(
    "loss, norm_mode", [("info_nce", "sphere"), ("cross_corr", "batch_standardized")]
)
def test_stage_evaluate_builds_and_embeds_the_view_grid_once(
    monkeypatch, tmp_path, loss, norm_mode
):
    raw = copy.deepcopy(_STAGE_CONFIG)
    raw["encoder"]["norm_mode"] = norm_mode
    raw["training"]["loss"] = loss
    config = experiments.config_from_dict(raw)
    ds = experiments.stage_dataset(config, str(tmp_path))
    model, _ = experiments.stage_train(config, ds, str(tmp_path))
    curve = experiments.stage_concentration(config, ds, str(tmp_path))

    tensors = []
    grids = []
    prenorm_rows = []

    def counting_view_tensor(points, aug):
        tensors.append(len(points))
        return view_tensor(points, aug)

    def counting_embed_views(model, views, weights):
        grids.append(views.shape[0] * views.shape[1])
        return embed_views(model, views, weights)

    def counting_forward_prenorm(model, x):
        prenorm_rows.append(x.shape[0])
        return forward_prenorm(model, x)

    for module in (augment, evaluation, experiments):
        if getattr(module, "view_tensor", None) is view_tensor:
            monkeypatch.setattr(module, "view_tensor", counting_view_tensor)
    for module in (encoder, evaluation, experiments):
        if getattr(module, "forward_prenorm", None) is forward_prenorm:
            monkeypatch.setattr(module, "forward_prenorm", counting_forward_prenorm)
    monkeypatch.setattr(experiments, "embed_views", counting_embed_views)
    record = experiments.stage_evaluate(config, ds, model, curve, str(tmp_path))

    n, v = ds.num_samples, config.augmentation.num_views
    assert tensors == [n]
    assert grids == [n * v]
    # The network runs once, over the view grid; the raw samples' embeddings
    # are the identity's views.
    assert prenorm_rows == [n * v]
    assert [key for key in record if key.startswith("r_eps.")] == [
        "r_eps.0.05", "r_eps.0.1", "r_eps.0.2", "r_eps.0.4"
    ]
    monkeypatch.undo()
    # The shared grid gives what each quantity computes from the model alone.
    views = view_tensor(ds.features, config.augmentation)
    weights = view_weights(config.augmentation)
    frozen = freeze(model, views, weights)
    z = frozen.embed(views.reshape(n * v, -1)).reshape(n, v, -1)
    per_sample = np.einsum("v,nvd->nd", weights, z)
    centers = np.stack([per_sample[ds.labels == k].mean(axis=0) for k in range(ds.num_classes)])
    assert record["err"] == error_rate(frozen, ds, centers)
    for k in range(ds.num_classes):
        norm = np.linalg.norm(centers[k])
        assert record[f"center_norm.class_{k}"] == pytest.approx(norm, abs=1e-12)
    assert record["mu_product.0_1"] == pytest.approx(centers[0] @ centers[1], abs=1e-12)


@pytest.mark.parametrize(
    "loss, norm_mode, radius",
    [
        ("info_nce", "sphere", 1.0),
        ("simple", "sphere", 1.0),
        ("cross_corr", "batch_standardized", math.sqrt(3.0)),
    ],
)
def test_the_radius_row_of_evaluation_csv_is_one_on_the_sphere_and_sqrt_d_standardized(
    tmp_path, loss, norm_mode, radius
):
    # embed_views sets r, and encoder._check_pairing holds the sphere losses
    # to radius 1; the bounds read r from this row.
    raw = copy.deepcopy(_STAGE_CONFIG)
    raw["encoder"].update(norm_mode=norm_mode, output_dim=3)
    raw["training"]["loss"] = loss
    experiments.run_experiment(experiments.config_from_dict(raw), str(tmp_path))
    with open(tmp_path / "evaluation.csv", newline="") as fh:
        rows = dict(csv.reader(fh))
    assert rows["radius"] == repr(radius)


def test_population_cross_corr_matches_direct_moments():
    ds = _blobs(seed=20)
    aug = AugmentationSet(
        transforms=(identity(), additive_shift((0.4, 0.0))), grid_resolution=3
    )
    model = init_encoder(
        input_dim=2, hidden_dims=(4,), output_dim=2, norm_mode="batch_standardized",
        radius=1.0, seed=21,
    )
    enc = _freeze(model, ds, aug)
    lam = 0.3
    got = population_loss(_embedded(enc, ds, aug), "cross_corr", lam=lam)
    weights = view_weights(aug)
    means = np.stack(
        [
            weights @ enc.embed(view_tensor(ds.features[i], aug)[0])
            for i in range(ds.num_samples)
        ]
    )
    f = means.T @ means / ds.num_samples
    l1 = float(np.sum((1.0 - np.diag(f)) ** 2))
    l2 = float(np.sum((f - np.eye(2)) ** 2))
    assert got.l1 == pytest.approx(l1, abs=1e-12)
    assert got.l2 == pytest.approx(l2, abs=1e-12)
    assert got.total == pytest.approx((1 - lam) * l1 + lam * l2, abs=1e-12)


def test_population_simple_antipodal_pair_has_zero_mean_penalty():
    feats = np.array([[1.0, 2.0], [-1.0, -2.0]])
    ds = Dataset(features=feats, labels=np.array([0, 0]))
    enc = _identity_sphere()
    got = population_loss(_embedded(enc, ds, IDENTITY_ONLY), "simple", lam=0.7)
    assert got.l1 == pytest.approx(-1.0, abs=1e-12)  # perfectly aligned views
    assert got.l2 == pytest.approx(0.0, abs=1e-12)  # antipodal embeddings cancel
    assert got.total == pytest.approx(-1.0, abs=1e-12)


def test_population_loss_rejects_unknown_kind():
    ds = _tiny_dataset()
    enc = _identity_sphere()
    with pytest.raises(ValueError, match="unknown"):
        population_loss(_embedded(enc, ds, IDENTITY_ONLY), "triplet")


def test_freeze_rejects_unevaluable_modes():
    # Evaluation freezes a sphere or a batch standardization; a model
    # without either output map is refused when it is built.
    with pytest.raises(ValueError, match="unknown norm mode 'none'"):
        init_encoder(
            input_dim=2, hidden_dims=(), output_dim=2, norm_mode="none",
            radius=1.0, seed=22,
        )


def test_embed_matches_model_forward_in_sphere_mode():
    ds = _blobs(seed=23)
    model = init_encoder(
        input_dim=2, hidden_dims=(4,), output_dim=2, norm_mode="sphere",
        radius=1.0, seed=24,
    )
    enc = _freeze(model, ds, IDENTITY_ONLY)
    np.testing.assert_array_equal(enc.embed(ds.features), forward(model, ds.features))
    # The identity's view of the grid is the raw sample, bit for bit.
    np.testing.assert_array_equal(
        _embedded(enc, ds, IDENTITY_ONLY).z[:, 0], forward(model, ds.features)
    )
    pre = forward_prenorm(model, ds.features)
    np.testing.assert_allclose(
        enc.embed(ds.features),
        pre / np.linalg.norm(pre, axis=1, keepdims=True),
        atol=1e-12,
    )
