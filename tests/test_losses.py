"""Contrastive objectives and their alignment/regularizer decompositions."""

import numpy as np
import pytest

from augbound.losses import (
    CrossCorrMatrix,
    LossBreakdown,
    cross_corr_loss,
    cross_correlation,
    info_nce,
    recompose,
    simple_contrastive,
)


def unit_rows(rng, n, d):
    z = rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def standardize_pooled(z1, z2):
    pooled = np.concatenate([z1, z2], axis=0)
    centered = pooled - pooled.mean(axis=0)
    scale = np.sqrt((centered**2).mean(axis=0))
    out = centered / scale
    b = z1.shape[0]
    return out[:b], out[b:]


def test_info_nce_collapse_values():
    z = np.tile(np.array([[1.0, 0.0]]), (4, 1))
    breakdown = info_nce(z, z, z)
    assert breakdown.total == pytest.approx(np.log(2.0), abs=1e-12)
    assert breakdown.l1 == pytest.approx(-1.0, abs=1e-12)
    assert breakdown.l2 == pytest.approx(1.0 + np.log(2.0), abs=1e-12)


def test_info_nce_orthogonal_negative():
    z1 = np.array([[1.0, 0.0]])
    zn = np.array([[0.0, 1.0]])
    breakdown = info_nce(z1, z1, zn)
    expected_total = np.log(1.0 + np.exp(-1.0))
    assert breakdown.total == pytest.approx(expected_total, abs=1e-12)
    assert breakdown.l1 == pytest.approx(-1.0, abs=1e-12)
    assert breakdown.l2 == pytest.approx(1.0 + expected_total, abs=1e-12)


def test_info_nce_batch_mean_equals_mean_of_singletons():
    rng = np.random.default_rng(0)
    z1, z2, zn = (unit_rows(rng, 6, 3) for _ in range(3))
    whole = info_nce(z1, z2, zn)
    singles = [
        info_nce(z1[i : i + 1], z2[i : i + 1], zn[i : i + 1]).total for i in range(6)
    ]
    assert whole.total == pytest.approx(np.mean(singles), abs=1e-12)


def test_info_nce_rotation_invariance():
    rng = np.random.default_rng(1)
    z1, z2, zn = (unit_rows(rng, 5, 3) for _ in range(3))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    a = info_nce(z1, z2, zn)
    b = info_nce(z1 @ q, z2 @ q, zn @ q)
    assert b.total == pytest.approx(a.total, abs=1e-9)
    assert b.l1 == pytest.approx(a.l1, abs=1e-9)


def test_info_nce_rejects_non_unit_embeddings():
    z = np.array([[1.0, 1.0]])
    with pytest.raises(ValueError, match="unit-norm"):
        info_nce(z, z, z)


def test_cross_correlation_identity_when_views_equal():
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(64, 3))
    # whiten so the pooled batch is exactly standardized and decorrelated
    centered = raw - raw.mean(axis=0)
    cov = centered.T @ centered / centered.shape[0]
    vals, vecs = np.linalg.eigh(cov)
    white = centered @ vecs / np.sqrt(vals)
    corr = cross_correlation(white, white)
    np.testing.assert_allclose(corr.matrix, np.eye(3), atol=1e-9)
    corr_neg = cross_correlation(white, -white)
    np.testing.assert_allclose(corr_neg.matrix, -np.eye(3), atol=1e-9)


def test_cross_correlation_matches_hand_sums():
    z1 = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    z2 = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, -1.0], [-1.0, 1.0]])
    corr = cross_correlation(z1, z2)
    expected = (z1.T @ z2 + z2.T @ z1) / (2 * 4)
    np.testing.assert_allclose(corr.matrix, expected, atol=1e-12)


def test_cross_correlation_rejects_unstandardized_input():
    z = np.full((8, 2), 3.0)
    with pytest.raises(ValueError, match="standardized"):
        cross_correlation(z, z)


def test_cross_corr_loss_trivial_values():
    eye = CrossCorrMatrix(matrix=np.eye(3))
    b = cross_corr_loss(eye, lam=0.1)
    assert (b.total, b.l1, b.l2) == (0.0, 0.0, 0.0)

    zero = CrossCorrMatrix(matrix=np.zeros((3, 3)))
    for lam in (0.1, 0.5, 0.9):
        z = cross_corr_loss(zero, lam=lam)
        assert z.l1 == pytest.approx(3.0)
        assert z.l2 == pytest.approx(3.0)
        assert z.total == pytest.approx(3.0)


def test_cross_corr_loss_hand_example():
    f = CrossCorrMatrix(matrix=np.array([[1.0, 0.5], [0.5, 1.0]]))
    b = cross_corr_loss(f, lam=0.25)
    assert b.l1 == pytest.approx(0.0, abs=1e-12)
    assert b.l2 == pytest.approx(0.5, abs=1e-12)
    assert b.total == pytest.approx(0.125, abs=1e-12)


def test_cross_corr_loss_rejects_non_positive_lambda():
    eye = CrossCorrMatrix(matrix=np.eye(2))
    with pytest.raises(ValueError):
        cross_corr_loss(eye, lam=0.0)


def test_identity_is_the_unique_zero_of_cross_corr_loss():
    rng = np.random.default_rng(3)
    for _ in range(50):
        perturbation = rng.normal(size=(3, 3)) * 0.1
        perturbation = (perturbation + perturbation.T) / 2
        if np.allclose(perturbation, 0):
            continue
        f = CrossCorrMatrix(matrix=np.eye(3) + perturbation)
        assert cross_corr_loss(f, lam=0.3).total > 0


def test_simple_contrastive_trivial_values():
    z = np.tile(np.array([[0.0, 1.0]]), (3, 1))
    collapse = simple_contrastive(z, z, z, lam=1.0)
    assert collapse.total == pytest.approx(0.0, abs=1e-12)

    z1 = np.array([[1.0, 0.0]])
    zn = np.array([[0.0, 1.0]])
    apart = simple_contrastive(z1, z1, zn, lam=1.0)
    assert apart.total == pytest.approx(-1.0, abs=1e-12)


def test_decomposition_identities_on_random_batches():
    rng = np.random.default_rng(10)
    for _ in range(200):
        b, d = int(rng.integers(2, 9)), int(rng.integers(2, 5))
        z1, z2, zn = (unit_rows(rng, b, d) for _ in range(3))
        nce = info_nce(z1, z2, zn)
        assert abs(nce.total - (nce.l1 + nce.l2)) < 1e-9

        lam = float(rng.uniform(0.05, 0.95))
        s = simple_contrastive(z1, z2, zn, lam=lam)
        assert abs(s.total - (s.l1 + lam * s.l2)) < 1e-9

        raw1, raw2 = rng.normal(size=(2, 16, d))
        w1, w2 = standardize_pooled(raw1, raw2)
        cc = cross_corr_loss(cross_correlation(w1, w2), lam=lam)
        assert abs(cc.total - ((1 - lam) * cc.l1 + lam * cc.l2)) < 1e-9


def test_alignment_is_bounded_by_the_diagonal_regularizer():
    # mean ||z1 - z2||^2 <= 2 sqrt(d * l1) for pooled-standardized batches
    rng = np.random.default_rng(11)
    for _ in range(200):
        b, d = int(rng.integers(4, 17)), int(rng.integers(2, 6))
        raw1, raw2 = rng.normal(size=(2, b, d))
        z1, z2 = standardize_pooled(raw1, raw2)
        l_pos = float(np.mean(np.sum((z1 - z2) ** 2, axis=1)))
        l1 = cross_corr_loss(cross_correlation(z1, z2), lam=0.5).l1
        assert l_pos <= 2.0 * np.sqrt(d * l1) + 1e-9


def test_recompose_matches_each_kind():
    assert recompose("info_nce", 0.25, 0.5, 1.0) == pytest.approx(0.75)
    assert recompose("cross_corr", 1.0, 2.0, 0.25) == pytest.approx(0.75 + 0.5)
    assert recompose("simple", 1.0, 2.0, 0.25) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        recompose("nope", 0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "l1, l2, lam",
    [(float("nan"), 0.0, 0.0), (0.0, float("nan"), 0.0), (float("inf"), float("inf"), 0.0)],
)
def test_breakdown_rejects_nan_and_infinite_recomposition(l1, l2, lam):
    # A non-finite term is refused, so no breakdown recomposes to a non-finite total.
    with pytest.raises(ValueError, match="loss terms must be finite"):
        LossBreakdown(kind="simple", l1=l1, l2=l2, lam=lam)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), 0.0])
def test_simple_contrastive_rejects_lambda_outside_zero_to_infinity(lam):
    z = np.tile(np.array([[0.0, 1.0]]), (3, 1))
    with pytest.raises(ValueError, match="lam"):
        simple_contrastive(z, z, z, lam=lam)


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_cross_corr_loss_rejects_non_finite_lambda(lam):
    eye = CrossCorrMatrix(matrix=np.eye(2))
    with pytest.raises(ValueError, match="lam"):
        cross_corr_loss(eye, lam=lam)
