"""Contrastive losses and their alignment/divergence decompositions.

Every loss reports a breakdown (l1, l2) where l1 measures alignment of
positive pairs and l2 the divergence (negative-repulsion) part. The total
is derived from them by a loss-specific identity:

    info_nce      total == l1 + l2
    cross_corr    total == (1 - lam) * l1 + lam * l2
    simple        total == l1 + lam * l2

Inputs are raw embedding batches; nothing here touches the encoder. Each
public loss checks its inputs, then calls a private kernel that holds the
formula (``_info_nce_terms``, ``_cross_corr_matrix`` and
``_cross_corr_terms``, ``_simple_terms``). The term kernels take a leading
step axis and reduce only over trailing contiguous axes, so a step's values
do not depend on how many steps are stacked with it: the public losses pass
a stack of one step, and training passes every step of a chunk at once, on
embeddings it has normalized itself, without re-checking them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

__all__ = [
    "LossBreakdown",
    "CrossCorrMatrix",
    "info_nce",
    "cross_correlation",
    "cross_corr_loss",
    "simple_contrastive",
]

_UNIT_NORM_TOL = 1e-6
_STANDARDIZATION_TOL = 1e-6

LossKind = Literal["info_nce", "cross_corr", "simple"]


def recompose(kind: str, l1: float, l2: float, lam: float) -> float:
    """Total loss implied by a breakdown, per the loss-specific identity."""
    if kind == "info_nce":
        return l1 + l2
    if kind == "cross_corr":
        return (1.0 - lam) * l1 + lam * l2
    if kind == "simple":
        return l1 + lam * l2
    raise ValueError(f"unknown loss kind {kind!r}")


@dataclass(frozen=True)
class LossBreakdown:
    """Loss value from its alignment (l1) and divergence (l2) parts.

    ``l1`` and ``l2`` must be finite; ``total`` is their recomposition for
    the loss ``kind`` (see :func:`recompose`).
    """

    kind: LossKind
    l1: float
    l2: float
    lam: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.l1) and math.isfinite(self.l2)):
            raise ValueError(f"loss terms must be finite, got l1={self.l1!r} l2={self.l2!r}")

    @property
    def total(self) -> float:
        return recompose(self.kind, self.l1, self.l2, self.lam)


@dataclass(frozen=True)
class CrossCorrMatrix:
    """Symmetrized cross-correlation estimate between two view batches."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("cross-correlation matrix must be square")
        if np.abs(mat - mat.T).max() > 1e-12:
            raise ValueError("cross-correlation matrix must be symmetric")
        object.__setattr__(self, "matrix", mat)


def _check_batches(*batches: np.ndarray) -> list[np.ndarray]:
    arrays = [np.atleast_2d(np.asarray(b, dtype=np.float64)) for b in batches]
    shape = arrays[0].shape
    if shape[0] == 0:
        raise ValueError("empty batch")
    for arr in arrays[1:]:
        if arr.shape != shape:
            raise ValueError("view batches must share one shape")
    return arrays


def _check_lam(lam: float) -> None:
    # Written so that NaN fails; ``TrainConfig`` applies the same rule.
    if not 0 < lam < math.inf:
        raise ValueError("lam must be positive and finite")


def _mean(values: np.ndarray) -> np.ndarray:
    """``np.mean`` over the last axis: one pairwise sum, one division, no dispatch."""
    return np.add.reduce(values, axis=-1) / values.shape[-1]


def _check_unit_norm(*batches: np.ndarray) -> None:
    norms = np.sqrt(np.square(np.concatenate(batches)).sum(axis=1))
    if np.abs(norms - 1.0).max() > _UNIT_NORM_TOL:
        raise ValueError("embeddings must be unit-norm")


def _alignment(z: np.ndarray) -> np.ndarray:
    """l1 of info_nce and simple: mean ||z1 - z2||^2 / 2 - 1 per step.

    ``z`` stacks each step's blocks z1, z2 (and z_neg): (..., k, B, d).
    """
    return _mean(np.add.reduce((z[..., 0, :, :] - z[..., 1, :, :]) ** 2, axis=-1)) / 2.0 - 1.0


def _info_nce_terms(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """l1 and l2 of ``info_nce`` per step of stacked blocks (..., 3, B, d)."""
    scores = np.add.reduce(z[..., 1:, :, :] * z[..., :1, :, :], axis=-1)  # z1.z2, z1.z_neg
    return _alignment(z), _mean(np.logaddexp(scores[..., 0, :], scores[..., 1, :]))


def info_nce(z1: np.ndarray, z2: np.ndarray, z_neg: np.ndarray) -> LossBreakdown:
    """One-negative InfoNCE on unit-norm embeddings, no temperature.

    total = mean -log(e^{z1.z2} / (e^{z1.z2} + e^{z1.z_neg}))
    l1    = mean ||z1 - z2||^2 / 2 - 1          (alignment)
    l2    = mean log(e^{z1.z2} + e^{z1.z_neg})  (divergence)

    On exactly unit-norm rows total == l1 + l2 because -z1.z2 equals
    ||z1 - z2||^2 / 2 - 1.
    """
    z1, z2, z_neg = _check_batches(z1, z2, z_neg)
    _check_unit_norm(z1, z2, z_neg)
    l1, l2 = _info_nce_terms(np.stack((z1, z2, z_neg)))
    return LossBreakdown("info_nce", float(l1), float(l2), 1.0)


def _check_standardized(pooled: np.ndarray) -> None:
    mean = pooled.sum(axis=0) / len(pooled)
    mean_sq = (pooled**2).sum(axis=0) / len(pooled)
    if (
        np.abs(mean).max() > _STANDARDIZATION_TOL
        or np.abs(mean_sq - 1.0).max() > _STANDARDIZATION_TOL
    ):
        raise ValueError("view batches must be standardized per dimension over their union")


def _cross_corr_matrix(
    view1: np.ndarray,
    view2: np.ndarray,
    out: np.ndarray | None = None,
    raw: np.ndarray | None = None,
) -> np.ndarray:
    """(F + F^T) / 2 for F = view1^T view2 / B, written into ``out`` when
    given, with F into ``raw``; symmetric by construction. Stacked
    (..., B, d) views give stacked matrices."""
    raw = np.matmul(view1.mT, view2, out=raw)
    raw /= float(view1.shape[-2])  # as / B, without numpy's slower int scalar path
    out = np.add(raw, raw.mT, out=out)
    return np.divide(out, 2.0, out=out)


def _cross_corr_terms(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """l1 = sum_i (1 - F_ii)^2 and l2 = ||F - I||_F^2 of ``cross_corr_loss``
    per step of stacked matrices (..., d, d)."""
    d = f.shape[-1]
    l1 = np.add.reduce((1.0 - f.diagonal(axis1=-2, axis2=-1)) ** 2, axis=-1)
    l2 = np.add.reduce(((f - np.eye(d)) ** 2).reshape(*f.shape[:-2], d * d), axis=-1)
    return l1, l2


def cross_correlation(view1: np.ndarray, view2: np.ndarray) -> CrossCorrMatrix:
    """Symmetrized estimator F = mean (z1 z2^T + z2 z1^T) / 2 over the batch.

    Requires the pooled batch (both views together) to be standardized per
    dimension: zero mean, unit mean square.
    """
    view1, view2 = _check_batches(view1, view2)
    _check_standardized(np.concatenate([view1, view2], axis=0))
    return CrossCorrMatrix(_cross_corr_matrix(view1, view2))


def cross_corr_loss(corr: CrossCorrMatrix, lam: float) -> LossBreakdown:
    """Redundancy-reduction loss on a cross-correlation matrix.

    total = sum_i (1 - F_ii)^2 + lam * sum_{i != j} F_ij^2. With
    l1 = sum_i (1 - F_ii)^2 and l2 = ||F - I||_F^2 the same value equals
    (1 - lam) * l1 + lam * l2 identically, since l2 = l1 + sum_{i!=j} F_ij^2.
    """
    _check_lam(lam)
    l1, l2 = _cross_corr_terms(corr.matrix)
    return LossBreakdown("cross_corr", float(l1), float(l2), lam)


def _simple_terms(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """l1 and l2 of ``simple_contrastive`` per step of stacked blocks (..., 3, B, d)."""
    repulsion = np.add.reduce(z[..., 0, :, :] * z[..., 2, :, :], axis=-1)
    return _alignment(z), _mean(repulsion)


def simple_contrastive(
    z1: np.ndarray, z2: np.ndarray, z_neg: np.ndarray, lam: float
) -> LossBreakdown:
    """Linear-repulsion contrastive loss: mean(-z1.z2) + lam * mean(z1.z_neg).

    l1 is the same alignment term as in info_nce; l2 is the batch estimate
    of the repulsion term, mean z1.z_neg (its population value is
    ||E f||^2, which is blind to dimensional collapse).
    """
    _check_lam(lam)
    z1, z2, z_neg = _check_batches(z1, z2, z_neg)
    _check_unit_norm(z1, z2, z_neg)
    l1, l2 = _simple_terms(np.stack((z1, z2, z_neg)))
    return LossBreakdown("simple", float(l1), float(l2), lam)

