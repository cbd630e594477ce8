"""Empirical quantities the guarantees are checked against.

Everything here is computed over the enumerated view grid with the
sampling-model weights (half mass on discrete members, half on the
parameter grid), so centers, alignment measurements, and population losses
all refer to one common view distribution.

An evaluation runs the encoder over that grid once. :func:`embed_views`
takes a model and the (N, V, D) view tensor of a dataset, freezes the model
on it and returns an :class:`EmbeddedViews`: the certified Lipschitz
constant L and norm scale r of the frozen map, the embeddings z (N, V, d),
the view weights, the per-sample weighted view means and the squared norms,
from which it derives the mean squared view-pair distance ``l_pos``.
:func:`class_centers`, :func:`empirical_r_eps` (which decides the whole
epsilon grid in one call), :func:`class_moments` and
:func:`population_loss` read from that value, so none of them builds or
embeds views again.

The frozen map is the training step's output normalization,
``encoder._norm_forward``, under the view weights: a sphere model keeps its
projection, and a batch-standardized model gets its statistics once, over
the weighted views of the whole dataset, which pins the norm convention to
sqrt(d) in the mean-square sense.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import losses as losses_mod
from .augment import _EPS64, TILE_BYTES, _center_radius, _exact_extremes, _sqeuclidean, _up
from .core import Dataset
from .encoder import EncoderModel, _norm_forward, _Sums, forward_prenorm, lipschitz_upper_bound
from .losses import LossBreakdown

__all__ = [
    "EmbeddedViews",
    "embed_views",
    "class_centers",
    "classify_batch",
    "empirical_r_eps",
    "population_loss",
    "class_moments",
]


@dataclass(frozen=True)
class EmbeddedViews:
    """The view grid of a dataset, embedded once by a frozen encoder.

    ``lipschitz`` is the certified Lipschitz constant of the frozen map and
    ``radius`` its norm scale r: 1 on the unit sphere, or sqrt(d) for a
    standardized model. ``z`` holds the embeddings (N, V, d), ``weights``
    the view weights (V,), ``means`` the weighted view mean of each sample
    (N, d) and ``sq_norms`` the squared embedding norms (N, V).
    """

    lipschitz: float
    radius: float
    z: np.ndarray
    weights: np.ndarray
    means: np.ndarray
    sq_norms: np.ndarray

    @property
    def l_pos(self) -> float:
        """Mean over samples of E ||z_a - z_b||^2 for independent views a, b,
        as 2 (E ||z||^2 - ||E z||^2); rounding can leave it slightly negative."""
        second = self.weights @ self.sq_norms.T
        return float(np.mean(2.0 * (second - np.sum(self.means**2, axis=1))))


def embed_views(model: EncoderModel, views: np.ndarray, weights: np.ndarray) -> EmbeddedViews:
    """Freeze a model on a view tensor (N, V, D) with its weights (V,) and
    embed the tensor, running the network over the N·V views once.

    The frozen map is the step's ``encoder._norm_forward`` with the view
    weights w_v / N as column weights in place of 1/n, which refuses norms
    or variances that vanish or overflow. The standardized map satisfies
    E[f_i] = 0 and E[f_i^2] = 1 per dimension exactly under the view
    distribution. The certificate is the layer product times 2 / c on the
    unit sphere, with c the smallest pre-projection norm on the grid (it
    holds between points whose norms reach c), or times 1 / c, with c the
    smallest scale, rounded up. As vanishing and overflowing norms or
    variances are refused, the certificate is finite and never 0.
    """
    n, v, _ = views.shape
    pre = forward_prenorm(model, views.reshape(n * v, -1))
    sums = _Sums(np.ones((pre.shape[1], 1)), np.ones(n * v), np.tile(weights, n) / n)
    flat, scales = _norm_forward(model, pre, sums)
    sphere = model.norm_mode == "sphere"
    factor = 2.0 if sphere else 1.0
    # Times 2 or 1 is exact; only the quotient needs rounding up.
    lipschitz = _up(lipschitz_upper_bound(model) * factor / float(scales.min()))
    radius = 1.0 if sphere else math.sqrt(model.output_dim)
    z = flat.reshape(n, v, -1)
    return EmbeddedViews(
        lipschitz=lipschitz,
        radius=radius,
        z=z,
        weights=weights,
        means=np.einsum("v,nvd->nd", weights, z),
        sq_norms=np.sum(z**2, axis=2),
    )


def _spreads(z: np.ndarray) -> np.ndarray:
    """Largest distance between two views of each sample, for (N, V, d) ``z``:
    the root of ``augment._exact_extremes`` of each sample with itself under
    ``np.maximum``, on one contiguous (d, N·V) operand."""
    n, v, d = z.shape
    each = np.arange(n)
    coords = np.ascontiguousarray(z.reshape(n * v, d).T)
    return np.sqrt(_exact_extremes(coords, v, each, each, np.maximum))


def class_centers(embedded: EmbeddedViews, dataset: Dataset) -> np.ndarray:
    """Class centers mu_k = E_{x in C_k} E_{views} f, one row per class
    (K, d), the view expectation taken over the enumerated grid with the
    sampling weights."""
    return np.stack(
        [
            embedded.means[dataset.class_indices(k)].mean(axis=0)
            for k in range(dataset.num_classes)
        ]
    )


def classify_batch(centers: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Nearest-center class of each embedding row; ties go to the smaller id."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    d2 = _sqeuclidean(z.T[:, :, None], centers.T[:, None, :])
    return np.argmin(d2, axis=1)


def empirical_r_eps(embedded: EmbeddedViews, epsilons: Sequence[float]) -> list[float]:
    """Fraction of samples whose view spread, as ``_spreads`` computes it,
    exceeds each of ``epsilons``. By ``_spread_bounds``, lo > ε proves that
    it does and hi ≤ ε that it does not; only the samples whose bounds
    straddle some ε go through ``_spreads``."""
    eps = np.asarray(epsilons, dtype=np.float64)
    # Written so that NaN, which compares false, fails it.
    if not np.all(eps >= 0):
        raise ValueError("epsilon must be non-negative")
    lo, hi = _spread_bounds(embedded)
    exceeds = lo[:, None] > eps
    open_rows = (~exceeds & (hi[:, None] > eps)).any(axis=1).nonzero()[0]
    exceeds[open_rows] = _spreads(embedded.z[open_rows])[:, None] > eps
    return exceeds.mean(axis=0).tolist()


def _spread_bounds(embedded: EmbeddedViews) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lo ≤ fl(√c) ≤ hi on each sample's view spread, c the largest
    ``_sqeuclidean`` value over its view pairs. With m the weighted view
    mean and w the largest value from m to a view, lo = fl(√l), l the
    largest value from the view attaining w to each view (fewer samples
    straddle than from view 0): entries of c's own matrix, bit for bit, so
    l ≤ c, and a correctly rounded square root never decreases.

    hi = 2ρ·(1 + (d + 2)·eps64), its one inexact step rounded up, with ρ =
    ``_center_radius`` of w, so every real view distance D is at most 2ρ.
    With u, eps64 and γ_n as there, the float64 value of a D² has d + 1
    roundings per term and loses at most d·2^-1075 to underflow, so
    c ≤ (1 + γ_{d+1})·4ρ² + d·2^-1075 ≤ (1 + γ_{d+2})·4ρ² (ρ² ≥ 2^-1000,
    d ≤ 2^24), and with the root's 1 + u, fl(√c) ≤ 2ρ(1 + γ_{d+2}) ≤ hi.
    """
    z = embedded.z
    coords = np.ascontiguousarray(z.transpose(2, 0, 1))
    sq = _sqeuclidean(coords, embedded.means.T[:, :, None])
    samples, far = np.arange(z.shape[0]), sq.argmax(axis=1)
    lo = np.sqrt(_sqeuclidean(z[samples, far].T[:, :, None], coords).max(axis=1))
    rho = _center_radius(sq[samples, far], z.shape[2])
    return lo, np.nextafter(2.0 * rho * (1.0 + (z.shape[2] + 2) * _EPS64), np.inf)


def class_moments(
    embedded: EmbeddedViews, dataset: Dataset, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class E ||f(view) - mu_k|| and E ||f(view) - mu_k||^2.

    Expectations run over class samples and weighted views; used to check
    the intra-class moment guarantees.
    """
    first = np.empty(dataset.num_classes)
    second = np.empty(dataset.num_classes)
    for k in range(dataset.num_classes):
        idx = dataset.class_indices(k)
        diff = embedded.z[idx] - centers[k]
        sq = np.sum(diff**2, axis=2)
        first[k] = np.mean(np.sqrt(sq) @ embedded.weights)
        second[k] = np.mean(sq @ embedded.weights)
    return first, second


# exp(x) is a normal float64 for x >= log(tiny), about -708.4.
_EXP_FLOOR = float(np.log(np.finfo(np.float64).tiny))


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Threads that compute the tiles of one population InfoNCE term: the calling
# thread plus at most one helper. Each share computes in one tile set of
# ``TILE_BYTES // _WORKERS``, allocated and aligned by the calling thread, so
# the tile sets together stay within ``TILE_BYTES`` (plus their alignment) and
# no helper allocates one. Under ``taskset -c 0`` (one usable CPU) the one set
# is ``TILE_BYTES``, all on the calling thread. There is no setting for it.
_WORKERS = min(2, _usable_cpus())


def _run_split(
    work: Callable[[Sequence, Sequence[np.ndarray]], None],
    items: Sequence,
    workspaces: Sequence[Sequence[np.ndarray]],
) -> None:
    """Run ``work`` over ``items`` in one share per workspace, on the calling
    thread and at most one helper.

    The caller allocates the workspaces, ``min(_WORKERS, len(items))`` of
    them, so a helper writes only into buffers it was handed. With two, a new
    thread runs ``work(items[1::2], workspaces[1])`` while the calling thread
    runs ``work(items[0::2], workspaces[0])``; with one, the calling thread
    runs ``work(items, workspaces[0])`` alone. The helper runs in a copy of
    the caller's context, so numpy's error state, a context variable, is the
    caller's in both shares. The helper is joined before this returns or
    raises. An error of the calling thread's share propagates as raised;
    otherwise an error of the helper's share is re-raised here with its type
    and traceback.
    """
    if len(workspaces) < 2:
        work(items, workspaces[0])
        return
    errors: list[BaseException] = []

    def helper() -> None:
        try:
            work(items[1::2], workspaces[1])
        except BaseException as exc:  # handed to the calling thread below
            errors.append(exc)

    thread = threading.Thread(
        target=contextvars.copy_context().run, args=(helper,), name="augbound-tiles", daemon=True
    )
    thread.start()
    try:
        work(items[0::2], workspaces[0])
    finally:
        thread.join()
    if errors:
        raise errors[0]


def _aligned_sets(sizes: Sequence[int], count: int) -> list[list[np.ndarray]]:
    """``count`` sets of uninitialized float64 vectors of ``sizes``, carved
    in order from one block so that each starts on a 64-byte cache line.

    numpy aligns its buffers to 16 bytes only, so the block has one cache
    line more than the vectors padded to whole lines, and the first vector
    starts at its first line boundary. Every vector thus costs at most 64
    bytes of alignment.
    """
    lines = [-(-size // 8) * 8 for size in sizes]  # 8 float64 to a cache line
    block = np.empty(count * sum(lines) + 8)
    at = -block.ctypes.data % 64 // 8
    sets = []
    for _ in range(count):
        buffers = []
        for size, padded in zip(sizes, lines):
            buffers.append(block[at : at + size])
            at += padded
        sets.append(buffers)
    return sets


def _info_nce_divergence(z: np.ndarray, weights: np.ndarray, span: float) -> float:
    """Population InfoNCE divergence term l2 of embeddings z, shape (N, V, d),
    whose scores differ by at most ``span`` = 2 max||z||^2 (see
    :func:`population_loss` for the formula and its rounding).

    Rows are the flattened anchor views (i, a), R to a tile. A tile lays its
    shifted exponentials out as (N·V, R), so that the (V, R) block of each
    negative sample j is contiguous, and repeats the positives to (V, V·R);
    per negative sample one add and one multiply then run over the whole (V,
    V, R) block of (b, c, a). Each share of the tiles computes in one set of
    buffers: per row, the N·V exponentials, a scratch of max(N·V, V²), and
    V² each for the positives and the log sum, and for the product of a
    later group where there is more than one (never on the unit sphere below
    355 samples). Their bytes per row set R within ``TILE_BYTES //
    _WORKERS``. The calling thread allocates one set per share,
    ``min(_WORKERS, tiles)`` of them in one block, each buffer starting on a
    cache line (``_aligned_sets``), so the helper allocates no buffer of its
    own. ``_run_split`` runs a single tile inline, and more with the calling
    thread computing every other tile and one helper thread the rest. Tiles
    write each row's weighted log sum and shift into two N·V vectors, which
    are reduced once at the end.
    """
    n, v, d = z.shape
    nv, vv = n * v, v * v
    flat = z.reshape(nv, d)
    group = min(n, int(-_EXP_FLOOR // max(span, 1.0)))
    pair_w = np.outer(weights, weights / n).ravel()
    # Per row: exponentials, scratch, positives, log sum and, past one group, product.
    floats = (nv, max(nv, vv), vv, vv) + ((vv,) if group < n else ())
    rows = min(nv, max(1, TILE_BYTES // _WORKERS // (8 * sum(floats))))
    per_row = np.empty(nv)
    shifts = np.empty(nv)
    tiles = range(0, nv, rows)
    workspaces = _aligned_sets([size * rows for size in floats], min(_WORKERS, len(tiles)))

    def work(starts: range, buffers: Sequence[np.ndarray]) -> None:
        exps_buf, scratch_buf, pos_buf, logs_buf, *product_buf = buffers
        for start in starts:
            stop = min(start + rows, nv)
            r = stop - start
            anchors = flat[start:stop].T
            q = exps_buf[: nv * r].reshape(nv, r)
            term = scratch_buf[: nv * r].reshape(nv, r)
            np.multiply(flat[:, :1], anchors[0], out=q)
            for k in range(1, d):
                np.multiply(flat[:, k : k + 1], anchors[k], out=term)
                q += term
            # The positive scores of row (i, a) are the V scores of sample i
            # among its negative scores, so the column max covers both.
            shift = q.max(axis=0)
            q -= shift
            np.exp(q, out=q)
            pos = pos_buf[: vv * r].reshape(v, v * r)
            positives = q.reshape(n, v, r)[np.arange(start, stop) // v, :, np.arange(r)]
            pos.reshape(v, v, r)[...] = positives.T[:, None, :]
            blocks = q.reshape(n, v * r)
            logs, factor, *product = (
                buf[: vv * r].reshape(v, v * r) for buf in (logs_buf, scratch_buf, *product_buf)
            )
            for first in range(0, n, group):
                # The first group's product and its log go straight to the sum.
                acc = logs if first == 0 else product[0]
                np.add(pos, blocks[first], out=acc)
                for j in range(first + 1, min(first + group, n)):
                    np.add(pos, blocks[j], out=factor)
                    acc *= factor
                np.log(acc, out=acc)
                if first:
                    logs += acc
            weighted = factor.reshape(r, vv)
            np.multiply(logs.reshape(vv, r).T, pair_w, out=weighted)
            per_row[start:stop] = weighted.sum(axis=1)
            shifts[start:stop] = shift

    _run_split(work, tiles, workspaces)
    return float(np.tile(weights, n) @ (per_row + shifts) / n)


def population_loss(
    embedded: EmbeddedViews, kind: losses_mod.LossKind, lam: float = 1.0
) -> LossBreakdown:
    """Loss under full view enumeration instead of batch sampling.

    Expectations over positives pair independent views of one sample;
    negatives pair views of independent samples. The cross-correlation
    population matrix is E_x g(x) g(x)^T with g the per-sample weighted
    view mean, which is the exact population value of the batch estimator.

    The InfoNCE divergence term averages logaddexp(P[a, b], Q[a, jc]) over
    anchor views a, positive views b and negative views (j, c), where P and
    Q are the positive and negative scores. With s_a the largest score of
    anchor a, p_b = exp(P[a, b] - s_a) and q_jc = exp(Q[a, jc] - s_a), it
    uses the exact identity

        logaddexp(P[a, b], Q[a, jc]) = s_a + log(p_b + q_jc),

    so exp runs once per score; the weights sum to one, so the shifts add
    back as sum_a w_a s_a. Every negative (j, c) weighs w_c / N, so for a
    fixed (a, b, c) the logs of the N negative samples add up to the log of
    one product,

        sum_j log(p_b + q_jc) = log prod_j (p_b + q_jc).

    The product is taken over groups of g samples, with one log per group:
    ceil(N / g) N V^3 logs in all, against N^2 V^3 adds and multiplies.
    Scores lie in [-m, m] with m = max||z||^2, so p and q lie in
    [exp(-2m), 1], each factor in [2 exp(-2m), 2] and a product of g
    factors in [2^g exp(-2mg), 2^g]. With

        g = min(N, floor(-log(tiny) / max(2m, 1))),   -log(tiny) = 708.39,

    exp(-2mg) >= tiny and 2^g <= 2^708, so every product is a finite,
    normal float64, with a margin of 2^g for the rounding of the scores.
    InfoNCE models embed on the unit sphere (the pairing rule;
    batch-standardized models do not), where g = min(N, 354): one group,
    N V^3 logs, below 355 samples. For embeddings of norm 6, g = 9 at
    N = 28, and of norm 18, g = 1, one log per pair term. The exponents
    need 2m <= -log(tiny) (every norm up to 18); other embeddings, NaN ones
    included, raise ValueError before any tile runs.

    Rounding: against one log per pair term on the same p and q, the
    products are the only new rounding. A group product rounds g sums and
    g - 1 products of normal floats, so it carries at most (2g - 1)u
    relative error (u = 2^-53) and its log at most about (2g - 1)u
    absolute. Over the groups, the log sum of the N negatives of one
    (a, b, c) moves by at most 2N·u, about 6e-15 at N = 28; l2 weighs these
    sums by w_a w_b w_c / N^2, weights that add up to 1/N, so the products
    move l2 by at most 2u. One log of a product of g factors rounds within
    an ulp of a value up to g times a single factor's log, the worst case
    of g logs. The tests hold l2 within 2N·u·max(1, |l2|) of a long-double
    oracle on the unit sphere and on unit embeddings scaled to norms 6 and 18.

    The terms are computed in tiles of anchor rows, each of ``TILE_BYTES //
    _WORKERS``. A job of one tile runs inline; with two usable CPUs the
    calling thread computes half the tiles of a larger one while one helper
    thread computes the other half (``_run_split``), each share in a tile
    set that the calling thread allocates before either runs. Scores are
    summed left to right over the d coordinates, as ``augment._sqeuclidean``
    does, and each row's weighted logs in one row ``sum``: unlike a BLAS
    product, whose rounding changes with the block shape, neither depends on
    the tile's width or on where its buffers start. The per-row values are
    reduced once in a fixed order, so the result does not depend on the
    worker count or the tiling. The extra memory is one ``TILE_BYTES`` in
    all, plus at most 64 bytes of alignment per buffer (four per tile set,
    five with more than one group) and the N·V embeddings.
    """
    means = embedded.means
    if kind == "info_nce":
        span = 2.0 * float(embedded.sq_norms.max())
        if not span <= -_EXP_FLOOR:
            raise ValueError(
                f"population InfoNCE needs 2 max||z||^2 <= {-_EXP_FLOOR:.1f}, got {span:.1f}"
            )
        l1 = embedded.l_pos / 2.0 - 1.0
        l2 = _info_nce_divergence(embedded.z, embedded.weights, span)
        return LossBreakdown("info_nce", l1, l2, 1.0)
    if kind == "simple":
        l1 = embedded.l_pos / 2.0 - 1.0
        grand_mean = means.mean(axis=0)
        l2 = float(np.sum(grand_mean**2))
        return LossBreakdown("simple", l1, l2, lam)
    if kind == "cross_corr":
        f = losses_mod._cross_corr_matrix(means, means)
        return losses_mod.cross_corr_loss(losses_mod.CrossCorrMatrix(f), lam)
    raise ValueError(f"unknown loss kind {kind!r}")
