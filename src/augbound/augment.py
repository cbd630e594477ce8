"""Augmentation sets: a closed catalog of transforms plus view machinery.

A transform is either discrete (identity, a fixed coordinate permutation, a
fixed sign-flip mask) or continuous with a scalar parameter theta in [0, 1]
(additive shift along a direction, rotation in a coordinate plane, scaling).
Every continuous rule carries a certified Lipschitz constant with respect to
theta; for rotation and scaling the constant is valid on the ball of radius
``data_radius`` around the origin, which is part of the rule's declaration.

Views of a point are the discrete transforms plus the continuous family
evaluated on a regular grid over the parameter cube. The grid is an
under-approximation of the continuous family, so grid-based distances can
only overestimate the true minimal view distance, never undershoot it.
``view_tensor`` builds the grid one continuous member at a time, applying
each once per grid value to all the rows built so far: r calls per member.

Squared distances are summed over the coordinates left to right, the order
of ``scipy.spatial.distance.cdist``, whose values they equal bit for bit
(``_sqeuclidean``); the package itself needs numpy only.

``distance_matrix`` computes the augmented distances of a whole class. A
small class takes the exact formula on every view pair; a larger one is
searched over the upper triangle only, in square tiles of at most
``TILE_BYTES`` (2 MiB) of float32 view pairs, so its extra memory is about
one tile plus the N×N output, the N·V·D views and their lifted N·V·(D+2)
float32 copy. A tile is one float32 BLAS GEMM on lifted views,
``[-2ĉ, 1, q]`` times ``[ĉ, q, 1]``, with ĉ the views centered on their
mean in float64, scaled by a power of two so that M = max q lies in
[1/4, 1] (q = ‖ĉ‖²), and rounded to float32. It gives every scaled squared
view distance up to a derived rounding bound
E = 10·(D + 4)·(eps32·M + tiny32). Only the view pairs whose GEMM value
lies within 2E of their sample pair's smallest one can hold its minimum;
those few are recomputed with the exact float64 formula on the unscaled
views, so each entry is bit-identical to the pairwise
``augmented_distance``. ``distance_matrix``'s docstring derives the bound.

``distance_matrix`` works through all its tiles on the calling thread, one
at a time, so the tiles in flight never exceed one ``TILE_BYTES``. Each
row of tiles ends in a finish of many small numpy calls, whose share of a
second thread would mostly wait for the GIL; the population InfoNCE of
``evaluation``, whose tiles are a few long ufunc passes, keeps its helper
thread. Each tile writes its own entries of the output, so results do not
depend on the tiling.

The sampling model used for drawing random views splits mass evenly between
the discrete members (1/(2m) each) and the continuous family (theta uniform
on the cube); with no continuous member all mass is discrete. Expectations
over enumerated views use matching weights so sampled and enumerated
quantities estimate the same thing.

A set has no identity on disk but its JSON form (``core.spec_dict``) in the
``config.json`` written beside every artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .core import Dataset

__all__ = [
    "Transform",
    "AugmentationSet",
    "identity",
    "coordinate_permutation",
    "sign_flip_mask",
    "additive_shift",
    "rotation_2d",
    "scaling",
    "view_tensor",
    "view_weights",
    "augmented_distance",
    "distance_matrix",
    "sample_views",
]

_DISCRETE_RULES = ("identity", "coordinate_permutation", "sign_flip_mask")

# The parameter fields each rule sets; every other one stays None.
_RULE_FIELDS = {
    "identity": (),
    "coordinate_permutation": ("permutation",),
    "sign_flip_mask": ("signs",),
    "additive_shift": ("direction",),
    "rotation_2d_subspace": ("axes", "max_angle", "data_radius"),
    "scale": ("scale_span", "data_radius"),
}
_PARAMETER_FIELDS = tuple(dict.fromkeys(name for uses in _RULE_FIELDS.values() for name in uses))

# Byte budget of one float32 tile of squared view distances in
# ``distance_matrix``; ``evaluation`` tiles its InfoNCE pair terms by it too.
TILE_BYTES = 2 << 20

_EPS32 = float(np.finfo(np.float32).eps)
_TINY32 = float(np.finfo(np.float32).tiny)


@dataclass(frozen=True)
class Transform:
    """One member of the transform catalog.

    Exactly the fields that ``rule`` uses are set; use the factory functions
    below rather than constructing directly.
    """

    # ``core.from_spec`` names a transform's keys after its rule.
    spec_label: ClassVar[str] = "rule"

    rule: str
    permutation: tuple[int, ...] | None = None
    signs: tuple[float, ...] | None = None
    direction: tuple[float, ...] | None = None
    axes: tuple[int, int] | None = None
    max_angle: float | None = None
    scale_span: tuple[float, float] | None = None
    data_radius: float | None = None

    def __post_init__(self) -> None:
        if self.rule not in _RULE_FIELDS:
            raise ValueError(f"unknown transform rule {self.rule!r}")
        uses = _RULE_FIELDS[self.rule]
        for name in _PARAMETER_FIELDS:
            if (getattr(self, name) is not None) != (name in uses):
                verb = "needs" if name in uses else "takes no"
                raise ValueError(f"{self.rule} {verb} {name}")
        # NaN passes every range check below, so test finiteness first.
        vals = (*(self.direction or ()), *(self.scale_span or ()), self.max_angle, self.data_radius)
        if not all(v is None or math.isfinite(v) for v in vals):
            raise ValueError(f"{self.rule} parameters must be finite")
        if self.rule == "coordinate_permutation":
            if sorted(self.permutation) != list(range(len(self.permutation))):
                raise ValueError("coordinate_permutation needs a valid permutation tuple")
        if self.rule == "sign_flip_mask":
            if any(s not in (-1.0, 1.0) for s in self.signs):
                raise ValueError("sign_flip_mask needs entries in {-1, +1}")
        if self.rule == "additive_shift" and len(self.direction) == 0:
            raise ValueError("additive_shift needs a direction vector")
        if self.rule == "rotation_2d_subspace":
            axes = self.axes
            if len(axes) != 2 or axes[0] == axes[1] or min(axes) < 0:
                raise ValueError("rotation_2d_subspace needs two distinct non-negative axes")
            if self.max_angle < 0:
                raise ValueError("rotation_2d_subspace needs max_angle >= 0")
        if self.rule == "scale" and len(self.scale_span) != 2:
            raise ValueError("scale needs a (low, high) span")
        if self.data_radius is not None and self.data_radius <= 0:
            raise ValueError(f"{self.rule} needs a positive data_radius")

    @property
    def is_discrete(self) -> bool:
        return self.rule in _DISCRETE_RULES

    @property
    def param_dim(self) -> int:
        return 0 if self.is_discrete else 1

    @property
    def lipschitz_bound(self) -> float:
        """Certified Lipschitz constant of theta -> A_theta(x).

        Valid for all x when the rule is an additive shift, and for
        ||x|| <= data_radius for rotation and scaling. Discrete rules
        have no parameter and report 0.
        """
        if self.rule == "additive_shift":
            return float(np.linalg.norm(self.direction))
        if self.rule == "rotation_2d_subspace":
            return float(self.max_angle * self.data_radius)
        if self.rule == "scale":
            lo, hi = self.scale_span
            return float(abs(hi - lo) * self.data_radius)
        return 0.0

    def check_dimension(self, dim: int) -> None:
        """Raise ``ValueError`` unless the transform acts on ``dim``-dimensional points."""
        sizes = {"coordinate_permutation": self.permutation, "sign_flip_mask": self.signs,
                 "additive_shift": self.direction}
        if self.rule in sizes and len(sizes[self.rule]) != dim:
            raise ValueError(f"{self.rule} length does not match feature dimension {dim}")
        if self.rule == "rotation_2d_subspace" and dim <= max(self.axes):
            raise ValueError(f"rotation axes outside feature dimension {dim}")

    def apply(self, x: np.ndarray, theta: float | np.ndarray | None = None) -> np.ndarray:
        """Apply the transform to ``x`` (a vector or a (B, D) batch).

        ``theta`` is required for continuous rules; it may be a scalar or a
        per-row array for batched input.
        """
        x = np.asarray(x, dtype=np.float64)
        self.check_dimension(x.shape[-1])
        if self.is_discrete:
            if theta is not None:
                raise ValueError(f"{self.rule} takes no parameter")
            return self._map(x, None)
        if theta is None:
            raise ValueError(f"{self.rule} requires a parameter in [0, 1]")
        th = _check_theta(theta)
        return self._map(x, th[:, None] if x.ndim == 2 and th.ndim == 1 else th)

    def _map(self, x: np.ndarray, th: np.ndarray | None) -> np.ndarray:
        """The transform on checked input; a batched ``th`` is a (B, 1) column."""
        if self.rule == "identity":
            return x.copy()
        if self.rule == "coordinate_permutation":
            return x[..., list(self.permutation)]
        if self.rule == "sign_flip_mask":
            return x * np.asarray(self.signs, dtype=np.float64)
        if self.rule == "additive_shift":
            return x + th * np.asarray(self.direction, dtype=np.float64)
        if self.rule == "rotation_2d_subspace":
            i, j = self.axes
            angle = th * self.max_angle
            cos = np.cos(angle)
            sin = np.sin(angle)
            out = x.copy()
            xi, xj = x[..., i], x[..., j]
            if x.ndim == 2:
                cos, sin = np.ravel(cos), np.ravel(sin)
            out[..., i] = cos * xi - sin * xj
            out[..., j] = sin * xi + cos * xj
            return out
        lo, hi = self.scale_span
        factor = lo + th * (hi - lo)
        return x * factor


def _check_theta(theta: float | np.ndarray) -> np.ndarray:
    th = np.asarray(theta, dtype=np.float64)
    # Written so that NaN, which compares false, fails it.
    if th.size and not (th.min() >= -1e-12 and th.max() <= 1.0 + 1e-12):
        raise ValueError("theta must lie in [0, 1]")
    return th


def identity() -> Transform:
    return Transform("identity")


def coordinate_permutation(permutation: tuple[int, ...]) -> Transform:
    return Transform("coordinate_permutation", permutation=tuple(int(i) for i in permutation))


def sign_flip_mask(signs: tuple[float, ...]) -> Transform:
    return Transform("sign_flip_mask", signs=tuple(float(s) for s in signs))


def additive_shift(direction: tuple[float, ...]) -> Transform:
    return Transform("additive_shift", direction=tuple(float(v) for v in direction))


def rotation_2d(axes: tuple[int, int], max_angle: float, data_radius: float) -> Transform:
    return Transform(
        "rotation_2d_subspace",
        axes=tuple(int(a) for a in axes),
        max_angle=float(max_angle),
        data_radius=float(data_radius),
    )


def scaling(low: float, high: float, data_radius: float) -> Transform:
    return Transform("scale", scale_span=(float(low), float(high)), data_radius=float(data_radius))


@dataclass(frozen=True)
class AugmentationSet:
    """Closed set of transforms plus the grid resolution per continuous axis.

    The identity must always be a member, so every point is a view of
    itself. ``grid_resolution`` points per axis (endpoints included)
    discretize the continuous parameter cube.
    """

    transforms: tuple[Transform, ...]
    grid_resolution: int = 2

    def __post_init__(self) -> None:
        # Set before the checks: the member views below are cached.
        object.__setattr__(self, "transforms", tuple(self.transforms))
        if not any(t.rule == "identity" for t in self.transforms):
            raise ValueError("the identity transform must be a member")
        if len(set(self.transforms)) != len(self.transforms):
            raise ValueError("duplicate transforms in augmentation set")
        if self.num_continuous_params >= 1 and self.grid_resolution < 2:
            raise ValueError("grid_resolution must be >= 2 with continuous transforms")

    @cached_property
    def discrete(self) -> tuple[Transform, ...]:
        return tuple(t for t in self.transforms if t.is_discrete)

    @cached_property
    def continuous(self) -> tuple[Transform, ...]:
        return tuple(t for t in self.transforms if not t.is_discrete)

    @property
    def num_discrete(self) -> int:
        return len(self.discrete)

    @cached_property
    def num_continuous_params(self) -> int:
        return sum(t.param_dim for t in self.continuous)

    @property
    def effective_lipschitz(self) -> float:
        """Largest per-rule parameter Lipschitz constant among members."""
        if not self.continuous:
            return 0.0
        return max(t.lipschitz_bound for t in self.continuous)

    @property
    def num_views(self) -> int:
        n = self.num_continuous_params
        return self.num_discrete + (self.grid_resolution**n if n >= 1 else 0)

    def check_dimension(self, dim: int) -> None:
        """Raise ``ValueError`` unless every member acts on ``dim``-dimensional points."""
        for transform in self.transforms:
            transform.check_dimension(dim)


def view_tensor(points: np.ndarray, aug: AugmentationSet) -> np.ndarray:
    """Enumerated views for a batch of points, shape (B, V, D).

    Order: discrete transforms in declaration order, then the parameter grid
    in lexicographic order (first axis slowest). Continuous transforms
    compose in declaration order, one grid coordinate per transform; each is
    applied once per grid value, a scalar theta, to all grid rows so far.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    views = [t.apply(points)[:, None] for t in aug.discrete]
    if aug.continuous:
        axis = np.linspace(0.0, 1.0, aug.grid_resolution)
        grid = points[:, None]
        for trans in aug.continuous:
            b, g, d = grid.shape
            flat = grid.reshape(b * g, d)
            grid = np.stack([trans.apply(flat, th).reshape(b, g, d) for th in axis], axis=2)
            grid = grid.reshape(b, g * axis.size, d)
        views.append(grid)
    return np.concatenate(views, axis=1)


def view_weights(aug: AugmentationSet) -> np.ndarray:
    """Probability of each enumerated view under the sampling model.

    Half the mass spread over the discrete members and half over the grid
    cells standing in for the continuous family; all mass on the discrete
    members when there is no continuous transform.
    """
    m = aug.num_discrete
    n = aug.num_continuous_params
    if n == 0:
        return np.full(m, 1.0 / m)
    g = aug.grid_resolution**n
    return np.concatenate([np.full(m, 0.5 / m), np.full(g, 0.5 / g)])


def augmented_distance(x1: np.ndarray, x2: np.ndarray, aug: AugmentationSet) -> float:
    """Smallest Euclidean distance between any view of x1 and any view of x2.

    Symmetric, non-negative, and zero between a point and itself. Computed
    on squared distances with a single square root at the end.
    """
    a = np.asarray(x1, dtype=np.float64)
    b = np.asarray(x2, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("augmented_distance expects two vectors of equal dimension")
    va = view_tensor(a, aug)[0].T
    vb = view_tensor(b, aug)[0].T
    d2 = _sqeuclidean(va[:, :, None], vb[:, None, :])
    return float(np.sqrt(max(d2.min(), 0.0)))


def _sqeuclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances of broadcast ``a`` and ``b``, coordinates
    along the first axis.

    The squared coordinate differences are summed left to right,
    ``s = d0·d0; s += d1·d1; ...``, which is the order of
    ``scipy.spatial.distance.cdist(..., "sqeuclidean")``, so every value
    equals cdist's bit for bit. (Pairwise summation, as ``sum`` does along a
    contiguous axis, differs from it for D >= 8.)
    """
    sq = a - b
    sq *= sq
    out = sq[0]
    for term in sq[1:]:
        out += term
    return out


def distance_matrix(
    dataset: Dataset,
    aug: AugmentationSet,
    class_filter: int | None = None,
) -> np.ndarray:
    """Pairwise augmented distances, optionally restricted to one class.

    Returns an (N, N) symmetric matrix with zero diagonal where N is the
    number of selected samples (row order follows dataset order). Every
    entry is bit-identical to ``augmented_distance`` of the two points,
    whatever the tiling.

    A job whose (D + 1)·(N·V)² squared differences and distances fit in
    ``TILE_BYTES`` at 8 bytes each computes every view pair with the exact
    formula of ``_sqeuclidean``. A larger job searches only the upper
    triangle, in square tiles of ``side`` samples per axis whose (side·V)²
    float32 view pairs fit ``TILE_BYTES`` at 4 bytes each (one sample per
    side at least). The calling thread computes them one at a time, so
    extra memory is about one ``TILE_BYTES`` plus the output, the N·V·D
    views and their lifted N·V·(D+2) float32 copy.

    A tile is one float32 GEMM: with ĉ the views centered on their mean and
    scaled, and q = ‖ĉ‖², the rows ``[-2ĉ, 1, q]`` times the lifted views
    ``[ĉ, q, 1]`` give every scaled squared view distance approximately, and
    the tile keeps only, for each column, its minimum over each row sample's
    views (``_tile_colmin``). Once the tiles of a row of tiles are done,
    ``_column_limits`` gives each sample pair the limit m + 2E below
    and picks the columns that reach it; those columns are recomputed
    against the row samples' views in one more GEMM, and the view pairs that
    reach the limit are the candidates, a few per sample pair. Only they are
    recomputed with the exact left-to-right formula of ``_sqeuclidean`` on
    the unscaled float64 views, and the smallest is the exact minimum. Views
    that repeat an earlier view of every sample bit for bit
    (``_distinct_views``) are left out of the candidates, as their distances
    repeat too. Tiles write disjoint entries, and the lower triangle is the
    upper one's mirror, since squared distances are the same in either
    argument order.

    The filter is sound by a rounding bound. ``_lifted`` centers the views
    in float64 and multiplies them by a power of two s, chosen so that
    M = max q lies in [1/4, 1]; that is exact. It then rounds ĉ and q to
    float32. (Without the scaling, q overflows float32 once coordinates
    reach about 1e19, and the GEMM values turn infinite or NaN.) Let u be
    float32's unit roundoff, eps32 = 2u its machine epsilon and tiny32 its
    smallest normal number, and write γ_n = n·u for the bound on an n-term
    inner product computed in any order (Higham 2002, §3.1). This assumes
    that BLAS ``sgemm`` accumulates in IEEE float32 (or wider). Then any
    GEMM value g of a view pair, whatever the kernel, is within
    E = 10·(D + 4)·(eps32·M + tiny32) of s²·c, with c the exact formula's
    value on the unscaled views a, b, because to first order in u:

    - g is a float32 inner product of D + 2 terms of total size at most
      4M, so it is within 4γ_{D+2}·M of Q_a + Q_b − 2·x_a·x_b, where x and
      Q are the float32 ĉ and q;
    - each Q is q rounded to float32 (u·M), and rounding ĉ to float32 moves
      its squared norm by at most 2u·M, so |Q − ‖x‖²| ≤ 3u·M;
    - rounding ĉ to float32 moves x_a − x_b by at most 2u·√M, and so
      ‖x_a − x_b‖² by at most 8u·M;
    - the float64 steps (centering, q, and c's D + 2 roundings) add at most
      (6D + 16)·2^-29·u·M, as float64's unit roundoff is 2^-29·u.

    These add up to (4D + 22)·u·M = (2D + 11)·eps32·M, and the factor
    10·(D + 4) leaves a margin of (8D + 29)·eps32·M. It covers the
    second-order terms, the float64 steps, the rounding of M and E, and the
    float32 rounding of the limit m + 2E, which is at most about
    2·eps32·M, as |m| ≤ 4M + E; tiny32 covers float32 underflow. Within a
    sample pair let p minimize c over the pairs of distinct views and let m
    be the pair's smallest tile GEMM value, attained by the view pair r.
    Then g_p ≤ s²·c_p + E ≤ s²·c_r + E ≤ m + 2E, with g_p from the tile or
    from any other GEMM, and the margin keeps this true of the rounded
    limit. So p's column reaches the limit in its tile, and p itself
    reaches it when its column is recomputed: every view pair that does is
    a candidate.
    """
    if class_filter is None:
        points = dataset.features
    else:
        points = dataset.features[dataset.class_indices(class_filter)]
    views = view_tensor(points, aug)
    n, v, d = views.shape
    coords = np.ascontiguousarray(views.reshape(n * v, d).T)
    if (d + 1) * 8 * (n * v) ** 2 <= TILE_BYTES:
        # A job this small costs less with the exact formula on every pair.
        sq = _sqeuclidean(coords[:, :, None], coords[:, None, :])
        return _finish_distances(sq.reshape(n, v, n, v).min(axis=1).min(axis=2))
    side = max(1, math.isqrt(TILE_BYTES // 4) // v)
    keep = np.tile(_distinct_views(views), n)
    # Indices, within a row of tiles, of the distinct views of its samples.
    rowsel = (v * np.arange(side)[:, None] + keep[:v].nonzero()[0]).reshape(-1)
    del views
    lifted, bound = _lifted(coords)
    out = np.full((n, n), np.inf)

    def finish(i0: int, left: np.ndarray, parts: list[tuple[int, np.ndarray]]) -> None:
        colmin = np.concatenate([m for _, m in parts], axis=1)
        starts = v * np.array([j0 for j0, _ in parts])
        colview = (starts[:, None] + np.arange(side * v)).reshape(-1)[: colmin.shape[1]]
        limit, colview = _column_limits(colmin, colview, bound, v, i0, keep)
        # Recompute the columns some row sample's limit reaches against the
        # row samples' distinct views, a quarter of the tile budget at a time.
        ni = colmin.shape[0]
        rows = rowsel[: rowsel.size // side * ni]
        left = left.take(rows, axis=0)
        rowview = i0 * v + rows
        w = rows.size // ni
        step = max(1, TILE_BYTES // (16 * rows.size))
        for lo in range(0, colview.size, step):
            cols = colview[lo : lo + step]
            g = left @ lifted.take(cols, axis=0).T
            hit = (g.reshape(ni, w, -1) <= limit[:, None, lo : lo + step]).reshape(-1).nonzero()[0]
            row = hit // cols.size
            r, c = rowview[row], cols[hit - row * cols.size]
            exact = _sqeuclidean(coords.take(r, axis=1), coords.take(c, axis=1))
            np.minimum.at(out.reshape(-1), r // v * n + c // v, exact)

    for i0 in range(0, n, side):
        left = _left_operand(lifted[i0 * v : (i0 + side) * v])
        parts: list[tuple[int, np.ndarray]] = []
        held = 0
        for j0 in range(i0, n, side):
            colmin = _tile_colmin(left, lifted[j0 * v : (j0 + side) * v], v)
            parts.append((j0, colmin))
            held += colmin.nbytes
            # A row of tiles is finished at once, or a part of one when its
            # column minima reach an eighth of the budget.
            if 8 * held >= TILE_BYTES:
                finish(i0, left, parts)
                parts, held = [], 0
        if parts:
            finish(i0, left, parts)
    return _finish_distances(np.minimum(out, out.T))


def _finish_distances(sq: np.ndarray) -> np.ndarray:
    """Distances from the (N, N) smallest squared view distances, zero diagonal."""
    out = np.sqrt(np.maximum(sq, 0.0))
    np.fill_diagonal(out, 0.0)
    return out


def _distinct_views(views: np.ndarray) -> np.ndarray:
    """Mask (V,) of the views of (N, V, D) ``views`` that do not repeat, in
    every sample bit for bit, an earlier view (a rotation at angle 0 repeats
    the identity, for one)."""
    n, v, d = views.shape
    rows = np.ascontiguousarray(views.transpose(1, 0, 2)).reshape(v, n * d)
    keys = rows.view(np.dtype((np.void, 8 * n * d))).reshape(v)
    keep = np.zeros(v, dtype=bool)
    keep[np.unique(keys, return_index=True)[1]] = True
    return keep


def _lifted(coords: np.ndarray) -> tuple[np.ndarray, float]:
    """The float32 lifted views ``[ĉ, q, 1]`` of (D, N·V) ``coords`` and the bound E.

    ĉ are the views centered on their mean in float64 and scaled by a power
    of two, which is exact: first so that max |ĉ| lies in [1/2, 1), where
    q = ‖ĉ‖² neither overflows nor underflows, then so that max q lies in
    [1/4, 1]. Both are then rounded to float32. E is in the same scaled
    units; see ``distance_matrix``.
    """
    d, nv = coords.shape
    centered = coords.T - coords.mean(axis=1)
    peak = max(float(centered.max(initial=0.0)), -float(centered.min(initial=0.0)))
    np.ldexp(centered, -np.frexp(peak)[1], out=centered)
    q = np.einsum("ij,ij->i", centered, centered)
    k = (int(np.frexp(q.max(initial=0.0))[1]) + 1) // 2
    lifted = np.empty((nv, d + 2), dtype=np.float32)
    np.ldexp(centered, -k, out=lifted[:, :d])
    np.ldexp(q, -2 * k, out=lifted[:, d])
    lifted[:, d + 1] = 1.0
    bound = 10.0 * (d + 4) * (_EPS32 * float(lifted[:, d].max(initial=0.0)) + _TINY32)
    return lifted, bound


def _left_operand(lifted: np.ndarray) -> np.ndarray:
    """Rows ``[-2ĉ, 1, q]`` for lifted views ``[ĉ, q, 1]``; exact, as -2 is a
    power of two and max |ĉ| ≤ 1."""
    d = lifted.shape[1] - 2
    left = np.empty_like(lifted)
    np.multiply(lifted[:, :d], -2.0, out=left[:, :d])
    left[:, d] = lifted[:, d + 1]
    left[:, d + 1] = lifted[:, d]
    return left


def _tile_colmin(left: np.ndarray, right: np.ndarray, v: int) -> np.ndarray:
    """GEMM values of one tile, each column's minimum over each row sample's views.

    ``left`` holds the ni·V rows ``[-2ĉ, 1, q]`` of the tile's row samples
    and ``right`` the lifted views ``[ĉ, q, 1]`` of its column samples;
    returns (ni, nj·V).
    """
    g = left @ right.T
    return g.reshape(left.shape[0] // v, v, right.shape[0]).min(axis=1)


def _column_limits(
    colmin: np.ndarray, colview: np.ndarray, bound: float, v: int, i0: int, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The columns of one row of tiles that may hold a candidate, and their limits.

    ``colmin`` (ni, W) holds the column minima of the tiles, or of a run of
    them, of the row whose samples start at ``i0``, and ``colview`` (W,) the
    view index of each column. The limit of a sample pair is its smallest
    GEMM value plus 2E; a column may hold a candidate of a row sample when
    its minimum over that sample's views reaches the limit. Returns the (ni, U) limits of the
    U columns of views that ``keep`` marks (a mask over all N·V views) and
    that some row sample's limit reaches, and their view indices. A sample
    paired with itself gets no limit: its distance is zero.
    """
    ni = colmin.shape[0]
    # A transposed copy makes the minimum over each pair's V columns run
    # over long contiguous rows whatever V.
    limit = colmin.reshape(-1, v).T.copy().min(axis=0).reshape(ni, -1)
    limit += 2.0 * bound
    if colview[0] == i0 * v:
        # The row's diagonal tile comes first.
        np.fill_diagonal(limit, -np.inf)
    limit = np.repeat(limit, v, axis=1)
    used = ((colmin <= limit).any(axis=0) & keep[colview]).nonzero()[0]
    return limit.take(used, axis=1), colview[used]


def sample_views(points: np.ndarray, aug: AugmentationSet, rng: np.random.Generator) -> np.ndarray:
    """Draw one random view per row of ``points`` under the sampling model.

    Members are checked against the feature dimension before any draw. The
    draws are ``random(B)``, ``integers(0, m, B)``, then ``random((B, n))``
    whatever the outcomes; training reproducibility depends on this order.
    All draws come before any member is applied (``_draw_views``, then
    ``_apply_views``); training decodes the same draws for a whole chunk of
    batches and applies the members to all of them at once.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    aug.check_dimension(points.shape[1])
    draws = _empty_draws(aug, (points.shape[0],))
    _draw_views(aug, rng, *draws)
    return _apply_views(points, aug, *draws)


def _empty_draws(aug: AugmentationSet, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Arrays for the draws of view batches of ``shape`` = (..., B) rows.

    The uniforms (..., B·(1 + n)) of each view batch hold its B branch
    coins, then its (B, n) continuous parameters row by row, as one
    ``random`` call fills them; the discrete member indices (..., B) start
    as zeros.
    """
    *lead, b = shape
    uniforms = np.empty((*lead, b * (1 + aug.num_continuous_params)))
    return uniforms, np.zeros(shape, dtype=np.int64)


def _draw_views(
    aug: AugmentationSet,
    rng: np.random.Generator,
    uniforms: np.ndarray,
    disc_idx: np.ndarray,
) -> None:
    """Make the draws of one ``sample_views`` call, in contract order, into
    one view batch's uniforms (B·(1 + n),) and discrete member indices (B,)
    of ``_empty_draws``.

    With a single discrete member the index draw ``integers(0, 1, B)`` is
    all zeros and consumes nothing from the generator, so the coins and the
    parameters are consecutive draws of the stream.
    """
    b = len(disc_idx)
    rng.random(out=uniforms[:b])
    disc_idx[:] = rng.integers(0, aug.num_discrete, size=b)
    rng.random(out=uniforms[b:])


def _apply_views(
    points: np.ndarray, aug: AugmentationSet, uniforms: np.ndarray, disc_idx: np.ndarray
) -> np.ndarray:
    """Views of checked (R, D) ``points`` for draws laid out as ``_empty_draws``'s,
    R = ``disc_idx.size``, the view batches' rows in order.

    Members act row by row, so each is applied to every row and selected;
    the rows may hold any number of view batches.
    """
    b, rows = disc_idx.shape[-1], disc_idx.size
    n = aug.num_continuous_params
    # Every row drawn discrete (all rows when n == 0) is replaced below.
    out = points
    if n:
        thetas = _check_theta(uniforms[..., b:].reshape(rows, n))
        for j, trans in enumerate(aug.continuous):
            out = trans._map(out, thetas[:, j : j + 1])
    take_discrete = (uniforms[..., :b].reshape(rows) < 0.5) | (n == 0)
    disc_idx = disc_idx.reshape(rows)
    for idx, trans in enumerate(aug.discrete):
        selected = (take_discrete & (disc_idx == idx))[:, None]
        out = np.where(selected, trans._map(points, None), out)
    return out
