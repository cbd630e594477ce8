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

``distance_levels`` places every pairwise augmented distance of a class on
an ascending delta grid: entry (i, j) counts the deltas strictly below the
pair's distance, all that a threshold graph needs. A small class takes the
exact formula on every view pair; a larger one narrows each pair's level
interval in one loop of steps, float32 GEMM bounds within a derived
rounding bound E and then the exact formula. Every level is that of
``augmented_distance``, every batch fills at most half a ``TILE_BYTES``
(2 MiB) in a GEMM buffer of one, and all of it runs on the calling thread.

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
    "distance_levels",
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

# Byte budget of one buffer of ``distance_levels``; ``evaluation`` tiles its
# InfoNCE pair terms by it too.
TILE_BYTES = 2 << 20

_EPS32 = float(np.finfo(np.float32).eps)
_TINY32 = float(np.finfo(np.float32).tiny)
_EPS64 = float(np.finfo(np.float64).eps)
# More than float64 underflow can take from a squared distance of D < 2^70
# coordinates; its square root is 2^-500.
_UNDERFLOW64 = math.ldexp(1.0, -1000)


@dataclass(frozen=True)
class Transform:
    """One member of the transform catalog.

    Exactly the fields that ``rule`` uses are set; use the factory functions
    below rather than constructing directly. NaN and infinite parameters
    are refused when a transform is built, so a config with one fails when
    it loads; ``apply`` refuses a NaN theta.
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
        th = np.asarray(theta, dtype=np.float64)
        # Written so that NaN, which compares false, fails it.
        if th.size and not (th.min() >= -1e-12 and th.max() <= 1.0 + 1e-12):
            raise ValueError("theta must lie in [0, 1]")
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

    @property
    def num_continuous_params(self) -> int:
        return len(self.continuous)

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
    So r grid values and n continuous members cost r·n maps, not r^n·n, and
    every view equals the per-grid-point composition of ``Transform.apply``
    bit for bit. Every member's dimension is checked once, up front, and
    each is applied by ``Transform._map``: a grid value lies in [0, 1] by
    construction, so the per-call checks of ``apply`` would add nothing.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    aug.check_dimension(points.shape[-1])
    views = [t._map(points, None)[:, None] for t in aug.discrete]
    if aug.continuous:
        axis = np.linspace(0.0, 1.0, aug.grid_resolution)
        grid = points[:, None]
        for trans in aug.continuous:
            b, g, d = grid.shape
            flat = grid.reshape(b * g, d)
            grid = np.stack([trans._map(flat, th).reshape(b, g, d) for th in axis], axis=2)
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
    on squared distances (``_exact_extremes``), one square root at the end.
    """
    a = np.asarray(x1, dtype=np.float64)
    b = np.asarray(x2, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("augmented_distance expects two vectors of equal dimension")
    coords = np.ascontiguousarray(view_tensor(np.stack([a, b]), aug).reshape(-1, a.size).T)
    first, second = np.array([0]), np.array([1])
    return float(np.sqrt(_exact_extremes(coords, aug.num_views, first, second, np.minimum)[0]))


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


def distance_levels(
    points: np.ndarray, aug: AugmentationSet, deltas: list[float] | np.ndarray
) -> np.ndarray:
    """Threshold level of every pairwise augmented distance of ``points``.

    ``points`` is (N, D), one class's samples in the concentration stage.
    Returns an (N, N) symmetric integer array with zero diagonal: entry
    (i, j) is ``np.searchsorted(deltas, dist, "left")`` for the ascending,
    non-negative ``deltas`` and the pair's augmented distance dist, so the
    pair is within δ_k exactly when the entry is at most k. dist, where it
    is computed at all, is ``augmented_distance`` of the two points bit for
    bit.

    A job whose (D + 1)·(N·V)² squared differences and distances fit in
    ``TILE_BYTES`` at 8 bytes each takes the exact formula of
    ``_sqeuclidean`` on every view pair. In a larger one each pair of the
    upper triangle starts at the level interval [0, len(deltas)], and each
    step of ``_steps`` narrows the intervals still open, with float32 GEMM
    bounds on the pair's exact smallest squared view distance c, in batches
    of half a ``TILE_BYTES`` (``_batch``) in one buffer of a tile or more,
    so no level depends on the budget:

    1. pre-pass: each sample's V views against every sample's identity
       view. The smaller h of a pair's two minima gives c ≤ (h + E)/s².
    2. group floor (``_group_floor``): the pair's G×G group centers floor
       its distance. It runs where the set has a continuous member and
       ``TILE_BYTES // (4·V·V·N) <= 1``; elsewhere it costs more than the
       screen work it saves.
    3. screen (``_pair_minima``): the smallest GEMM value m over the pair's
       V×V view pairs gives (m − E)/s² ≤ c ≤ (m + E)/s².
    4. exact (``_exact_extremes``): c by the exact formula, at both ends.

    The loop intersects each step's lower and upper level with the pair's
    interval so far, and a pair is settled once the two ends meet, at a
    middle level too where the pre-pass's upper end meets the group floor's
    lower end. The group floor and the screen stack one GEMM per pair they
    are given (``_pair_minima``) and compute no other pair; each gathers its
    pairs' column views from one contiguous operand per class (``_lifted``).
    A batch, operands and GEMM output together, fills at most half a tile,
    so its output stays in a core's 2 MiB L2 cache until its minima are
    taken. The GEMM buffer fits one tile, but the loop holds N²-sized arrays
    beside the N×N output: the level intervals ``lo`` and ``hi``, the open
    pairs and their ``divmod``, and the pre-pass's float64 temporaries over
    every pair. On 1,000-sample ring classes tracemalloc read peaks of 6.7×
    the output at 6 views and 7.0× at 126 (51.1 and 53.7 MiB against
    7.6 MiB).

    A bound is (g ± E)/s² rounded outward after each inexact step
    (``_unscaled``): the sum, then the two divisions by s, exact unless
    they leave float64's normal range. The level of a bound b is that of
    fl(√max(b, 0)); a correctly rounded square root never decreases, so a
    bound below or above c gives a level at most or at least c's, and two
    equal levels are c's level.

    The bounds are sound by a rounding bound. ``_lifted`` centers the views
    in float64 and multiplies them by a power of two s, chosen so that
    M = max q lies in [1/4, 1] (q = ‖ĉ‖², ĉ the scaled centered views);
    that is exact. It then rounds ĉ and q to float32. (Without the
    scaling, q overflows float32 once coordinates reach about 1e19, and the
    GEMM values turn infinite or NaN.) A GEMM multiplies the rows
    ``[-2ĉ, 1, q]`` of some views by the lifted ``[ĉ, q, 1]`` of others.
    Let u be float32's unit roundoff, eps32 = 2u its machine epsilon and
    tiny32 its smallest normal number, and ν_n = n·u the first-order bound
    on an n-term inner product in any order (Higham 2002, §3.1). This
    assumes that BLAS ``sgemm`` accumulates in IEEE float32 (or wider).
    Then any GEMM value g of a view pair, whatever the kernel, is within
    E = 10·(D + 4)·(eps32·M + tiny32) of s²·c, with c the exact formula's
    value on the unscaled views a, b, because to first order in u:

    - g is a float32 inner product of D + 2 terms of total size at most
      4M, so it is within 4ν_{D+2}·M of Q_a + Q_b − 2·x_a·x_b, where x and
      Q are the float32 ĉ and q;
    - each Q is q rounded to float32 (u·M), and rounding ĉ to float32 moves
      its squared norm by at most 2u·M, so |Q − ‖x‖²| ≤ 3u·M;
    - rounding ĉ to float32 moves x_a − x_b by at most 2u·√M, and so
      ‖x_a − x_b‖² by at most 8u·M;
    - the float64 steps (centering, q, and c's D + 2 roundings) add at most
      (6D + 16)·2^-29·u·M, as float64's unit roundoff is 2^-29·u.

    These add up to (4D + 22)·u·M = (2D + 11)·eps32·M, and the factor
    10·(D + 4) leaves a margin of (8D + 29)·eps32·M. It covers the
    second-order terms, the float64 steps and the rounding of M and E;
    tiny32 covers float32 underflow. So if the view pair p attains c and r
    attains the smallest GEMM value m of the sample pair, then
    m − E ≤ g_p − E ≤ s²·c ≤ s²·c_r ≤ g_r + E = m + E. As c's roundings
    are among the float64 steps covered, g is also within E of s²‖a − b‖²,
    the real squared distance of the two float64 views.

    The group floor is sound by the triangle inequality. Each discrete view
    is a group of its own; each run of ``grid_resolution`` consecutive grid
    views, which differ only in the last-declared member's parameter, is
    one group centered on its float64 mean. ρ (``_center_radius``, one
    value for the class) bounds ‖a − α‖ for every grid view a and its
    center α. For views a, b in groups centered at α, β (a discrete view
    is its own center), ‖a − b‖ ≥ ‖α − β‖ − 2ρ. The centers are lifted with
    their own scale s' and bound E', so the smallest GEMM value m' over the
    pair's G×G center pairs gives ‖α − β‖² ≥ (m' − E')/s'² for each of
    them, and t = √((m' − E')/s'²) − 2ρ, each step rounded down, is at most
    every real view distance of the pair. With u, eps64 and γ_n now those
    of ``_center_radius``, each of the exact formula's values has D + 2
    roundings, so c ≥ (1 − γ_{D+2})·t² − 2^-1000 for t ≥ 0, and fl(√c) ≥
    (1 − u)·√c ≥ (1 − (D + 4)·u)·t − 2^-500. The floor
    (1 − (D + 3)·eps64)·t − 2^-500, rounded down, is therefore at most
    fl(√c) (and negative for t < 0), so a pair whose floor lies above a
    delta has its distance above it.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    grid = [0.0, *deltas.tolist()]
    # Written so that NaN, which compares false, fails it.
    if not all(a <= b for a, b in zip(grid, grid[1:])):
        raise ValueError("thresholds must be non-negative and ascending")
    coords = view_tensor(points, aug)
    n, v, d = coords.shape
    coords = np.ascontiguousarray(coords.reshape(n * v, d).T)
    if (d + 1) * 8 * (n * v) ** 2 <= TILE_BYTES:
        # A job this small costs less with the exact formula on every pair.
        sq = _sqeuclidean(coords[:, :, None], coords[:, None, :])
        return _level(deltas, sq.reshape(n, v, n, v).min(axis=1).min(axis=2))
    # Level intervals [lo, hi] of the pairs above the diagonal, from [0, len(deltas)].
    lo, hi = np.zeros(n * n, dtype=np.intp), np.full(n * n, deltas.size)
    pending = np.flatnonzero(np.less.outer(np.arange(n), np.arange(n)))
    steps = _steps(coords, aug, deltas)
    while pending.size and steps:
        # Each step is dropped once run, so the GEMM buffer is freed before the exact step.
        step_lo, step_hi = steps.pop(0)(*np.divmod(pending, n))
        lo[pending] = step_lo = np.maximum(lo[pending], step_lo)
        hi[pending] = step_hi = np.minimum(hi[pending], step_hi)
        pending = pending[step_lo < step_hi]
    return lo.reshape(n, n) + lo.reshape(n, n).T


def _steps(coords: np.ndarray, aug: AugmentationSet, deltas: np.ndarray) -> list:
    """The steps of ``distance_levels`` on the (D, N·V) ``coords``, in order:
    each maps open pairs (rows[k], cols[k]) to a lower and an upper level."""
    v, n = aug.num_views, coords.shape[1] // aug.num_views
    columns, left, bound, scale = _lifted(coords, v)
    # One buffer for every GEMM, one row sample's or pair's at least. Its
    # batches fill half of it (``_batch``), so the pages of the other half
    # are touched only where one row sample or pair needs them.
    buf = np.empty(max(TILE_BYTES // 4, v * max(n, v + 2 * len(coords) + 4)), dtype=np.float32)

    def pre_pass(rows, cols):
        ident = np.ascontiguousarray(columns[:, :, aug.discrete.index(identity())])
        h = _all_minima(left, ident, v, buf)
        return 0, _level(deltas, _unscaled(np.minimum(h, h.T)[rows, cols], bound, scale))

    def group(rows, cols):
        return np.searchsorted(deltas, _group_floor(coords, aug, rows, cols, buf)), deltas.size

    def screen(rows, cols):
        m = _pair_minima(left, columns, v, rows, cols, buf)
        return _level(deltas, _unscaled(m, np.array([[-bound], [bound]]), scale))

    def exact(rows, cols):
        return (_level(deltas, _exact_extremes(coords, v, rows, cols, np.minimum)),) * 2

    grouped = aug.continuous and TILE_BYTES // (4 * v * v * n) <= 1
    return [pre_pass, *([group] if grouped else []), screen, exact]


def _level(deltas: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """How many ``deltas`` lie strictly below fl(√max(sq, 0)), elementwise."""
    return np.searchsorted(deltas, np.sqrt(np.maximum(sq, 0.0)), side="left")


def _unscaled(g: np.ndarray, e: float | np.ndarray, scale: float) -> np.ndarray:
    """(g + e)/s² in float64, each inexact step rounded up for e > 0 and
    down for e < 0, so the result bounds the real value from that side."""
    toward = np.copysign(np.inf, e)
    total = np.nextafter(np.add(g, e, dtype=np.float64), toward)
    # The two divisions by the power of two s are exact in float64's normal
    # range and err by less than one unit below it.
    return np.nextafter(total / scale / scale, toward)


def _lifted(coords: np.ndarray, v: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The float32 lifted views ``[ĉ, q, 1]`` of (D, N·V) ``coords``, each
    sample's v of them as the columns of one contiguous (D + 2, v) operand
    of the (N, D + 2, v) result, the layout that ``_pair_minima`` gathers;
    the (N·V, D + 2) GEMM rows ``[-2ĉ, 1, q]`` of the same views; the bound
    E and the scale s of ``distance_levels``. s scales in two exact steps:
    max |ĉ| into [1/2, 1), where q = ‖ĉ‖² neither overflows nor underflows,
    then max q into [1/4, 1]. -2ĉ is exact too, as -2 is a power of two."""
    d, nv = coords.shape
    centered = coords.T - coords.mean(axis=1)
    peak = max(float(centered.max(initial=0.0)), -float(centered.min(initial=0.0)))
    exponent = int(np.frexp(peak)[1])
    np.ldexp(centered, -exponent, out=centered)
    q = np.einsum("ij,ij->i", centered, centered)
    k = (int(np.frexp(q.max(initial=0.0))[1]) + 1) // 2
    columns = np.empty((nv // v, d + 2, v), dtype=np.float32)
    lifted = columns.transpose(0, 2, 1)
    np.ldexp(centered.reshape(-1, v, d), -k, out=lifted[..., :d])
    np.ldexp(q.reshape(-1, v), -2 * k, out=lifted[..., d])
    lifted[..., d + 1] = 1.0
    left = np.empty((nv, d + 2), dtype=np.float32)
    row_views = left.reshape(-1, v, d + 2)
    np.multiply(lifted[..., :d], -2.0, out=row_views[..., :d])
    row_views[..., d] = 1.0
    row_views[..., d + 1] = lifted[..., d]
    bound = 10.0 * (d + 4) * (_EPS32 * float(lifted[..., d].max(initial=0.0)) + _TINY32)
    return columns, left, bound, math.ldexp(1.0, -exponent - k)


def _batch(item_bytes: int) -> int:
    """How many items of ``item_bytes`` one batch of ``distance_levels``
    takes, at least one: half a ``TILE_BYTES``, so that a GEMM batch's
    output stays in a core's 2 MiB L2 cache between the GEMM and its minima."""
    return max(1, TILE_BYTES // 2 // item_bytes)


def _all_minima(left: np.ndarray, right: np.ndarray, v: int, buf: np.ndarray) -> np.ndarray:
    """(R, C) smallest GEMM value of each sample pair (i, j) over row sample
    i's v views, as the GEMM rows ``left``, and column sample j's one view,
    the lifted ``right[j]``, in blocks of as many row samples as fit half a
    ``TILE_BYTES`` GEMM against all columns in ``buf`` (``_batch``), at
    least one."""
    n_rows, n_cols = left.shape[0] // v, right.shape[0]
    out = np.empty((n_rows, n_cols), dtype=np.float32)
    block = _batch(4 * v * n_cols)
    for i0 in range(0, n_rows, block):
        rows = left[i0 * v : (i0 + block) * v]
        g = np.matmul(rows, right.T, out=buf[: rows.shape[0] * n_cols].reshape(len(rows), -1))
        out[i0 : i0 + block] = g.reshape(-1, v, n_cols).min(axis=1)
    return out


def _pair_minima(
    left: np.ndarray, right: np.ndarray, v: int, rows: np.ndarray, cols: np.ndarray, buf: np.ndarray
) -> np.ndarray:
    """Smallest GEMM value of each sample pair (rows[k], cols[k]) over the v
    views of each sample, as the GEMM rows ``left`` and the (N, D + 2, v)
    column operands ``right`` of ``_lifted``: one GEMM per pair, stacked
    with its gathered operands in ``buf``, half a ``TILE_BYTES`` at a time
    (``_batch``), so only the pairs asked are computed. Both operands are
    contiguous, so each gather copies only the samples it takes."""
    k = left.shape[1]
    row_views = left.reshape(-1, v, k)
    out = np.empty(rows.size, dtype=np.float32)
    per_pair = v * v + 2 * v * k
    step = _batch(4 * per_pair)
    for p in range(0, rows.size, step):
        r, c = rows[p : p + step], cols[p : p + step]
        a, b, g = np.split(buf[: r.size * per_pair], [r.size * v * k, 2 * r.size * v * k])
        # "clip" fills the buffer without a temporary; every index is in range.
        a = row_views.take(r, axis=0, out=a.reshape(r.size, v, k), mode="clip")
        b = right.take(c, axis=0, out=b.reshape(r.size, k, v), mode="clip")
        g = np.matmul(a, b, out=g.reshape(r.size, v, v))
        out[p : p + step] = np.minimum.reduceat(g.ravel(), np.arange(0, g.size, v * v))
    return out


def _group_floor(
    coords: np.ndarray, aug: AugmentationSet, rows: np.ndarray, cols: np.ndarray, buf: np.ndarray
) -> np.ndarray:
    """Floor of the distance fl(√c) of each sample pair (rows[k], cols[k]),
    from the (D, N·V) ``coords``' group centers: each discrete view, and
    the mean of each run of ``grid_resolution`` consecutive grid views. The
    derivation is in ``distance_levels``."""
    d, n = coords.shape[0], coords.shape[1] // aug.num_views
    views, m = coords.reshape(d, n, -1), aug.num_discrete
    runs = views[:, :, m:].reshape(d, n, -1, aug.grid_resolution)
    centers = runs.mean(axis=3)
    widest = 0.0
    for k in range(aug.grid_resolution):
        gap = runs[..., k] - centers
        widest = max(widest, float(np.einsum("ijk,ijk->jk", gap, gap).max()))
    rho = _center_radius(widest, d)
    groups = np.concatenate([views[:, :, :m], centers], axis=2)
    g = groups.shape[2]
    columns, left, bound, scale = _lifted(groups.reshape(d, n * g), g)
    low = _unscaled(_pair_minima(left, columns, g, rows, cols, buf), -bound, scale)
    t = np.nextafter(np.nextafter(np.sqrt(np.maximum(low, 0.0)), -np.inf) - 2.0 * rho, -np.inf)
    floor = np.nextafter(t * (1.0 - (d + 3) * _EPS64), -np.inf)
    return np.nextafter(floor - math.sqrt(_UNDERFLOW64), -np.inf)


def _center_radius(w: float | np.ndarray, d: int) -> float | np.ndarray:
    """Rounded-up bound ρ = √((w + 2^-1000)·(1 + (d + 3)·eps64)) on the real
    distance from a float64 center to each of its float64 views in d
    coordinates, w the largest float64 sum of a view's d squared
    differences, in any order; w may hold one value per center. Any point
    is a sound center, so a rounded mean serves.

    With u = 2^-53, eps64 = 2u and γ_n = n·u/(1 − n·u) (Higham 2002,
    §3.1), a term has at most d + 1 roundings (difference, square and
    d − 1 additions), and an underflowing square loses at most 2^-1075
    (differences and sums are exact there). So a real squared distance t
    has (1 − u)^(d+1)·t − d·2^-1075 ≤ w, and t ≤ (1 + γ_{d+1})·(w +
    d·2^-1075) ≤ (w + 2^-1000)·(1 + (d + 3)·eps64) for d < 2^70.
    """
    up = np.nextafter(np.nextafter(w + _UNDERFLOW64, np.inf) * (1.0 + (d + 3) * _EPS64), np.inf)
    return np.nextafter(np.sqrt(up), np.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _exact_extremes(
    coords: np.ndarray, v: int, rows: np.ndarray, cols: np.ndarray, reduce: np.ufunc
) -> np.ndarray:
    """Exact extreme squared view distance of each sample pair (rows[k],
    cols[k]), the smallest for ``reduce`` = ``np.minimum`` and the largest
    for ``np.maximum``, by ``_sqeuclidean`` on the contiguous (D, N·V)
    ``coords``, as many pairs at a time as fit half a ``TILE_BYTES``
    (``_batch``)."""
    d = coords.shape[0]
    grid = coords.reshape(d, -1, v)
    out = np.empty(rows.size)
    step = _batch(8 * d * v * v)
    for k in range(0, rows.size, step):
        a = grid[:, rows[k : k + step], :, None]
        b = grid[:, cols[k : k + step], None, :]
        out[k : k + step] = reduce.reduce(_sqeuclidean(a, b).reshape(a.shape[1], -1), axis=1)
    return out


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
    the rows may hold any number of view batches. Every uniform was drawn in
    [0, 1), so each θ is applied by ``Transform._map`` unchecked.
    """
    b, rows = disc_idx.shape[-1], disc_idx.size
    n = aug.num_continuous_params
    # Every row drawn discrete (all rows when n == 0) is replaced below.
    out = points
    if n:
        thetas = uniforms[..., b:].reshape(rows, n)
        for j, trans in enumerate(aug.continuous):
            out = trans._map(out, thetas[:, j : j + 1])
    take_discrete = (uniforms[..., :b].reshape(rows) < 0.5) | (n == 0)
    disc_idx = disc_idx.reshape(rows)
    for idx, trans in enumerate(aug.discrete):
        selected = (take_discrete & (disc_idx == idx))[:, None]
        out = np.where(selected, trans._map(points, None), out)
    return out
