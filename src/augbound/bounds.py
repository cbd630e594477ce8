"""Closed-form guarantees for contrastive encoders, verified numerically.

All functions are pure and total on their stated domains: they evaluate
the literal formulas relating concentration (sigma, delta), alignment
(epsilon, r_eps), loss levels (l1, l2), and classifier geometry (center
products, priors, radius) to error-rate and center-separation guarantees.
The numbered names (theorem1 ... theorem4, lemma5) follow the result
numbering used throughout this package's reports, so report keys like
``thm1.bound`` are stable identifiers.

Conventions: the classifier is the nearest-center rule; r is the
embedding norm scale, as measured with the embeddings (1 on the unit
sphere, sqrt(d) for standardized embeddings); L is a certified Lipschitz
constant of the embedding map. Reports never feed an InfoNCE loss level
into the cross-correlation separation bound or the other way round.

A ``BoundReport`` evaluates every applicable bound when it is made, from
its inputs and measurements, and keeps both in memory for the checks that
compare them with the bounds. Its flat form, the rows of
``bounds.csv``, holds only what the formulas derive: each measured value
is on disk once, in ``concentration.csv`` or ``evaluation.csv``.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundInputs",
    "EmpiricalMeasurements",
    "PairBound",
    "BoundReport",
    "rho",
    "rho_max",
    "delta_mu",
    "divergence_threshold",
    "theorem1_bound",
    "eta",
    "theorem2_bound",
    "tau",
    "theorem3_bound",
    "lemma5_moments",
    "tau_prime",
    "theorem4_bound",
    "full_report",
]


def rho(
    sigma: float,
    delta: float,
    epsilon: float,
    r_eps: float,
    prior: float,
    lipschitz: float,
    radius: float,
) -> float:
    """Mass a class can lose to poor concentration or misalignment:

        rho = 2 (1 - sigma) + r_eps / prior + sigma (L delta / r + 2 eps / r)
    """
    if prior <= 0:
        raise ValueError("prior must be positive")
    if radius <= 0:
        raise ValueError("radius must be positive")
    return (
        2.0 * (1.0 - sigma)
        + r_eps / prior
        + sigma * (lipschitz * delta / radius + 2.0 * epsilon / radius)
    )


def rho_max(
    sigma: float,
    delta: float,
    epsilon: float,
    r_eps: float,
    priors: tuple[float, ...],
    lipschitz: float,
    radius: float,
) -> float:
    """Worst-case rho over classes: evaluated at the smallest prior.

    For r_eps >= 0, rho is non-increasing in the prior under correctly
    rounded division and addition, so this is the very float of the largest
    per-class rho, which a ``BoundReport`` takes.
    """
    if not priors:
        raise ValueError("priors must be non-empty")
    return rho(sigma, delta, epsilon, r_eps, min(priors), lipschitz, radius)


def delta_mu(centers: np.ndarray, radius: float) -> float:
    """1 - min_k ||mu_k||^2 / r^2 of (K, d) class centers; zero when every
    center reaches the shell of radius r."""
    return 1.0 - float(np.min(np.sum(centers**2, axis=1))) / radius**2


def divergence_threshold(rho_max_value: float, delta_mu: float, radius: float) -> float:
    """Center-product level below which every sample in a tight, aligned
    main part lands on its own class center:

        r^2 (1 - rho_max - sqrt(2 rho_max) - delta_mu / 2)

    Negative rho_max is clamped to zero under the square root.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    r = max(rho_max_value, 0.0)
    return radius**2 * (1.0 - rho_max_value - math.sqrt(2.0 * r) - delta_mu / 2.0)


def theorem1_bound(sigma: float, r_eps: float, condition_holds: bool) -> tuple[float, bool]:
    """Error bound (1 - sigma) + r_eps, valid when every pairwise center
    product clears the divergence threshold. Clamped to [0, 1]."""
    value = min(max((1.0 - sigma) + r_eps, 0.0), 1.0)
    return value, bool(condition_holds)


def eta(
    epsilon: float,
    num_continuous: int,
    num_discrete: int,
    lipschitz: float,
    transform_lipschitz: float,
) -> float:
    """Alignment-to-probability conversion factor

        eta(eps) = inf_h 4 max(1, m^2 h^(2n)) / (h^(2n) (eps - s h)),
        s = 2 sqrt(n) L M,

    over h in (0, eps / s), in closed form. Up to h = m^(-1/n) the objective
    is 4 / (h^(2n) (eps - s h)), smallest at h1 = 2n eps / ((2n + 1) s);
    beyond it, 4 m^2 / (eps - s h) rises with h. So the infimum is the
    objective at h* = min(h1, m^(-1/n)). With n = 0 (or L M = 0) the factor
    is 4 m^2 / eps. A tiny eps puts the factor beyond the float range; once
    the denominator is below the smallest normal float it is ``inf``.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if not (isinstance(num_continuous, (int, np.integer)) and num_continuous >= 0):
        raise ValueError("num_continuous must be a non-negative integer")
    if not (isinstance(num_discrete, (int, np.integer)) and num_discrete >= 1):
        raise ValueError("num_discrete must be an integer: at least the identity transform")
    if not (0.0 <= lipschitz < math.inf and 0.0 <= transform_lipschitz < math.inf):
        raise ValueError("lipschitz constants must be non-negative and finite")
    m2 = float(num_discrete) ** 2
    n = int(num_continuous)
    if n == 0 or lipschitz * transform_lipschitz == 0.0:
        return 4.0 * m2 / epsilon
    slope = 2.0 * math.sqrt(n) * lipschitz * transform_lipschitz
    h = min(2.0 * n * epsilon / ((2.0 * n + 1.0) * slope), float(num_discrete) ** (-1.0 / n))
    h2n = h ** (2 * n)
    denominator = h2n * (epsilon - slope * h)
    if denominator < sys.float_info.min:
        return math.inf
    return 4.0 * max(1.0, m2 * h2n) / denominator


def theorem2_bound(eta_value: float, l_pos: float) -> float:
    """Upper bound on r_eps from the positive-pair loss:
    eta * sqrt(l_pos), clamped to [0, 1] for reporting. An infinite eta gives
    the trivial bound 1, since r_eps <= 1."""
    if not (eta_value >= 0 and l_pos >= 0):
        raise ValueError("eta and l_pos must be non-negative")
    if eta_value == math.inf:
        return 1.0
    return min(eta_value * math.sqrt(l_pos), 1.0)


def tau(
    epsilon: float,
    sigma: float,
    delta: float,
    num_classes: int,
    r_eps: float,
    lipschitz: float,
) -> float:
    """Gap between the InfoNCE divergence term and the center products:

        b = 1 - sigma (1 - eps/2 - L delta/4) + K r_eps
        tau = 16 b^2 + 8 b + (eps - 1)/K + 2 r_eps
    """
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    b = 1.0 - sigma * (1.0 - epsilon / 2.0 - lipschitz * delta / 4.0) + num_classes * r_eps
    return 16.0 * b**2 + 8.0 * b + (epsilon - 1.0) / num_classes + 2.0 * r_eps


def theorem3_bound(
    l2: float, tau_value: float, p_k: float, p_l: float, epsilon: float
) -> tuple[float, bool]:
    """Center-product bound from the InfoNCE divergence term:

        mu_k . mu_l <= log(exp((l2 + tau) / (p_k p_l)) - exp(1 - eps))

    evaluated in log space as a + log1p(-exp(b - a)) with
    a = (l2 + tau)/(p_k p_l) and b = 1 - eps. Out of domain (a <= b) the
    inequality carries no information; the flag is False and the value nan.
    """
    if p_k <= 0 or p_l <= 0:
        raise ValueError("class priors must be positive")
    a = (l2 + tau_value) / (p_k * p_l)
    b = 1.0 - epsilon
    if a <= b:
        return float("nan"), False
    return a + math.log1p(-math.exp(b - a)), True


def lemma5_moments(
    epsilon: float,
    sigma: float,
    delta: float,
    radius: float,
    lipschitz: float,
    r_eps: float,
    prior: float,
) -> tuple[float, float]:
    """Bounds on the intra-class moments E||f - mu_k|| and E||f - mu_k||^2:

        first  <= 4 r (1 - sigma (1 - eps/(2r) - L delta/(4r)) + r_eps / p_k)
        second <= (2 eps + L delta)^2
                  + 4 r (1 - sigma + r_eps / p_k) (r + 2 eps + L delta)
                  + 4 r^2 (1 - sigma + r_eps / p_k)^2
    """
    if prior <= 0:
        raise ValueError("prior must be positive")
    if radius <= 0:
        raise ValueError("radius must be positive")
    slack = 1.0 - sigma + r_eps / prior
    first = 4.0 * radius * (
        1.0
        - sigma * (1.0 - epsilon / (2.0 * radius) - lipschitz * delta / (4.0 * radius))
        + r_eps / prior
    )
    width = 2.0 * epsilon + lipschitz * delta
    second = width**2 + 4.0 * radius * slack * (radius + width) + 4.0 * radius**2 * slack**2
    return first, second


def tau_prime(
    epsilon: float,
    sigma: float,
    delta: float,
    dim: int,
    num_classes: int,
    r_eps: float,
    lipschitz: float,
    l1: float,
    priors: tuple[float, ...],
) -> float:
    """Gap term for the cross-correlation separation bound:

        t = (2 eps + L delta) / (2 sqrt(d))
        tau' = 4 d (1 - sigma + t)^2 + 4 (1 - sigma) d
               + 8 d K r_eps (3/2 - sigma + t)
               + 4 d r_eps^2 sum_k 1/p_k
               + sqrt(2) d^(3/4) l1^(1/4)
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if l1 < 0:
        raise ValueError("l1 must be non-negative")
    if any(p <= 0 for p in priors):
        raise ValueError("class priors must be positive")
    t = (2.0 * epsilon + lipschitz * delta) / (2.0 * math.sqrt(dim))
    inv_prior_sum = sum(1.0 / p for p in priors)
    return (
        4.0 * dim * (1.0 - sigma + t) ** 2
        + 4.0 * (1.0 - sigma) * dim
        + 8.0 * dim * num_classes * r_eps * (1.5 - sigma + t)
        + 4.0 * dim * r_eps**2 * inv_prior_sum
        + math.sqrt(2.0) * dim**0.75 * l1**0.25
    )


def theorem4_bound(
    l2: float, tau_prime_value: float, p_k: float, p_l: float, dim: int, num_classes: int
) -> tuple[float, bool]:
    """Center-product bound from the cross-correlation divergence term:

        mu_k . mu_l <= sqrt((2 / (p_k p_l)) (l2 + tau' - (d - K)/2))

    Out of domain when the radicand is negative (flag False, value nan).
    """
    if p_k <= 0 or p_l <= 0:
        raise ValueError("class priors must be positive")
    radicand = (2.0 / (p_k * p_l)) * (l2 + tau_prime_value - (dim - num_classes) / 2.0)
    if radicand < 0:
        return float("nan"), False
    return math.sqrt(radicand), True


# ---------------------------------------------------------------------------
# Assembled report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundInputs:
    """Everything the guarantee formulas consume, in one place.

    ``loss_kind`` decides which separation bound applies. ``radius`` is the
    embedding norm scale r and ``dim`` the embedding dimension d. The class
    centers enter through ``delta_mu`` and ``mu_products``, the products
    mu_k . mu_l of every class pair k < l in row order (0_1, 0_2, ..., 1_2,
    ...), measured under the same view distribution as the loss levels; K
    is the number of ``priors``, each positive. ``r_eps`` is a fraction of
    samples, in [0, 1].
    """

    sigma: float
    delta: float
    epsilon: float
    r_eps: float
    l_pos: float
    lipschitz: float
    num_discrete: int
    num_continuous: int
    transform_lipschitz: float
    priors: tuple[float, ...]
    loss_kind: str
    l1: float
    l2: float
    radius: float
    dim: int
    delta_mu: float
    mu_products: tuple[float, ...]

    def __post_init__(self) -> None:
        missing = [name for name, value in self.__dict__.items() if value is None]
        if missing:
            raise ValueError(f"bound inputs missing: {', '.join(sorted(missing))}")
        if self.loss_kind not in ("info_nce", "cross_corr", "simple"):
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if not self.priors or not all(p > 0 for p in self.priors):
            raise ValueError("priors must be non-empty and positive")
        k = len(self.priors)
        products = tuple(float(p) for p in self.mu_products)
        if len(products) != k * (k - 1) // 2:
            raise ValueError("mu_products must hold one product per class pair k < l")
        if not all(math.isfinite(p) for p in products):
            raise ValueError("mu_products must be finite")
        object.__setattr__(self, "mu_products", products)
        for name in (
            "sigma", "delta", "epsilon", "r_eps", "l_pos", "lipschitz",
            "transform_lipschitz", "l1", "l2", "radius", "delta_mu",
        ):
            if not math.isfinite(float(getattr(self, name))):
                raise ValueError(f"bound input {name!r} must be finite")
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError("sigma must lie in (0, 1]")
        if not 0.0 <= self.r_eps <= 1.0:
            raise ValueError("r_eps must lie in [0, 1]")

    @property
    def num_classes(self) -> int:
        return len(self.priors)


@dataclass(frozen=True)
class EmpiricalMeasurements:
    """Measured counterparts for the report's comparison block."""

    err: float
    class_first_moments: tuple[float, ...]
    class_second_moments: tuple[float, ...]


@dataclass(frozen=True)
class PairBound:
    class_k: int
    class_l: int
    value: float
    in_domain: bool
    empirical: float


class BoundReport:
    """All guarantee values, validity flags, and empirical comparisons.

    Made from the inputs and the measurements, it evaluates each guarantee
    once, into the attribute that holds it. The separation bound matching
    ``loss_kind`` is evaluated per class pair; the other one is reported as
    not applicable (``None`` and no pairs) rather than fed the wrong loss
    level. Combined error bounds are flagged valid only when every pair
    bound is in domain and clears the divergence threshold. Treat instances
    as immutable.
    """

    tau: float | None = None
    thm3_pairs: tuple[PairBound, ...] = ()
    combined_infonce: tuple[float, bool] | None = None
    tau_prime: float | None = None
    thm4_pairs: tuple[PairBound, ...] = ()
    combined_crosscorr: tuple[float, bool] | None = None

    def __init__(self, inputs: BoundInputs, empirical: EmpiricalMeasurements) -> None:
        self.inputs = inputs
        self.empirical = empirical
        self.rho_per_class = tuple(
            rho(
                inputs.sigma,
                inputs.delta,
                inputs.epsilon,
                inputs.r_eps,
                p,
                inputs.lipschitz,
                inputs.radius,
            )
            for p in inputs.priors
        )
        self.rho_max = max(self.rho_per_class)
        self.threshold = divergence_threshold(self.rho_max, inputs.delta_mu, inputs.radius)
        self.condition_holds = all(product < self.threshold for product in inputs.mu_products)
        self.thm1_bound, self.thm1_valid = theorem1_bound(
            inputs.sigma, inputs.r_eps, self.condition_holds
        )
        self.eta = eta(
            inputs.epsilon,
            inputs.num_continuous,
            inputs.num_discrete,
            inputs.lipschitz,
            inputs.transform_lipschitz,
        )
        self.thm2_bound = theorem2_bound(self.eta, inputs.l_pos)
        moments = [
            lemma5_moments(
                inputs.epsilon,
                inputs.sigma,
                inputs.delta,
                inputs.radius,
                inputs.lipschitz,
                inputs.r_eps,
                p,
            )
            for p in inputs.priors
        ]
        self.lemma5_first = tuple(first for first, _ in moments)
        self.lemma5_second = tuple(second for _, second in moments)
        if inputs.loss_kind == "info_nce":
            self.tau = tau(
                inputs.epsilon,
                inputs.sigma,
                inputs.delta,
                inputs.num_classes,
                inputs.r_eps,
                inputs.lipschitz,
            )
            self.thm3_pairs = self._pair_bounds(
                lambda p_k, p_l: theorem3_bound(inputs.l2, self.tau, p_k, p_l, inputs.epsilon)
            )
            value = (1.0 - inputs.sigma) + self.eta * math.sqrt(max(2.0 + 2.0 * inputs.l1, 0.0))
            self.combined_infonce = (value, self._separated(self.thm3_pairs))
        elif inputs.loss_kind == "cross_corr":
            self.tau_prime = tau_prime(
                inputs.epsilon,
                inputs.sigma,
                inputs.delta,
                inputs.dim,
                inputs.num_classes,
                inputs.r_eps,
                inputs.lipschitz,
                inputs.l1,
                inputs.priors,
            )
            self.thm4_pairs = self._pair_bounds(
                lambda p_k, p_l: theorem4_bound(
                    inputs.l2, self.tau_prime, p_k, p_l, inputs.dim, inputs.num_classes
                )
            )
            value = (1.0 - inputs.sigma) + math.sqrt(2.0) * self.eta * inputs.dim**0.25 * max(
                inputs.l1, 0.0
            ) ** 0.25
            self.combined_crosscorr = (value, self._separated(self.thm4_pairs))

    def _pair_bounds(self, bound) -> tuple[PairBound, ...]:
        """``bound(p_k, p_l)`` of every class pair k < l, with its measured product."""
        priors = self.inputs.priors
        pairs = itertools.combinations(range(len(priors)), 2)
        return tuple(
            PairBound(k, l, *bound(priors[k], priors[l]), product)
            for (k, l), product in zip(pairs, self.inputs.mu_products)
        )

    def _separated(self, pairs: tuple[PairBound, ...]) -> bool:
        return bool(pairs) and all(p.in_domain and p.value < self.threshold for p in pairs)

    def to_flat_dict(self) -> dict[str, object]:
        """Stable key-value view of the derived values: the rows of a
        ``bounds.csv`` cell. The inputs and measurements are not repeated
        here; ``concentration.csv`` and ``evaluation.csv`` hold them."""
        out: dict[str, object] = {}
        for k, value in enumerate(self.rho_per_class):
            out[f"rho.class_{k}"] = value
        out["rho.max"] = self.rho_max
        out["thm1.threshold"] = self.threshold
        out["thm1.condition_holds"] = self.condition_holds
        out["thm1.bound"] = self.thm1_bound
        out["thm1.valid"] = self.thm1_valid
        out["thm2.eta"] = self.eta
        out["thm2.bound"] = self.thm2_bound
        for thm, gap_name, gap, pairs in (
            ("thm3", "tau", self.tau, self.thm3_pairs),
            ("thm4", "tau_prime", self.tau_prime, self.thm4_pairs),
        ):
            if gap is not None:
                out[f"{thm}.{gap_name}"] = gap
            for pair in pairs:
                out[f"{thm}.bound.{pair.class_k}_{pair.class_l}"] = pair.value
                out[f"{thm}.in_domain.{pair.class_k}_{pair.class_l}"] = pair.in_domain
            if pairs:
                out[f"{thm}.in_domain"] = all(p.in_domain for p in pairs)
        for k, (first, second) in enumerate(zip(self.lemma5_first, self.lemma5_second)):
            out[f"lemma5.first.class_{k}"] = first
            out[f"lemma5.second.class_{k}"] = second
        if self.combined_infonce is not None:
            out["combined.infonce.bound"] = self.combined_infonce[0]
            out["combined.infonce.valid"] = self.combined_infonce[1]
        if self.combined_crosscorr is not None:
            out["combined.crosscorr.bound"] = self.combined_crosscorr[0]
            out["combined.crosscorr.valid"] = self.combined_crosscorr[1]
        return out


def full_report(inputs: BoundInputs, empirical: EmpiricalMeasurements) -> BoundReport:
    """Every applicable guarantee, paired with its measurements."""
    return BoundReport(inputs, empirical)
