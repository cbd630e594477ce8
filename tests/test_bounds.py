"""Closed-form guarantee formulas, domain flags, and the assembled report."""

import itertools
import math

import numpy as np
import pytest

from augbound.bounds import (
    BoundInputs,
    EmpiricalMeasurements,
    delta_mu,
    divergence_threshold,
    eta,
    full_report,
    lemma5_moments,
    rho,
    rho_max,
    tau,
    tau_prime,
    theorem1_bound,
    theorem2_bound,
    theorem3_bound,
    theorem4_bound,
)


# ---------------------------------------------------------------------------
# rho and the divergence threshold
# ---------------------------------------------------------------------------


def test_rho_perfect_concentration_is_zero():
    assert rho(1.0, 0.0, 0.0, 0.0, 0.5, 3.0, 1.0) == 0.0


def test_rho_hand_value():
    # 2*0.1 + 0.01/0.5 + 0.9*(0.1 + 0.1)
    assert rho(0.9, 0.1, 0.05, 0.01, 0.5, 1.0, 1.0) == pytest.approx(0.40, abs=1e-12)


def test_rho_epsilon_term_only():
    for eps in (0.01, 0.3, 2.0):
        assert rho(1.0, 0.0, eps, 0.0, 0.25, 5.0, 1.0) == pytest.approx(2 * eps)
        assert rho(1.0, 0.0, eps, 0.0, 0.25, 5.0, 4.0) == pytest.approx(eps / 2)


def test_rho_input_validation():
    with pytest.raises(ValueError, match="prior"):
        rho(1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="radius"):
        rho(1.0, 0.0, 0.0, 0.0, 0.5, 1.0, 0.0)


def test_rho_max_uses_smallest_prior():
    priors = (0.5, 0.2, 0.3)
    worst = rho_max(0.9, 0.1, 0.05, 0.01, priors, 1.0, 1.0)
    assert worst == rho(0.9, 0.1, 0.05, 0.01, 0.2, 1.0, 1.0)
    assert worst == max(rho(0.9, 0.1, 0.05, 0.01, p, 1.0, 1.0) for p in priors)
    with pytest.raises(ValueError, match="non-empty"):
        rho_max(1.0, 0.0, 0.0, 0.0, (), 1.0, 1.0)


def test_divergence_threshold_values():
    assert divergence_threshold(0.0, 0.0, 1.0) == 1.0
    assert divergence_threshold(0.5, 0.0, 1.0) == pytest.approx(-0.5, abs=1e-12)
    assert divergence_threshold(0.0, 0.0, 2.0) == 4.0
    assert divergence_threshold(0.0, 1.0, 1.0) == pytest.approx(0.5)


def test_theorem1_bound_values_and_flag():
    assert theorem1_bound(1.0, 0.0, True) == (0.0, True)
    value, valid = theorem1_bound(0.8, 0.05, True)
    assert value == pytest.approx(0.25)
    assert valid
    value, valid = theorem1_bound(0.8, 0.05, False)
    assert value == pytest.approx(0.25)
    assert not valid
    assert theorem1_bound(0.2, 0.9, True)[0] == 1.0  # clamped


def test_theorem1_bound_monotone_in_sigma():
    values = [theorem1_bound(s, 0.05, True)[0] for s in np.linspace(0.1, 1.0, 13)]
    assert all(a >= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# eta and the alignment-probability conversion
# ---------------------------------------------------------------------------


def test_eta_stationary_point_value():
    # 4 / (h^2 (1 - 2h)) has its stationary point at h = 1/3 with value 108
    assert eta(1.0, 1, 1, 1.0, 1.0) == pytest.approx(108.0, abs=1e-4)


def test_eta_discrete_only_limit():
    assert eta(0.5, 0, 3, 7.0, 2.0) == pytest.approx(4 * 9 / 0.5)
    assert eta(0.5, 2, 3, 0.0, 5.0) == pytest.approx(4 * 9 / 0.5)
    assert eta(0.5, 2, 3, 5.0, 0.0) == pytest.approx(4 * 9 / 0.5)


def test_eta_non_increasing_in_epsilon():
    values = [eta(e, 1, 2, 1.5, 0.8) for e in np.linspace(0.05, 2.0, 25)]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_eta_m_doubling_quadruples_in_saturated_regime():
    # For large m the minimum sits at the max() crossover h0 = 1/m, where
    # the value is 4 m^2 / (eps - 2 h0).
    got_100 = eta(1.0, 1, 100, 1.0, 1.0)
    got_200 = eta(1.0, 1, 200, 1.0, 1.0)
    assert got_100 == pytest.approx(4e4 / (1 - 0.02), rel=1e-3)
    assert got_200 == pytest.approx(16e4 / (1 - 0.01), rel=1e-3)
    assert got_200 / got_100 == pytest.approx(4.0, rel=0.02)


def test_eta_is_an_upper_bound_of_fine_scan():
    # any feasible h gives a valid bound, and eta() is the smallest of them
    eps, n, m, lip, tlip = 0.7, 2, 3, 1.3, 0.6
    got = eta(eps, n, m, lip, tlip)
    slope = 2 * math.sqrt(n) * lip * tlip
    h = np.linspace(1e-9, eps / slope * (1 - 1e-9), 200_001)
    scan = (4 * np.maximum(1.0, m**2 * h ** (2 * n))) / (
        h ** (2 * n) * (eps - slope * h)
    )
    assert got <= scan.min() * (1 + 1e-6)
    assert got >= scan.min() * (1 - 1e-4)


def _eta_grid_minimum(eps, n, m, slope, points=401, zooms=4):
    """Minimum of the eta objective over a log grid of h in (0, eps / slope),
    refined ``zooms`` times around the grid minimum; one row per tuple."""
    h_max = eps / slope
    lo = np.log(h_max * 1e-8)
    hi = np.log(h_max * (1.0 - 1e-12))
    best = np.full(eps.shape, np.inf)
    for _ in range(zooms + 1):
        h = np.exp(np.linspace(lo, hi, points, axis=1))
        h2n = h ** (2 * n[:, None])
        values = 4.0 * np.maximum(1.0, m[:, None] ** 2 * h2n) / (
            h2n * (eps[:, None] - slope[:, None] * h)
        )
        best = np.minimum(best, values.min(axis=1))
        at = values.argmin(axis=1)
        step = (hi - lo) / (points - 1)
        centre = lo + at * step
        lo = np.maximum(centre - step, lo)
        hi = np.minimum(centre + step, hi)
    return best


def test_eta_closed_form_matches_a_dense_grid_in_both_regimes():
    rng = np.random.default_rng(2111)
    count = 3000
    eps = 10.0 ** rng.uniform(-3, 1, count)
    n = rng.integers(1, 4, count)
    m = np.round(10.0 ** rng.uniform(0, 2, count)).astype(int)
    lip = 10.0 ** rng.uniform(-2, 2, count)
    tlip = 10.0 ** rng.uniform(-2, 1, count)
    slope = 2.0 * np.sqrt(n) * lip * tlip
    got = np.array(
        [eta(float(e), int(k), int(j), float(a), float(b))
         for e, k, j, a, b in zip(eps, n, m, lip, tlip)]
    )
    grid = _eta_grid_minimum(eps, n, m, slope)
    # h1 = 2n eps / ((2n + 1) s) against the crossover m^(-1/n)
    stationary = 2 * n * eps / ((2 * n + 1) * slope) < m ** (-1.0 / n)
    assert 500 <= stationary.sum() <= count - 500
    # Both sides are float64 evaluations of the objective, each within a few
    # ulps, so eta may sit above a grid point that ties with h* by rounding
    # alone; 1e-14 allows that and nothing more (a numeric search was up to
    # 6.9e-7 above on these tuples).
    assert (got <= grid * (1.0 + 1e-14)).all()
    assert (got >= grid * (1.0 - 1e-6)).all()


def test_eta_rejects_bad_arguments():
    with pytest.raises(ValueError, match="epsilon"):
        eta(0.0, 1, 1, 1.0, 1.0)
    with pytest.raises(ValueError, match="identity"):
        eta(0.5, 1, 0, 1.0, 1.0)


@pytest.mark.parametrize(
    "args, fragment",
    [
        ((math.nan, 1, 1, 1.0, 1.0), "epsilon"),
        ((math.inf, 1, 1, 1.0, 1.0), "epsilon"),
        ((0.5, 1, 1, math.nan, 1.0), "lipschitz"),
        ((0.5, 1, 1, -1.0, 1.0), "lipschitz"),
        ((0.5, 1, 1, math.inf, 1.0), "lipschitz"),
        ((0.5, 1, 1, 1.0, -1.0), "lipschitz"),
        ((0.5, 1.5, 1, 1.0, 1.0), "num_continuous"),
        ((0.5, 1, 1.5, 1.0, 1.0), "num_discrete"),
    ],
    ids=[
        "nan epsilon", "inf epsilon", "nan lipschitz", "negative lipschitz",
        "inf lipschitz", "negative transform lipschitz", "fractional num_continuous",
        "fractional num_discrete",
    ],
)
def test_eta_rejects_bad_library_input(args, fragment):
    with pytest.raises(ValueError, match=fragment):
        eta(*args)


@pytest.mark.parametrize("epsilon", [1e-44, 1e-46, 1e-60])
def test_eta_is_infinite_for_a_tiny_epsilon(epsilon):
    # The factor passes the float range; from 1e-46 down the denominator
    # h*^(2n) (eps - s h*) underflows to 0.
    assert eta(epsilon, 3, 1, 1.0, 1.0) == math.inf


def test_theorem2_bound_with_infinite_eta_is_trivial():
    # r_eps <= 1, so 1 is sound even where inf * sqrt(0) would be nan.
    assert theorem2_bound(math.inf, 0.0) == 1.0
    assert theorem2_bound(math.inf, 0.25) == 1.0


def test_theorem2_bound_rejects_nan():
    with pytest.raises(ValueError, match="non-negative"):
        theorem2_bound(math.nan, 0.1)
    with pytest.raises(ValueError, match="non-negative"):
        theorem2_bound(1.0, math.nan)


def test_theorem2_bound_values():
    assert theorem2_bound(108.0, 0.0) == 0.0
    assert theorem2_bound(108.0, 1e-6) == pytest.approx(0.108, abs=1e-12)
    assert theorem2_bound(10.0, 1.0) == 1.0  # clamped for reporting
    with pytest.raises(ValueError):
        theorem2_bound(1.0, -0.1)


# ---------------------------------------------------------------------------
# tau / theorem 3
# ---------------------------------------------------------------------------


def test_tau_collapses_to_minus_one_over_k():
    assert tau(0.0, 1.0, 0.0, 10, 0.0, 1.0) == pytest.approx(-0.1, abs=1e-12)
    assert tau(0.0, 1.0, 0.0, 1, 0.0, 1.0) == pytest.approx(-1.0, abs=1e-12)


def test_tau_hand_value():
    # b = 1 - 0.9*(1 - 0.05 - 0.05) + 2*0.01 = 0.21
    eps, sig, delta, K, reps, lip = 0.1, 0.9, 0.1, 2, 0.01, 2.0
    b = 1 - sig * (1 - eps / 2 - lip * delta / 4) + K * reps
    expected = 16 * b**2 + 8 * b + (eps - 1) / K + 2 * reps
    assert tau(eps, sig, delta, K, reps, lip) == pytest.approx(expected, abs=1e-12)
    assert b == pytest.approx(0.21)


def test_tau_monotone_in_r_eps():
    values = [tau(0.1, 0.9, 0.05, 4, r, 1.0) for r in np.linspace(0, 0.5, 21)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        tau(0.1, 0.9, 0.05, 0, 0.0, 1.0)


def test_theorem3_boundary_is_out_of_domain():
    p_k = p_l = 0.5
    eps = 0.2
    l2_plus_tau = p_k * p_l * (1 - eps)  # argument difference exactly zero
    value, in_domain = theorem3_bound(l2_plus_tau, 0.0, p_k, p_l, eps)
    assert not in_domain
    assert math.isnan(value)
    # and slightly below
    value, in_domain = theorem3_bound(l2_plus_tau - 1e-6, 0.0, p_k, p_l, eps)
    assert not in_domain


def test_theorem3_doubling_identity():
    # exp(bound) + exp(1-eps) = 2 exp(1-eps)  =>  bound = 1 - eps
    for eps, p_k, p_l in ((0.1, 0.5, 0.5), (0.4, 0.3, 0.7)):
        target = p_k * p_l * (1 - eps + math.log(2.0))
        value, in_domain = theorem3_bound(target, 0.0, p_k, p_l, eps)
        assert in_domain
        assert value == pytest.approx(1 - eps, abs=1e-12)


def test_theorem3_matches_naive_evaluation():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p_k, p_l = rng.uniform(0.1, 0.9, size=2)
        eps = float(rng.uniform(0.01, 0.9))
        l2 = float(rng.uniform(-1, 3))
        t = float(rng.uniform(-1, 3))
        a = (l2 + t) / (p_k * p_l)
        if a > 500:  # keep the naive path under overflow
            continue
        value, in_domain = theorem3_bound(l2, t, p_k, p_l, eps)
        diff = math.exp(a) - math.exp(1 - eps)
        if diff <= 0:
            assert not in_domain
        else:
            assert in_domain
            assert value == pytest.approx(math.log(diff), abs=1e-9)


def test_theorem3_survives_huge_exponents():
    value, in_domain = theorem3_bound(500.0, 500.0, 0.5, 0.5, 0.1)
    assert in_domain
    assert value == pytest.approx(4000.0, abs=1e-9)
    with pytest.raises(ValueError):
        theorem3_bound(1.0, 0.0, 0.0, 0.5, 0.1)


# ---------------------------------------------------------------------------
# lemma 5 moments
# ---------------------------------------------------------------------------


def test_lemma5_perfect_case_is_zero():
    assert lemma5_moments(0.0, 1.0, 0.0, 1.0, 3.0, 0.0, 0.5) == (0.0, 0.0)


def test_lemma5_first_moment_hand_value():
    first, _ = lemma5_moments(0.1, 0.9, 0.0, 1.0, 1.0, 0.0, 0.5)
    assert first == pytest.approx(4 * (1 - 0.9 * 0.95), abs=1e-12)  # 0.58


def test_lemma5_second_moment_hand_value():
    eps, sig, delta, r, lip, reps, p = 0.1, 0.8, 0.2, 1.0, 2.0, 0.04, 0.5
    _, second = lemma5_moments(eps, sig, delta, r, lip, reps, p)
    width = 2 * eps + lip * delta
    slack = 1 - sig + reps / p
    expected = width**2 + 4 * r * slack * (r + width) + 4 * r**2 * slack**2
    assert second == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.36 + 1.792 + 0.3136, abs=1e-12)


def test_lemma5_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lemma5_moments(0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        lemma5_moments(0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.5)


# ---------------------------------------------------------------------------
# tau' / theorem 4
# ---------------------------------------------------------------------------


def test_tau_prime_perfect_case_is_zero():
    assert tau_prime(0.0, 1.0, 0.0, 4, 2, 0.0, 1.0, 0.0, (0.5, 0.5)) == 0.0


def test_tau_prime_alignment_term_only():
    got = tau_prime(0.0, 1.0, 0.0, 4, 2, 0.0, 1.0, 1.0, (0.5, 0.5))
    assert got == pytest.approx(4.0, abs=1e-12)  # sqrt(2) * 4^(3/4)


def test_tau_prime_full_hand_value():
    eps, sig, delta, d, K, reps, lip, l1 = 0.1, 0.9, 0.05, 4, 2, 0.02, 2.0, 0.5
    priors = (0.25, 0.75)
    t = (2 * eps + lip * delta) / (2 * math.sqrt(d))
    expected = (
        4 * d * (1 - sig + t) ** 2
        + 4 * (1 - sig) * d
        + 8 * d * K * reps * (1.5 - sig + t)
        + 4 * d * reps**2 * (1 / 0.25 + 1 / 0.75)
        + math.sqrt(2) * d**0.75 * l1**0.25
    )
    assert tau_prime(eps, sig, delta, d, K, reps, lip, l1, priors) == pytest.approx(
        expected, abs=1e-12
    )


def test_tau_prime_monotonicity():
    base = dict(epsilon=0.1, sigma=0.9, delta=0.05, dim=4, num_classes=2,
                r_eps=0.02, lipschitz=1.5, l1=0.3, priors=(0.5, 0.5))

    def evaluate(**overrides):
        merged = {**base, **overrides}
        return tau_prime(
            merged["epsilon"], merged["sigma"], merged["delta"], merged["dim"],
            merged["num_classes"], merged["r_eps"], merged["lipschitz"],
            merged["l1"], merged["priors"],
        )

    for name, grid in (
        ("epsilon", np.linspace(0.0, 1.0, 11)),
        ("delta", np.linspace(0.0, 1.0, 11)),
        ("r_eps", np.linspace(0.0, 0.5, 11)),
        ("l1", np.linspace(0.0, 2.0, 11)),
    ):
        values = [evaluate(**{name: float(v)}) for v in grid]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:])), name
    sig_values = [evaluate(sigma=float(s)) for s in np.linspace(0.2, 1.0, 9)]
    assert all(a >= b - 1e-12 for a, b in zip(sig_values, sig_values[1:]))


def test_tau_prime_rejects_bad_inputs():
    with pytest.raises(ValueError):
        tau_prime(0.0, 1.0, 0.0, 0, 2, 0.0, 1.0, 0.0, (0.5, 0.5))
    with pytest.raises(ValueError):
        tau_prime(0.0, 1.0, 0.0, 4, 2, 0.0, 1.0, -0.1, (0.5, 0.5))
    with pytest.raises(ValueError):
        tau_prime(0.0, 1.0, 0.0, 4, 2, 0.0, 1.0, 0.0, (0.5, 0.0))


def test_theorem4_zero_radicand_and_domain_flag():
    value, in_domain = theorem4_bound(1.0, 0.0, 0.5, 0.5, 4, 2)  # l2 = (d-K)/2
    assert in_domain
    assert value == 0.0
    value, in_domain = theorem4_bound(0.9, 0.0, 0.5, 0.5, 4, 2)
    assert not in_domain
    assert math.isnan(value)


def test_theorem4_hand_value():
    value, in_domain = theorem4_bound(1.0, 0.5, 0.5, 0.5, 4, 2)
    assert in_domain
    assert value == pytest.approx(2.0, abs=1e-12)  # sqrt(8 * 0.5)
    with pytest.raises(ValueError):
        theorem4_bound(1.0, 0.0, 0.5, 0.0, 4, 2)


# ---------------------------------------------------------------------------
# BoundInputs validation
# ---------------------------------------------------------------------------


def _inputs(**overrides):
    base = dict(
        sigma=0.9,
        delta=0.1,
        epsilon=0.25,
        r_eps=0.05,
        l_pos=0.02,
        lipschitz=2.0,
        num_discrete=2,
        num_continuous=1,
        transform_lipschitz=0.5,
        priors=(0.5, 0.5),
        loss_kind="info_nce",
        l1=-0.6,
        l2=1.4,
        radius=1.0,
        dim=2,
        delta_mu=1.0 - 0.8**2,
        mu_products=(0.0,),
    )
    base.update(overrides)
    return BoundInputs(**base)


def test_bound_inputs_enumerate_missing_fields():
    with pytest.raises(ValueError, match="delta, sigma"):
        _inputs(sigma=None, delta=None)


def test_bound_inputs_refuse_bad_center_inputs():
    # One product per class pair k < l: K = 3 has three.
    three = _inputs(priors=(0.25, 0.25, 0.5), mu_products=(0.1, -0.2, 0.3))
    assert (three.num_classes, three.mu_products) == (3, (0.1, -0.2, 0.3))
    for priors, products in [
        ((0.5, 0.5), ()),
        ((0.5, 0.5), (0.0, 0.0)),
        ((1.0,), (0.0,)),
        ((0.25, 0.25, 0.5), (0.1, 0.2)),
    ]:
        with pytest.raises(ValueError, match="one product per class pair"):
            _inputs(priors=priors, mu_products=products)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="mu_products must be finite"):
            _inputs(mu_products=(bad,))
        with pytest.raises(ValueError, match="'radius' must be finite"):
            _inputs(radius=bad)
        with pytest.raises(ValueError, match="'delta_mu' must be finite"):
            _inputs(delta_mu=bad)
    with pytest.raises(TypeError, match="centers"):
        _inputs(centers=np.eye(2))


def test_delta_mu_is_one_minus_the_smallest_center_norm_ratio():
    assert delta_mu(np.array([[0.6, 0.8], [0.0, 0.5]]), 1.0) == 1.0 - 0.25
    assert delta_mu(np.array([[2.0, 0.0], [0.0, -2.0]]), 2.0) == 0.0
    assert delta_mu(np.zeros((2, 3)), math.sqrt(3.0)) == 1.0


def test_bound_inputs_reject_bad_values():
    with pytest.raises(ValueError, match="sigma"):
        _inputs(sigma=0.0)
    with pytest.raises(ValueError, match="sigma"):
        _inputs(sigma=1.2)
    with pytest.raises(ValueError, match="finite"):
        _inputs(l1=float("nan"))
    with pytest.raises(ValueError, match="finite"):
        _inputs(mu_products=(np.inf,))
    with pytest.raises(ValueError, match="one product per class pair"):
        _inputs(priors=(1.0,))
    with pytest.raises(ValueError, match="loss kind"):
        _inputs(loss_kind="triplet")
    # r_eps is a fraction of samples; rho_max's smallest-prior shortcut
    # needs r_eps >= 0.
    for r_eps in (-0.1, 1.5):
        with pytest.raises(ValueError, match="r_eps"):
            _inputs(r_eps=r_eps)
    for priors in ((), (0.0, 1.0), (-0.3, 1.3), (float("nan"), 0.5)):
        with pytest.raises(ValueError, match="priors"):
            _inputs(priors=priors, mu_products=())


# ---------------------------------------------------------------------------
# full_report / combined bounds
# ---------------------------------------------------------------------------


def _empirical(num_classes=2):
    return EmpiricalMeasurements(
        err=0.05,
        class_first_moments=(0.1,) * num_classes,
        class_second_moments=(0.02,) * num_classes,
    )


def test_perfect_case_infonce_report():
    # sigma = 1, perfect alignment, orthogonal unit centers, and an l2
    # level just above the theorem-3 domain edge: everything is valid and
    # the error bounds are exactly zero.
    eps = 0.0
    tau_val = tau(eps, 1.0, 0.0, 2, 0.0, 1.0)  # -0.5
    l2 = 0.25 * 1.1 + 0.5  # puts the bound argument at 1.1 > 1 - eps
    inputs = _inputs(
        sigma=1.0, delta=0.0, epsilon=1e-9, r_eps=0.0, l_pos=0.0,
        l1=-1.0, l2=l2, delta_mu=0.0, mu_products=(0.0,),
    )
    report = full_report(inputs, _empirical())
    assert report.rho_max == pytest.approx(0.0, abs=1e-8)
    assert report.threshold == pytest.approx(1.0, abs=1e-4)
    assert report.condition_holds
    assert report.thm1_bound == 0.0
    assert report.thm1_valid
    assert report.thm2_bound == 0.0
    assert all(p.in_domain for p in report.thm3_pairs)
    assert all(p.value < report.threshold for p in report.thm3_pairs)
    assert report.combined_infonce == (0.0, True)
    assert report.combined_crosscorr is None
    assert report.tau_prime is None
    assert report.lemma5_first == pytest.approx((0.0, 0.0), abs=1e-8)


def test_perfect_case_crosscorr_report():
    d = 2
    # centers: orthogonal, each with norm sqrt(d) -> delta_mu = 0
    inputs = _inputs(
        sigma=1.0, delta=0.0, epsilon=1e-9, r_eps=0.0, l_pos=0.0,
        loss_kind="cross_corr",
        l1=0.0, l2=0.0, radius=math.sqrt(d), dim=d, delta_mu=0.0, mu_products=(0.0,),
    )
    report = full_report(inputs, _empirical())
    assert report.tau_prime == pytest.approx(0.0, abs=1e-8)
    assert report.tau is None
    assert len(report.thm4_pairs) == 1
    pair = report.thm4_pairs[0]
    assert pair.in_domain
    assert pair.value == pytest.approx(0.0, abs=1e-4)  # radicand (d-K)/2 = 0
    assert report.combined_crosscorr[0] == pytest.approx(0.0, abs=1e-12)
    assert report.combined_crosscorr[1]
    assert report.combined_infonce is None


def test_simple_loss_report_skips_separation_bounds():
    inputs = _inputs(loss_kind="simple")
    report = full_report(inputs, _empirical())
    assert report.tau is None and report.tau_prime is None
    assert report.thm3_pairs == () and report.thm4_pairs == ()
    assert report.combined_infonce is None and report.combined_crosscorr is None
    # the concentration-only machinery still runs
    assert math.isfinite(report.thm1_bound)
    assert math.isfinite(report.thm2_bound)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_report_rho_max_is_rho_max_at_the_smallest_prior_bit_for_bit(k):
    # The report takes the largest per-class rho; for r_eps >= 0 rho does
    # not increase with the prior, so that is rho_max's float exactly.
    rng = np.random.default_rng(36 + k)
    for trial in range(100):
        weights = rng.random(k) + 0.05
        priors = tuple(float(p) for p in weights / weights.sum())
        assert len(set(priors)) == k
        r_eps = 0.0 if trial % 10 == 0 else float(rng.random())
        sigma = 1.0 - float(rng.random())
        delta, epsilon = (float(x) for x in rng.random(2))
        lipschitz, radius = (float(x) for x in 0.1 + 5.0 * rng.random(2))
        inputs = _inputs(
            sigma=sigma, delta=delta, epsilon=epsilon, r_eps=r_eps, lipschitz=lipschitz,
            radius=radius, priors=priors, mu_products=(0.0,) * (k * (k - 1) // 2),
        )
        report = full_report(inputs, _empirical(k))
        assert report.rho_max == rho_max(
            sigma, delta, epsilon, r_eps, priors, lipschitz, radius
        ), (trial, inputs)


# Per loss kind: the overrides of ``_inputs``, and the names of the
# separation gap, the pair bounds and the combined bound it reports.
_KINDS = {
    "info_nce": ({}, ("tau", "thm3_pairs", "combined_infonce")),
    "cross_corr": (
        dict(loss_kind="cross_corr", l1=0.3, radius=math.sqrt(3.0), dim=3,
             priors=(0.25, 0.25, 0.5), mu_products=(0.1, -0.2, 0.3)),
        ("tau_prime", "thm4_pairs", "combined_crosscorr"),
    ),
    "simple": (dict(loss_kind="simple"), ()),
}


@pytest.mark.parametrize("kind", list(_KINDS))
def test_report_matches_individually_invoked_operations(kind):
    overrides, names = _KINDS[kind]
    inputs = _inputs(**overrides)
    report = full_report(inputs, _empirical(inputs.num_classes))
    expected_rho = tuple(
        rho(inputs.sigma, inputs.delta, inputs.epsilon, inputs.r_eps, p,
            inputs.lipschitz, inputs.radius)
        for p in inputs.priors
    )
    assert report.rho_per_class == expected_rho
    assert report.rho_max == max(expected_rho)
    assert report.threshold == divergence_threshold(
        report.rho_max, inputs.delta_mu, inputs.radius
    )
    assert report.condition_holds == all(p < report.threshold for p in inputs.mu_products)
    assert report.thm1_bound == theorem1_bound(
        inputs.sigma, inputs.r_eps, report.condition_holds
    )[0]
    expected_eta = eta(
        inputs.epsilon, inputs.num_continuous, inputs.num_discrete,
        inputs.lipschitz, inputs.transform_lipschitz,
    )
    assert report.eta == expected_eta
    assert report.thm2_bound == theorem2_bound(expected_eta, inputs.l_pos)
    for k, p in enumerate(inputs.priors):
        first, second = lemma5_moments(
            inputs.epsilon, inputs.sigma, inputs.delta, inputs.radius,
            inputs.lipschitz, inputs.r_eps, p,
        )
        assert report.lemma5_first[k] == first
        assert report.lemma5_second[k] == second
    # The other kind's separation bound is not applicable.
    for _, other in _KINDS.values():
        if other and other != names:
            assert tuple(getattr(report, name) for name in other) == (None, (), None)
    if not names:
        return
    if kind == "info_nce":
        gap = tau(
            inputs.epsilon, inputs.sigma, inputs.delta, inputs.num_classes,
            inputs.r_eps, inputs.lipschitz,
        )

        def pair_bound(p_k, p_l):
            return theorem3_bound(inputs.l2, gap, p_k, p_l, inputs.epsilon)

        combined = (1 - inputs.sigma) + expected_eta * math.sqrt(max(2 + 2 * inputs.l1, 0.0))
    else:
        gap = tau_prime(
            inputs.epsilon, inputs.sigma, inputs.delta, inputs.dim, inputs.num_classes,
            inputs.r_eps, inputs.lipschitz, inputs.l1, inputs.priors,
        )

        def pair_bound(p_k, p_l):
            return theorem4_bound(inputs.l2, gap, p_k, p_l, inputs.dim, inputs.num_classes)

        combined = (1 - inputs.sigma) + math.sqrt(2) * expected_eta * inputs.dim**0.25 * max(
            inputs.l1, 0.0
        ) ** 0.25
    gap_name, pairs_name, combined_name = names
    assert getattr(report, gap_name) == gap
    pairs = getattr(report, pairs_name)
    expected_pairs = list(itertools.combinations(range(inputs.num_classes), 2))
    assert [(p.class_k, p.class_l) for p in pairs] == expected_pairs
    for pair, (k, l), product in zip(pairs, expected_pairs, inputs.mu_products):
        assert (pair.value, pair.in_domain) == pair_bound(inputs.priors[k], inputs.priors[l])
        assert pair.empirical == product
    value, valid = getattr(report, combined_name)
    assert value == pytest.approx(combined)
    assert valid == all(p.in_domain and p.value < report.threshold for p in pairs)


def test_combined_error_bounds_delegate_to_report():
    inputs = _inputs(l1=-1.0, sigma=1.0)
    report = full_report(inputs, _empirical())
    infonce, crosscorr = report.combined_infonce, report.combined_crosscorr
    assert infonce[0] == 0.0
    assert crosscorr is None
    cc_inputs = _inputs(
        loss_kind="cross_corr", l1=0.0, sigma=1.0, radius=math.sqrt(2.0),
        delta_mu=delta_mu(np.diag([1.2, 1.2]), math.sqrt(2.0)),
    )
    report = full_report(cc_inputs, _empirical())
    infonce, crosscorr = report.combined_infonce, report.combined_crosscorr
    assert infonce is None
    assert crosscorr[0] == pytest.approx(0.0, abs=1e-12)


def test_combined_validity_requires_separation_below_threshold():
    # inflate l2 so the theorem-3 bound lands far above the threshold:
    # the combined flag must flip off even though the pair is in domain
    inputs = _inputs(sigma=1.0, delta=0.0, epsilon=0.5, r_eps=0.0, l1=-1.0, l2=50.0)
    report = full_report(inputs, _empirical())
    assert report.thm3_pairs[0].in_domain
    assert report.thm3_pairs[0].value > report.threshold
    assert report.combined_infonce == (0.0, False)


@pytest.mark.parametrize("kind, thm, gap, combined", [
    ("info_nce", "thm3", "tau", "infonce"),
    ("cross_corr", "thm4", "tau_prime", "crosscorr"),
])
def test_flat_dict_has_stable_keys(kind, thm, gap, combined):
    report = full_report(_inputs(loss_kind=kind, l1=0.3), _empirical())
    flat = report.to_flat_dict()
    # Only derived values: the inputs and measurements live in
    # concentration.csv and evaluation.csv.
    assert list(flat) == [
        "rho.class_0", "rho.class_1", "rho.max",
        "thm1.threshold", "thm1.condition_holds", "thm1.bound", "thm1.valid",
        "thm2.eta", "thm2.bound", f"{thm}.{gap}", f"{thm}.bound.0_1",
        f"{thm}.in_domain.0_1", f"{thm}.in_domain",
        "lemma5.first.class_0", "lemma5.second.class_0",
        "lemma5.first.class_1", "lemma5.second.class_1",
        f"combined.{combined}.bound", f"combined.{combined}.valid",
    ]
    assert not any(key.startswith(("inputs.", "empirical.")) for key in flat)

