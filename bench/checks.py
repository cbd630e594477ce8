"""Soundness check of one completed experiment, run outside the timed part.

Every (delta, epsilon) report must satisfy the inequalities the package
certifies, the concentration curve must be monotone and consistent with
its main parts, and each main part must be a clique at its delta under the
brute-force ``augment.augmented_distance`` oracle.
"""

from __future__ import annotations

import itertools

import numpy as np

from augbound.augment import augmented_distance

TOL = 1e-9
# An oracle call costs about 0.18 ms per view (a Python loop over the theta
# grid). An experiment checks at most ORACLE_VIEW_BUDGET // V pairs (at least
# 6), drawn with a seeded rng when its parts hold more.
ORACLE_VIEW_BUDGET = 2400


def check_reports(result) -> list[str]:
    errors = []
    for (i, j), report in sorted(result.reports.items()):
        tag = f"delta[{i}] epsilon[{j}]"
        if not report.inputs.r_eps <= report.thm2_bound + TOL:
            errors.append(f"{tag}: r_eps {report.inputs.r_eps} > thm2 bound {report.thm2_bound}")
        first = report.empirical.class_first_moments
        second = report.empirical.class_second_moments
        for k in range(len(report.lemma5_first)):
            if not first[k] <= report.lemma5_first[k] + TOL:
                errors.append(f"{tag}: class {k} first moment exceeds lemma 5")
            if not second[k] <= report.lemma5_second[k] + TOL:
                errors.append(f"{tag}: class {k} second moment exceeds lemma 5")
        for label, pairs in (("thm3", report.thm3_pairs), ("thm4", report.thm4_pairs)):
            for pair in pairs:
                if pair.in_domain and not pair.empirical <= pair.value + TOL:
                    errors.append(
                        f"{tag}: {label} pair {pair.class_k},{pair.class_l} "
                        f"{pair.empirical} > {pair.value}"
                    )
        if report.thm1_valid and not report.empirical.err <= report.thm1_bound + TOL:
            errors.append(f"{tag}: err {report.empirical.err} > thm1 bound {report.thm1_bound}")
    return errors


def check_curve(result) -> list[str]:
    errors = []
    dataset = result.dataset
    sigmas = [estimate.sigma for estimate in result.curve]
    if any(b < a for a, b in zip(sigmas, sigmas[1:])):
        errors.append(f"sigma decreases along the delta grid: {sigmas}")
    for i, estimate in enumerate(result.curve):
        ratios = []
        for k, part in enumerate(estimate.main_parts):
            members = np.asarray(part, dtype=int)
            if members.size == 0 or np.any(dataset.labels[members] != k):
                errors.append(f"delta[{i}]: main part of class {k} is empty or leaves the class")
            ratios.append(members.size / dataset.class_indices(k).size)
        if estimate.sigma != min(ratios):
            errors.append(f"delta[{i}]: sigma {estimate.sigma} != min |part|/|class| {min(ratios)}")
    return errors


def check_cliques(result, rng: np.random.Generator) -> list[str]:
    """Each pair of a main part lies within its delta under the oracle.

    A pair inside parts at several deltas is checked once, at the smallest
    of them, which implies the rest.
    """
    aug = result.config.augmentation
    features = result.dataset.features
    tightest: dict[tuple[int, int], float] = {}
    for estimate in result.curve:
        for part in estimate.main_parts:
            for pair in itertools.combinations(sorted(part), 2):
                tightest[pair] = min(tightest.get(pair, estimate.delta), estimate.delta)
    pairs = sorted(tightest)
    budget = max(6, ORACLE_VIEW_BUDGET // aug.num_views)
    if len(pairs) > budget:
        chosen = rng.choice(len(pairs), size=budget, replace=False)
        pairs = [pairs[c] for c in sorted(chosen)]
    errors = []
    for a, b in pairs:
        distance = augmented_distance(features[a], features[b], aug)
        if not distance <= tightest[(a, b)] + TOL:
            errors.append(
                f"samples {a},{b} are {distance} apart, over delta {tightest[(a, b)]}"
            )
    return errors


def check_experiment(result, rng: np.random.Generator) -> list[str]:
    return check_reports(result) + check_curve(result) + check_cliques(result, rng)
