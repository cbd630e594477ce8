"""The benchmark's named workloads, as raw config documents.

Each workload is a list of *passes*. A pass is a fixed, deterministic batch
of experiments drawn from the workload seed and the pass index. A run does
a whole number of passes, fixed by its ``--seconds`` and the workload's
nominal pass time, so the same arguments always give the same work.
This module holds plain data only and imports nothing from ``augbound``,
so the set-up measurement can time the package import on its own.
"""

from __future__ import annotations

import copy

# ---------------------------------------------------------------------------
# fixtures: the five acceptance INEQUALITY_FIXTURES (configs copied verbatim)


def _inequality_config(loss, out_dim, num_classes, *, spread, shift, steps, lr,
                       deltas, epsilons):
    if num_classes == 2:
        centers = [[-2.0, 0.0], [2.0, 0.0]]
    else:
        centers = [[2.0, 0.0], [-2.0, 0.0], [0.0, 2.0], [0.0, -2.0]]
    norm = "sphere" if loss in ("info_nce", "simple") else "batch_standardized"
    return {
        "dataset": {
            "num_classes": num_classes,
            "samples_per_class": 6,
            "cluster_centers": centers,
            "cluster_spread": spread,
            "manifold": "gaussian_blobs",
            "seed": 0,
        },
        "augmentation": {
            "grid_resolution": 3,
            "transforms": [
                {"rule": "identity"},
                {"rule": "additive_shift", "direction": [shift, 0.0]},
            ],
        },
        "encoder": {
            "hidden_dims": [],
            "output_dim": out_dim,
            "norm_mode": norm,
            "radius": 1.0,
            "seed": 0,
        },
        "training": {
            "loss": loss,
            "steps": steps,
            "batch_size": 8,
            "learning_rate": lr,
            "seed": 0,
        },
        "analysis": {
            "delta_grid": list(deltas),
            "epsilon_grid": list(epsilons),
            "clique_mode": "exact",
        },
    }


INEQUALITY_FIXTURES = (
    ("info_nce_d2_k2",
     _inequality_config("info_nce", 2, 2, spread=0.02, shift=0.03, steps=250,
                        lr=0.05, deltas=[0.2, 0.6], epsilons=[0.1, 0.25, 0.5])),
    ("info_nce_d8_k4",
     _inequality_config("info_nce", 8, 4, spread=0.02, shift=0.03, steps=250,
                        lr=0.05, deltas=[0.2, 0.6], epsilons=[0.1, 0.25, 0.5])),
    ("cross_corr_d2_k2",
     _inequality_config("cross_corr", 2, 2, spread=0.02, shift=0.03, steps=250,
                        lr=0.05, deltas=[0.2, 0.6], epsilons=[0.1, 0.25, 0.5])),
    ("cross_corr_d8_k4",
     _inequality_config("cross_corr", 8, 4, spread=0.02, shift=0.03, steps=250,
                        lr=0.05, deltas=[0.2, 0.6], epsilons=[0.1, 0.25, 0.5])),
    ("info_nce_tight",
     _inequality_config("info_nce", 2, 2, spread=0.002, shift=0.01, steps=30,
                        lr=0.02, deltas=[0.03, 0.1],
                        epsilons=[0.05, 0.1, 0.25, 0.5])),
)

# Consecutive master seeds per fixture and pass (the acceptance suite uses 2).
FIXTURE_SEED_WINDOW = 2

# ---------------------------------------------------------------------------
# The interleaved two-ring task of acceptance 09 and 10

_RING_DATASET = {
    "num_classes": 2,
    "samples_per_class": 14,
    "cluster_centers": [[2.0, 0.0, 1.0], [2.0, 0.0, -1.0]],
    "cluster_spread": 3.2,
    "manifold": "ring_segments",
    "seed": 0,
    "disjoint_classes": False,
}

_ROT_WIDE = {"rule": "rotation_2d_subspace", "axes": [0, 1],
             "max_angle": 1.4, "data_radius": 2.0}
_ROT_NARROW = {"rule": "rotation_2d_subspace", "axes": [0, 1],
               "max_angle": 0.6, "data_radius": 2.0}
_SCALE = {"rule": "scale", "scale_span": [0.85, 1.15], "data_radius": 2.0}
_SHIFT = {"rule": "additive_shift", "direction": [0.0, 0.25, 0.0]}

RING_PAIRS = {
    "dataset": dict(_RING_DATASET),
    "augmentation": {"grid_resolution": 5, "transforms": [{"rule": "identity"}]},
    "encoder": {
        "hidden_dims": [],
        "output_dim": 2,
        "norm_mode": "sphere",
        "radius": 1.0,
        "seed": 0,
    },
    "training": {
        "loss": "info_nce",
        "steps": 300,
        "batch_size": 16,
        "learning_rate": 0.1,
        "seed": 0,
    },
    "analysis": {"delta_grid": [0.4, 0.6], "epsilon_grid": [0.25],
                 "clique_mode": "exact"},
    "sweep": {"kind": "pairs", "levels": [_ROT_WIDE, _ROT_NARROW, _SCALE, _SHIFT]},
}

# ---------------------------------------------------------------------------
# scale_ladder: the ring task across class sizes and view counts

LADDER_SAMPLES_PER_CLASS = (14, 32, 64, 96)
# Identity plus 1, 2 or 3 continuous transforms at grid 5: 6, 26, 126 views.
LADDER_TRANSFORMS = ((_ROT_WIDE,), (_ROT_WIDE, _SCALE), (_ROT_WIDE, _SCALE, _SHIFT))
LADDER_MODES = ("exact", "dual_approx")


def _ladder_config(samples_per_class: int, transforms: tuple, mode: str) -> dict:
    dataset = dict(_RING_DATASET, samples_per_class=samples_per_class)
    return {
        "dataset": dataset,
        "augmentation": {
            "grid_resolution": 5,
            "transforms": [{"rule": "identity"}, *copy.deepcopy(list(transforms))],
        },
        "encoder": {
            "hidden_dims": [],
            "output_dim": 2,
            "norm_mode": "batch_standardized",
            "radius": 1.0,
            "seed": 0,
        },
        "training": {
            "loss": "cross_corr",
            "steps": 100,
            "batch_size": 16,
            "learning_rate": 0.1,
            "seed": 0,
        },
        "analysis": {"delta_grid": [0.2, 0.4, 0.6, 0.8], "epsilon_grid": [0.25],
                     "clique_mode": mode},
    }


# ---------------------------------------------------------------------------
# Registry


def raw_configs(workload: str) -> list[tuple[str, dict]]:
    """(label, raw config) pairs that one pass of the workload runs."""
    if workload == "fixtures":
        return [(name, raw) for name, raw in INEQUALITY_FIXTURES]
    if workload == "ring_pairs":
        return [("pairs", RING_PAIRS)]
    if workload == "scale_ladder":
        return [
            (f"n{n}_v{5 ** len(ts) + 1}_{mode}", _ladder_config(n, ts, mode))
            for n in LADDER_SAMPLES_PER_CLASS
            for ts in LADDER_TRANSFORMS
            for mode in LADDER_MODES
        ]
    raise ValueError(f"unknown workload {workload!r}")


def pass_seeds(workload: str, seed: int, pass_index: int) -> list[int]:
    """Master seeds each config of the workload runs with in one pass.

    Seeds of different passes never overlap, so a run covers fresh inputs
    in every pass, and the same (seed, pass) always gives the same inputs.
    """
    width = FIXTURE_SEED_WINDOW if workload == "fixtures" else 1
    base = seed * 100_003 + pass_index * width
    return [base + j for j in range(width)]


WORKLOADS = ("fixtures", "ring_pairs", "scale_ladder")

# Wall time of one pass, host-speed probes and output check included,
# measured at the commit that added the benchmark on a 2-core x86-64 sandbox
# with one BLAS thread. A run of --seconds S does round(S / nominal) passes,
# so it lasts about S there.
NOMINAL_PASS_S = {"fixtures": 1.6, "ring_pairs": 5.0, "scale_ladder": 11.5}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))

# Where a failed experiment stopped: a pipeline stage, the config, or the
# benchmark's output check of a completed experiment.
STAGES = ("dataset", "train", "concentration", "evaluate", "bounds", "config", "check")

# Spans a workload does not reach by design; any other span that records no
# call is reported as missing.
NOT_EXERCISED = {
    "fixtures": {"losses.simple_contrastive", "concentration.approx_max_clique"},
    "ring_pairs": {
        "losses.simple_contrastive",
        "losses.cross_correlation",
        "losses.cross_corr_loss",
        "concentration.approx_max_clique",
    },
    "scale_ladder": {"losses.simple_contrastive", "losses.info_nce"},
}
