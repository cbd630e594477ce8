"""The benchmark's output check passes on the pipeline as it is.

``bench/checks.py`` re-checks every completed benchmark experiment: the
reported inequalities, the concentration curve and sampled main-part
cliques. It reads the pipeline's result objects, so a rename in ``src/``
can break it; this module runs it in the suite on one pass of small
benchmark inputs, and loads and re-seeds every config of the three
workloads as ``bench/worker.py`` does. ``bench/`` is imported by path and
not edited.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

from augbound import experiments

_BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
workloads = _load("workloads")

# Every fixture, the ring pair sweep, and the smallest ladder rung in both modes.
_CASES = [
    *(("fixtures", label) for label, _ in workloads.raw_configs("fixtures")),
    ("ring_pairs", "pairs"),
    ("scale_ladder", "n14_v6_exact"),
    ("scale_ladder", "n14_v6_dual_approx"),
]


_ALL_CONFIGS = [
    (workload, label) for workload in workloads.WORKLOADS
    for label, _ in workloads.raw_configs(workload)
]


@pytest.mark.parametrize("workload, label", _ALL_CONFIGS, ids=lambda v: v)
def test_every_bench_config_loads_and_takes_its_pass_seed(workload, label):
    # bench/worker.py reads each config as below before its first pass; a
    # config schema change that breaks one would crash the benchmark.
    raw = dict(workloads.raw_configs(workload))[label]
    seed = workloads.pass_seeds(workload, 0, 0)[0]
    config = experiments.with_seed_override(experiments.config_from_dict(raw), seed)
    assert (config.encoder.seed, config.training.seed) == (seed + 1, seed + 2)


@pytest.mark.parametrize("workload, label", _CASES, ids=lambda v: v)
def test_bench_output_check_passes(tmp_path, workload, label):
    raw = dict(workloads.raw_configs(workload))[label]
    seed = workloads.pass_seeds(workload, 0, 0)[0]
    config = experiments.with_seed_override(experiments.config_from_dict(raw), seed)
    if config.sweep is None:
        results = [experiments.run_experiment(config, str(tmp_path))]
    else:
        sweep = experiments.run_sweep(config, str(tmp_path))
        assert sweep.failures == ()
        results = list(sweep.results.values())
    assert results
    rng = np.random.default_rng([0, 0])
    for result in results:
        assert checks.check_experiment(result, rng) == []
