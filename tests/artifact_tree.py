"""Write every benchmark workload's artifacts at the gate seeds, for ``diff -r``.

Not part of the test suite (the file name does not match ``test_*.py``).
Run it once with each version of ``augbound`` on ``PYTHONPATH``, with one
BLAS thread as the benchmark harness pins it, and compare the two trees:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python tests/artifact_tree.py OUT

Every config of the ``fixtures``, ``ring_pairs`` and ``scale_ladder``
workloads (``bench/workloads.py``, loaded by path) runs at each of its
``GATE_SEEDS`` master seeds into ``OUT/<workload>/<label>_s<seed>/``. A run
that a stage refuses keeps what it wrote, and its ``StageError`` message
goes to an ``ERROR`` file beside it, so the refusals are compared too.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import pathlib

from augbound import experiments

_WORKLOADS_PY = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS_PY)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

GATE_SEEDS = {"fixtures": (0, 1, 2, 3), "ring_pairs": (0, 3, 4), "scale_ladder": (0, 1, 3)}


def write_run(out: str, workload: str, label: str, seed: int) -> str:
    """Run one workload config at one master seed; returns its directory."""
    raw = dict(workloads.raw_configs(workload))[label]
    config = experiments.with_seed_override(experiments.config_from_dict(raw), seed)
    run_dir = os.path.join(out, workload, f"{label}_s{seed}")
    try:
        if config.sweep is None:
            experiments.run_experiment(config, run_dir)
        else:
            experiments.run_sweep(config, run_dir)
    except experiments.StageError as exc:
        with open(os.path.join(run_dir, "ERROR"), "w") as fh:
            fh.write(f"{exc}\n")
    return run_dir


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="directory to create for the tree")
    out = parser.parse_args(argv).out
    os.makedirs(out)
    for workload, seeds in GATE_SEEDS.items():
        for label, _ in workloads.raw_configs(workload):
            for seed in seeds:
                write_run(out, workload, label, seed)


if __name__ == "__main__":
    main()
