"""Write every benchmark workload's artifacts at the gate seeds, for ``diff -r``.

Not part of the test suite (the file name does not match ``test_*.py``).
It is the byte-identity gate of a change that must not move an artifact:
write the tree with the parent commit and with the change, each from its
own checkout and with one BLAS thread as the benchmark harness pins it,
then compare the two trees. An empty ``diff -r`` passes the gate.

    export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
    (cd PARENT_CHECKOUT && PYTHONPATH=src python tests/artifact_tree.py PARENT_TREE)
    (cd CHANGE_CHECKOUT && PYTHONPATH=src python tests/artifact_tree.py CHANGE_TREE)
    diff -r PARENT_TREE CHANGE_TREE

``git archive PARENT | tar -x -C PARENT_CHECKOUT`` makes the parent's
checkout in an empty directory. Each tree directory must not exist yet.

Every config of the ``fixtures``, ``ring_pairs`` and ``scale_ladder``
workloads (``bench/workloads.py``, loaded by path) runs at each of its
``GATE_SEEDS`` master seeds into ``<tree>/<workload>/<label>_s<seed>/``. A run
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
