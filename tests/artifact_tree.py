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

``--manifest FILE`` also writes the tree's manifest: a header naming numpy's
version, its OpenBLAS build and the kernel that OpenBLAS chose at run time,
then one ``sha256  path`` line per file. ``tests/artifact_manifest.txt`` is
that manifest at the last commit that moved an artifact (or changed the
header), and ``tests/test_artifact_tree.py`` compares a fresh tree with it.
A change that moves artifact values rewrites it:

    PYTHONPATH=src python tests/artifact_tree.py TREE --manifest tests/artifact_manifest.txt
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.util
import os
import pathlib

import numpy as np

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


def write_tree(out: str) -> None:
    """Write every workload config at each of its gate seeds under ``out``."""
    os.makedirs(out)
    for workload, seeds in GATE_SEEDS.items():
        for label, _ in workloads.raw_configs(workload):
            for seed in seeds:
                write_run(out, workload, label, seed)


def blas_core() -> str:
    """The kernel that numpy's OpenBLAS chose on this host at run time.

    The build string names the build's target only; a ``DYNAMIC_ARCH``
    build picks its kernel when it loads. The name is read with ctypes from
    the OpenBLAS library that a numpy wheel loads, bundled beside numpy;
    ``unknown`` where there is none or it lacks
    ``scipy_openblas_get_corename64_``.
    """
    package = pathlib.Path(np.__file__).parent
    bundled = [*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]
    for library in sorted(bundled):
        corename = getattr(ctypes.CDLL(str(library)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def manifest_header() -> list[str]:
    """The lines naming what the digests depend on besides the package."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"# numpy {np.__version__}",
        f"# openblas {blas.get('openblas configuration', 'none')}",
        f"# openblas core {blas_core()}",
    ]


def manifest_digests(tree: str) -> dict[str, str]:
    """Every file under ``tree`` by its ``/``-separated relative path → sha256."""
    root = pathlib.Path(tree)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def manifest_text(tree: str) -> str:
    lines = manifest_header()
    lines += [f"{digest}  {path}" for path, digest in manifest_digests(tree).items()]
    return "\n".join(lines) + "\n"


def read_manifest(path: str) -> tuple[list[str], dict[str, str]]:
    """A manifest file's header lines and its path → sha256 map."""
    header, digests = [], {}
    with open(path) as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                header.append(line)
            else:
                digest, name = line.split("  ", 1)
                digests[name] = digest
    return header, digests


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="directory to create for the tree")
    parser.add_argument("--manifest", help="also write the tree's manifest to this file")
    args = parser.parse_args(argv)
    write_tree(args.out)
    if args.manifest:
        with open(args.manifest, "w") as fh:
            fh.write(manifest_text(args.out))


if __name__ == "__main__":
    main()
