"""``tests/artifact_tree.py`` writes a run's artifacts, or its refusal.

The script is the byte-identity gate of a refactor: ``diff -r`` of its
trees at two versions of the package. Here it runs one fixture config and
one refused ladder rung at one seed, and, with LAPACK barred, one fixture
config and the ring pairs sweep. The whole tree must match the committed
``artifact_manifest.txt`` digest for digest.
"""

import os
import pathlib

import numpy as np

import artifact_tree


def test_artifact_tree_writes_a_fixture_run(tmp_path):
    run_dir = artifact_tree.write_run(str(tmp_path), "fixtures", "info_nce_d2_k2", 0)
    assert run_dir == os.path.join(tmp_path, "fixtures", "info_nce_d2_k2_s0")
    assert sorted(os.listdir(run_dir)) == [
        "bounds.csv", "concentration.csv", "config.json", "dataset.csv",
        "evaluation.csv", "model.bin", "trace.csv",
    ]


def test_artifact_tree_writes_a_refusal_to_error(tmp_path):
    # Exact mode refuses 64 samples per class at stage 'concentration'.
    run_dir = artifact_tree.write_run(str(tmp_path), "scale_ladder", "n64_v6_exact", 0)
    with open(os.path.join(run_dir, "ERROR")) as fh:
        message = fh.read()
    assert message.startswith("stage 'concentration' failed: graph has 64 nodes")
    assert sorted(os.listdir(run_dir)) == ["ERROR", "config.json", "dataset.csv"]


class _NoLapack:
    """Stands in for numpy's LAPACK gufuncs; any use of them raises."""

    def __getattr__(self, name):
        raise AssertionError(f"LAPACK gufunc {name} called")


def test_no_stage_calls_lapack(tmp_path, monkeypatch):
    monkeypatch.setattr(np.linalg._linalg, "_umath_linalg", _NoLapack())
    run_dir = artifact_tree.write_run(str(tmp_path), "fixtures", "info_nce_d2_k2", 0)
    assert not os.path.exists(os.path.join(run_dir, "ERROR"))
    assert os.path.exists(os.path.join(run_dir, "bounds.csv"))
    run_dir = artifact_tree.write_run(str(tmp_path), "ring_pairs", "pairs", 0)
    with open(os.path.join(run_dir, "failures.csv")) as fh:
        assert fh.read() == "level,stage,message\n"


def test_artifact_tree_matches_the_manifest(tmp_path):
    manifest = pathlib.Path(artifact_tree.__file__).with_name("artifact_manifest.txt")
    header, expected = artifact_tree.read_manifest(manifest)
    tree = os.path.join(tmp_path, "tree")
    artifact_tree.write_tree(tree)
    actual = artifact_tree.manifest_digests(tree)
    problems = [f"added: {path}" for path in sorted(actual.keys() - expected.keys())]
    problems += [f"missing: {path}" for path in sorted(expected.keys() - actual.keys())]
    problems += [
        f"changed: {path}"
        for path in sorted(actual.keys() & expected.keys())
        if actual[path] != expected[path]
    ]
    # The digests rest on numpy's and libm's bits and on OpenBLAS's kernel
    # choice as well as on the package, so a numpy build other than the
    # manifest's leads the report: the mismatch may be that, not a moved
    # artifact.
    if problems and header != artifact_tree.manifest_header():
        problems.insert(
            0, f"manifest written with {header}, this host has {artifact_tree.manifest_header()}"
        )
    assert not problems, "\n".join(problems)
