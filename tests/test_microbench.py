"""The microbenchmark modules import against the current API, and their bodies run.

The suite collects only ``test_*.py``, so ``microbench_*.py`` could break
unnoticed when a name they import, or a private kernel they call, changes.
Each one is imported here, and then run once in its own pytest process
with ``--benchmark-disable``, so each benchmarked call runs once, untimed.
That run writes no cache or bytecode, and its working directory is a
temporary one; it is skipped where ``pytest_benchmark`` is not installed.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

_MODULES = sorted(pathlib.Path(__file__).parent.glob("microbench_*.py"))


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.stem)
def test_microbench_module_imports(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert any(name.startswith("test_") for name in vars(module))


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.stem)
def test_microbench_module_runs_untimed(path, tmp_path):
    pytest.importorskip("pytest_benchmark")
    command = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
        str(path),
    ]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
