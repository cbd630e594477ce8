"""The microbenchmark modules import against the current API.

The suite collects only ``test_*.py``, so ``microbench_*.py`` could break
unnoticed when a name they import changes. Each one is imported here; its
timings do not run.
"""

import importlib.util
import pathlib

import pytest

_MODULES = sorted(pathlib.Path(__file__).parent.glob("microbench_*.py"))


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.stem)
def test_microbench_module_imports(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert any(name.startswith("test_") for name in vars(module))
