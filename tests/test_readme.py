"""README.md names only what exists, and its examples run.

The README points to derivations by ``module.function`` instead of restating
them, so these tests keep its references true: every module and attribute it
names resolves, every ``tests/`` and ``bench/`` path exists, its command
table lists the parser's subcommands, its Configuration section names every
key a config writes, and its config example and library session run.
"""

import argparse
import fnmatch
import importlib
import json
import pathlib
import re

import augbound
from augbound import cli
from augbound.experiments import config_from_dict, config_to_dict

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = sorted(
    path.stem for path in pathlib.Path(augbound.__file__).parent.glob("*.py")
    if path.stem != "__init__"
)
_FENCE = re.compile(r"```(\w*)\n(.*?)```", re.S)
# A span such as `evaluation.csv` names a file, not a module attribute.
_FILE_NAME = re.compile(r"\.(csv|json|bin|py|md)$")


def _section(title: str) -> str:
    """The text of the README section headed ``## title``."""
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.S | re.M)
    assert match, f"README has no section {title!r}"
    return match.group(1)


def _spans(text: str) -> list[str]:
    """The backticked spans of ``text`` outside fenced code blocks."""
    return re.findall(r"`([^`\n]+)`", _FENCE.sub("", text))


def _code(text: str, language: str) -> str:
    """The first fenced block of ``language`` in ``text``."""
    return next(body for lang, body in _FENCE.findall(text) if lang == language)


def _resolve(name: str) -> object:
    """``augbound.<module>`` by import, ``<module>.<attr>[.<attr>…]`` by getattr."""
    if name.startswith("augbound."):
        return importlib.import_module(name)
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"augbound.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_every_module_and_attribute_the_readme_names_resolves():
    qualified = re.compile(rf"augbound\.\w+|(?:{'|'.join(MODULES)})(?:\.\w+)+")
    names = sorted(
        {s for s in _spans(README) if qualified.fullmatch(s) and not _FILE_NAME.search(s)}
    )
    assert len(names) >= 20, names
    missing = []
    for name in names:
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert not missing, f"README names what does not exist: {missing}"


def test_the_layout_table_names_entry_points_of_each_module():
    rows = re.findall(r"^\| `augbound\.(\w+)` +\|(.*)\|$", _section("Library"), re.M)
    assert sorted(module for module, _ in rows) == MODULES
    missing = []
    for module, entries in rows:
        public = dir(importlib.import_module(f"augbound.{module}"))
        for name in re.findall(r"`([\w*]+)`", entries):
            if not fnmatch.filter(public, name):
                missing.append(f"{module}.{name}")
    assert not missing, f"the layout table names what does not exist: {missing}"


def test_every_path_the_readme_names_exists_and_every_microbench_is_named():
    paths = set(re.findall(r"\b(?:tests|bench)/[\w.*/-]*\w", README))
    missing = [p for p in sorted(paths) if not list(ROOT.glob(p))]
    assert not missing, f"README names paths that do not exist: {missing}"
    microbenches = sorted(f"tests/{p.name}" for p in ROOT.glob("tests/microbench_*.py"))
    assert microbenches
    unnamed = [p for p in microbenches if p not in paths]
    assert not unnamed, f"README does not name {unnamed}"


def test_the_command_table_lists_the_parser_subcommands():
    table = re.findall(r"^\| `([\w-]+)` +\|", _section("Command line"), re.M)
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(table) == sorted(subparsers.choices)


def _config_example() -> dict:
    return json.loads(_code(_section("Configuration"), "json"))


def _keys(value: object):
    """Every key of every object in a JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _keys(item)
    elif isinstance(value, list):
        for item in value:
            yield from _keys(item)


def test_the_configuration_section_names_every_key_a_config_writes():
    # A pairs catalog of every rule but identity brings in every transform key.
    raw = _config_example()
    raw["sweep"] = {
        "kind": "pairs",
        "levels": [
            {"rule": "coordinate_permutation", "permutation": [1, 0]},
            {"rule": "sign_flip_mask", "signs": [1.0, -1.0]},
            {"rule": "additive_shift", "direction": [0.0, 0.03]},
            {"rule": "rotation_2d_subspace", "axes": [0, 1], "max_angle": 0.5, "data_radius": 3.0},
            {"rule": "scale", "scale_span": [0.9, 1.1], "data_radius": 3.0},
        ],
    }
    written = set(_keys(config_to_dict(config_from_dict(raw))))
    unnamed = sorted(written - set(_spans(_section("Configuration"))))
    assert not unnamed, f"the Configuration section does not name {unnamed}"


def test_the_config_example_loads_and_the_library_session_runs_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    session = _code(_section("Library"), "python")
    namespace = {"raw_config": _config_example()}
    exec(compile(session, "README.md", "exec"), namespace)
    result, report = namespace["result"], namespace["report"]
    assert result.dataset.num_samples == 12
    assert namespace["err"] == result.bundle.err
    assert float(namespace["on_disk"]["thm1.bound"]) == report.thm1_bound
