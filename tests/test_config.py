"""Config documents read through ``core.from_spec``: round trips, unknown keys
and the range rules the config dataclasses check for themselves."""

import dataclasses
import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from augbound.augment import Transform
from augbound.cli import main
from augbound.core import from_spec, spec_dict
from augbound.experiments import ConfigError, config_from_dict, config_to_dict

_ROOT = Path(__file__).resolve().parents[1]
_README = _ROOT / "README.md"

_RULES = (
    "identity",
    "coordinate_permutation",
    "sign_flip_mask",
    "additive_shift",
    "rotation_2d_subspace",
    "scale",
)


def _number(rng, low, high):
    """A float in [low, high); now and then a JSON integer where one fits."""
    if rng.random() < 0.25 and math.ceil(low) < high:
        return int(math.ceil(low))
    return float(rng.uniform(low, high))


def _transform(rng, rule, dim):
    spec = {"rule": rule}
    if rule == "coordinate_permutation":
        spec["permutation"] = [int(i) for i in rng.permutation(dim)]
    elif rule == "sign_flip_mask":
        spec["signs"] = [float(rng.choice([-1.0, 1.0])) for _ in range(dim)]
    elif rule == "additive_shift":
        spec["direction"] = [_number(rng, -0.2, 0.2) for _ in range(dim)]
    elif rule == "rotation_2d_subspace":
        spec.update(axes=[0, 1], max_angle=_number(rng, 0.0, 1.0),
                    data_radius=_number(rng, 1.0, 4.0))
    elif rule == "scale":
        spec.update(scale_span=[_number(rng, 0.7, 1.0), _number(rng, 1.0, 1.3)],
                    data_radius=_number(rng, 1.0, 4.0))
    return spec


def _augmentation(rng, rules, dim, resolution):
    section = {"transforms": [_transform(rng, rule, dim) for rule in rules]}
    if resolution != 2 or rng.random() < 0.5:
        section["grid_resolution"] = resolution
    return section


def _maybe(rng, section, key, value):
    """Set an optional key about half the time."""
    if rng.random() < 0.5:
        section[key] = value


def _random_config(rng):
    """A valid config document with every optional key either present or absent."""
    dim = int(rng.integers(2, 4))
    k = int(rng.integers(1, 4))
    if rng.random() < 0.2:
        dataset = {"path": f"data/points_{int(rng.integers(100))}.csv"}
    else:
        ring = rng.random() < 0.5
        angles = 2.0 * np.pi * np.arange(k) / k
        centers = [[2.0 * np.cos(a), 2.0 * np.sin(a)] + [0.0] * (dim - 2) for a in angles]
        dataset = {
            "num_classes": k,
            "samples_per_class": int(rng.integers(1, 9)),
            "cluster_centers": [[float(v) for v in row] for row in centers],
            "cluster_spread": _number(rng, 0.0, 0.1),
        }
        if ring:
            dataset["manifold"] = "ring_segments"
        else:
            _maybe(rng, dataset, "manifold", "gaussian_blobs")
        _maybe(rng, dataset, "seed", int(rng.integers(0, 1000)))
        _maybe(rng, dataset, "disjoint_classes", bool(rng.random() < 0.5))
    resolution = int(rng.integers(2, 5))
    rules = ["identity"] + [r for r in _RULES[1:] if rng.random() < 0.5]
    loss = str(rng.choice(["info_nce", "cross_corr", "simple"]))
    encoder = {
        "hidden_dims": [int(h) for h in rng.integers(1, 9, size=int(rng.integers(0, 3)))],
        "output_dim": int(rng.integers(1, 5)),
        "norm_mode": "batch_standardized" if loss == "cross_corr" else "sphere",
        "seed": int(rng.integers(0, 1000)),
    }
    if loss != "cross_corr":
        _maybe(rng, encoder, "radius", 1.0)
    training = {"loss": loss}
    _maybe(rng, training, "steps", int(rng.integers(0, 100)))
    _maybe(rng, training, "batch_size", int(rng.integers(2, 33)))
    _maybe(rng, training, "learning_rate", _number(rng, 0.01, 0.5))
    _maybe(rng, training, "seed", int(rng.integers(0, 1000)))
    _maybe(rng, training, "lam", _number(rng, 0.001, 2.0))
    analysis = {
        "delta_grid": sorted({round(float(d), 3) for d in rng.uniform(0.05, 2.0, 3)}),
        # Distinct values in drawn order: a grid may be unsorted but not repeat one.
        "epsilon_grid": list(
            dict.fromkeys(_number(rng, 0.01, 1.0) for _ in range(int(rng.integers(1, 4))))
        ),
    }
    _maybe(rng, analysis, "clique_mode", str(rng.choice(["exact", "dual_approx"])))
    doc = {
        "dataset": dataset,
        "augmentation": _augmentation(rng, rules, dim, resolution),
        "encoder": encoder,
        "training": training,
        "analysis": analysis,
    }
    kind = rng.choice(["none", "richness", "strength", "pairs"])
    catalog = [_transform(rng, rule, dim) for rule in _RULES]
    if kind == "richness":
        levels = [{"grid_resolution": resolution, "transforms": catalog[:n]} for n in (1, 3, 6)]
    elif kind == "strength":
        levels = sorted({_number(rng, 0.1, 3.0) for _ in range(3)})
    else:
        levels = catalog[1:]
    if kind != "none":
        doc["sweep"] = {"kind": str(kind), "levels": levels}
    return doc


def test_generated_configs_cover_every_case():
    rng = np.random.default_rng(7)
    docs = [_random_config(rng) for _ in range(80)]
    rules = {t["rule"] for d in docs for t in d["augmentation"]["transforms"]}
    assert rules == set(_RULES)
    generated = [d["dataset"] for d in docs if "path" not in d["dataset"]]
    assert len(generated) < len(docs)
    assert {d.get("manifold") for d in generated} == {"gaussian_blobs", "ring_segments", None}
    assert {d.get("sweep", {}).get("kind") for d in docs} == {None, "richness", "strength", "pairs"}
    for section, key in [("encoder", "radius"), ("training", "lam"), ("training", "steps"),
                         ("analysis", "clique_mode"), ("augmentation", "grid_resolution")]:
        assert {key in d[section] for d in docs} == {True, False}, (section, key)
    for key in ("seed", "disjoint_classes"):
        assert {key in d for d in generated} == {True, False}, key


@pytest.mark.parametrize("seed", range(80))
def test_config_round_trips_through_its_json_form(seed):
    config = config_from_dict(_random_config(np.random.default_rng(7 + 1000 * seed)))
    written = config_to_dict(config)
    again = config_from_dict(json.loads(json.dumps(written)))
    assert again == config
    assert config_to_dict(again) == written


def _asdict_spec(obj):
    """``core.spec_dict`` as it was: ``dataclasses.asdict``, then a second
    walk that drops the ``None`` fields and turns tuples into lists."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(v) for key, v in value.items() if v is not None}
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        return value

    return plain(dataclasses.asdict(obj))


def _spec_cases():
    """Every benchmark workload config, and the ring pairs config with a
    sweep of each kind."""
    path = _ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cases = [(label, raw) for w in workloads.WORKLOADS for label, raw in workloads.raw_configs(w)]
    pairs = workloads.RING_PAIRS
    rotation, scale = pairs["sweep"]["levels"][0], pairs["sweep"]["levels"][2]
    lean = {"grid_resolution": 5, "transforms": [{"rule": "identity"}, rotation]}
    rich = dict(lean, transforms=[*lean["transforms"], scale])
    for sweep in ({"kind": "richness", "levels": [lean, rich]},
                  {"kind": "strength", "levels": [0.5, 1, 2.0]}):
        cases.append((sweep["kind"], dict(pairs, sweep=sweep)))
    return cases


def test_spec_dict_is_the_former_asdict_form_on_workload_and_sweep_configs():
    cases = _spec_cases()
    assert {raw.get("sweep", {}).get("kind") for _, raw in cases} == {
        None, "richness", "strength", "pairs"
    }
    for label, raw in cases:
        config = config_from_dict(raw)
        assert json.dumps(spec_dict(config)) == json.dumps(_asdict_spec(config)), label


def _base():
    rng = np.random.default_rng(3)
    while True:
        doc = _random_config(rng)
        if "path" not in doc["dataset"] and "sweep" not in doc:
            return doc


def test_an_integer_read_as_a_float_comes_back_as_a_float():
    def read(one, two, three):
        doc = _base()
        doc["training"]["learning_rate"] = one
        doc["augmentation"]["transforms"] = [
            {"rule": "identity"},
            {"rule": "scale", "scale_span": [one, two], "data_radius": three},
        ]
        return config_from_dict(doc)

    config = read(1, 2, 3)
    assert type(config.training.learning_rate) is float
    assert all(type(v) is float for v in config.augmentation.transforms[1].scale_span)
    as_floats = read(1.0, 2.0, 3.0)
    assert json.dumps(config_to_dict(config)) == json.dumps(config_to_dict(as_floats))
    assert config == as_floats


@pytest.mark.parametrize(
    "mutate, key",
    [
        (lambda d: d.update(analyses={}), "config.analyses"),
        (lambda d: d["training"].update(learnig_rate=0.1), "training.learnig_rate"),
        (lambda d: d["training"].update(lamda=0.1), "training.lamda"),
        (lambda d: d["dataset"].update(spread=0.1), "dataset.spread"),
        (lambda d: d["encoder"].update(hidden=[4]), "encoder.hidden"),
        (lambda d: d["analysis"].update(mode="exact"), "analysis.mode"),
        (lambda d: d["augmentation"].update(resolution=3), "augmentation.resolution"),
        (
            lambda d: d["augmentation"]["transforms"].append(
                {"rule": "additive_shift", "direction": [0.1, 0.0], "dir": [0.1, 0.0]}
            ),
            "additive_shift.dir",
        ),
        (lambda d: d.update(sweep={"kind": "strength", "levels": [1.0], "lvls": []}), "sweep.lvls"),
        (
            lambda d: d.update(
                sweep={"kind": "richness", "levels": [{"transforms": [{"rule": "identity"}], "x": 1}]}
            ),
            r"sweep\.levels\[\*\]\.x",
        ),
    ],
)
def test_an_unknown_key_is_a_config_error_that_names_it(mutate, key):
    doc = _base()
    mutate(doc)
    with pytest.raises(ConfigError, match=f"unknown key {key}"):
        config_from_dict(doc)


def test_a_pairs_catalog_that_repeats_a_transform_is_a_config_error():
    doc = _base()
    dim = len(doc["dataset"]["cluster_centers"][0])
    shift = {"rule": "additive_shift", "direction": [0.1] * dim}
    flip = {"rule": "sign_flip_mask", "signs": [-1.0] * dim}
    doc["sweep"] = {"kind": "pairs", "levels": [shift, flip, dict(shift)]}
    message = "sweep section invalid: sweep.levels catalog must not repeat a transform"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        config_from_dict(doc)
    doc["sweep"]["levels"].pop()
    assert len(config_from_dict(doc).sweep.levels) == 2


def test_a_dataset_path_keeps_ignoring_generator_keys_beside_it():
    doc = _base()
    doc["dataset"]["path"] = "points.csv"
    assert config_from_dict(doc, base_dir="/data").dataset == "/data/points.csv"


@pytest.mark.parametrize("path", [5, ["a"], None, True])
def test_a_dataset_path_must_be_a_string(path):
    doc = _base()
    doc["dataset"] = {"path": path}
    with pytest.raises(ConfigError, match=r"dataset\.path must be a string"):
        config_from_dict(doc)


def test_the_hidden_layer_limit_is_checked_at_load(tmp_path, capsys):
    doc = _base()
    doc["encoder"]["hidden_dims"] = [4, 4, 4]
    with pytest.raises(ConfigError, match="encoder section invalid: at most 2 hidden layers"):
        config_from_dict(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(path), "--out", str(out)]) == 2
    assert "at most 2 hidden layers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "spec, fragment",
    [
        ({"rule": "identity", "direction": [1.0, 0.0]}, "identity takes no direction"),
        ({"rule": "sign_flip_mask", "signs": [1.0], "permutation": [0]},
         "sign_flip_mask takes no permutation"),
        ({"rule": "additive_shift", "direction": [0.1], "data_radius": 2.0},
         "additive_shift takes no data_radius"),
        ({"rule": "scale", "scale_span": [0.9, 1.1]}, "scale needs data_radius"),
        ({"rule": "scale", "scale_span": [0.9], "data_radius": 1.0}, r"\(low, high\) span"),
        ({"rule": "scale", "scale_span": [0.9, 1.0, 1.1], "data_radius": 1.0},
         r"\(low, high\) span"),
    ],
)
def test_a_transform_refuses_fields_its_rule_does_not_use(spec, fragment):
    with pytest.raises(ValueError, match=fragment):
        from_spec(Transform, spec, "transform")
    fields = {k: tuple(v) if isinstance(v, list) else v for k, v in spec.items()}
    with pytest.raises(ValueError, match=fragment):
        Transform(**fields)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("dataset", "seed", -1),
        ("encoder", "seed", -1),
        ("training", "seed", -1),
        ("encoder", "output_dim", 0),
        ("encoder", "hidden_dims", [4, 0]),
        ("training", "batch_size", 1),
    ],
)
def test_range_rules_are_the_dataclasses_own(section, key, value):
    doc = _base()
    doc[section][key] = value
    with pytest.raises(ConfigError, match=f"{section} section invalid: {key}"):
        config_from_dict(doc)


def test_a_center_without_coordinates_is_refused_at_load():
    doc = _base()
    doc["dataset"].update(num_classes=1, cluster_centers=[[]])
    with pytest.raises(ConfigError, match="dataset section invalid: .*at least one coordinate"):
        config_from_dict(doc)


def test_from_spec_refuses_an_annotation_it_cannot_read():
    with pytest.raises(TypeError, match="cannot read"):
        from_spec(dict, {}, "x")


def test_the_readme_configuration_parses():
    text = _README.read_text()
    section = text[text.index("## Configuration"):]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    config_from_dict(json.loads(block))
