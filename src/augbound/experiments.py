"""End-to-end experiment pipeline and sweep drivers.

A single experiment runs data generation, concentration estimation over a
delta grid, encoder training, evaluation, and the full guarantee report,
persisting every stage artifact under one output directory. Concentration
needs only the dataset and the augmentation set, so it runs before
training: a run that exact mode refuses fails before any training. Sweeps
repeat the experiment across augmentation levels (richer sets, stronger
transforms, or all transform pairs from a catalog), with a fresh encoder
per level, and summarize how concentration tracks the observed error rate.
A sweep trains its levels in lockstep: the first level to reach training
trains itself and every later level in one stacked SGD loop, and each
level's model and trace are those of training it alone.

Configs are single JSON documents with sections ``dataset``,
``augmentation``, ``encoder``, ``training``, ``analysis``, and optionally
``sweep``; the README documents the schema. Schema problems raise
:class:`ConfigError`; failures inside a pipeline stage raise
:class:`StageError` carrying the stage name, with all artifacts from
earlier stages already on disk.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from . import encoder
from .augment import (
    AugmentationSet,
    Transform,
    identity,
    view_tensor,
    view_weights,
)
from .bounds import (
    BoundInputs,
    BoundReport,
    EmpiricalMeasurements,
    delta_mu,
    full_report,
)
from .concentration import ConcentrationEstimate, sigma_delta_curve
from .core import (
    Dataset,
    GeneratorConfig,
    csv_value,
    from_spec,
    generate_dataset,
    load_dataset,
    save_dataset,
    spec_dict,
    write_csv,
)
from .encoder import (
    MAX_LAYERS,
    EncoderModel,
    NormMode,
    TrainConfig,
    _check_pairing,
    init_encoder,
    save_model,
    train,
)
from .evaluation import (
    class_centers,
    class_moments,
    classify_batch,
    embed_views,
    empirical_r_eps,
    population_loss,
)

__all__ = [
    "ConfigError",
    "StageError",
    "EncoderArch",
    "SweepSpec",
    "ExperimentConfig",
    "EvalRecord",
    "ExperimentResult",
    "SweepResult",
    "load_config",
    "config_from_dict",
    "config_to_dict",
    "with_seed_override",
    "write_config",
    "stage_dataset",
    "stage_train",
    "stage_concentration",
    "stage_evaluate",
    "stage_bounds",
    "run_experiment",
    "run_sweep",
    "scale_transform_strength",
]


class ConfigError(Exception):
    """The config document is malformed or violates the schema."""


class StageError(Exception):
    """A pipeline stage failed; earlier artifacts are already persisted."""

    def __init__(self, stage: str, message: str) -> None:
        super().__init__(f"stage '{stage}' failed: {message}")
        self.stage = stage


@dataclass(frozen=True)
class EncoderArch:
    """Architecture half of the encoder spec (training half is TrainConfig)."""

    hidden_dims: tuple[int, ...]
    output_dim: int
    norm_mode: NormMode
    seed: int
    radius: float = 1.0

    def __post_init__(self) -> None:
        if len(self.hidden_dims) > MAX_LAYERS - 1:
            raise ValueError(f"at most {MAX_LAYERS - 1} hidden layers supported")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden_dims entries must be >= 1")
        if self.output_dim < 1:
            raise ValueError("output_dim must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep family.

    kind "richness": levels are augmentation sets, each strictly
    containing the previous one's transforms at the same grid resolution.
    kind "strength": levels are strictly increasing positive scale factors
    applied to the base augmentation's continuous transforms.
    kind "pairs": levels are a catalog of transforms; the sweep runs
    one experiment per 2-subset (identity is always added).
    """

    kind: Literal["richness", "strength", "pairs"]
    levels: tuple

    def __post_init__(self) -> None:
        levels = self.levels
        if not levels:
            raise ValueError("sweep.levels must be a non-empty list")
        if self.kind == "richness":
            for i, (smaller, larger) in enumerate(zip(levels, levels[1:]), start=1):
                if smaller.grid_resolution != larger.grid_resolution:
                    raise ValueError("richness levels must share one grid_resolution")
                if len(smaller.transforms) >= len(larger.transforms):
                    raise ValueError(f"richness level {i} must add transforms over level {i - 1}")
                if not set(smaller.transforms) <= set(larger.transforms):
                    raise ValueError(
                        f"richness level {i} must contain every transform of level {i - 1}"
                    )
        elif self.kind == "strength":
            if not all(v > 0 for v in levels):
                raise ValueError("sweep.levels strength factors must be positive")
            if not all(b > a for a, b in zip(levels, levels[1:])):
                raise ValueError("sweep.levels strength factors must be strictly increasing")
        else:
            if any(t.rule == "identity" for t in levels):
                raise ValueError("sweep.levels catalog must not contain identity")
            if len(set(levels)) != len(levels):
                raise ValueError("sweep.levels catalog must not repeat a transform")
            if len(levels) < 2:
                raise ValueError("pairs sweep needs a catalog of at least two transforms")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: GeneratorConfig | str
    augmentation: AugmentationSet
    encoder: EncoderArch
    training: TrainConfig
    delta_grid: tuple[float, ...]
    epsilon_grid: tuple[float, ...]
    clique_mode: Literal["exact", "dual_approx"]
    sweep: SweepSpec | None = None

    def __post_init__(self) -> None:
        if not self.delta_grid:
            raise ConfigError("analysis.delta_grid must be non-empty")
        # Written so that NaN fails.
        if not all(d > 0 for d in self.delta_grid):
            raise ConfigError("analysis.delta_grid entries must be positive")
        if not all(b > a for a, b in zip(self.delta_grid, self.delta_grid[1:])):
            raise ConfigError("analysis.delta_grid must be strictly ascending")
        if not self.epsilon_grid:
            raise ConfigError("analysis.epsilon_grid must be non-empty")
        if not all(e > 0 for e in self.epsilon_grid):
            raise ConfigError("analysis.epsilon_grid entries must be positive")
        if len(set(self.epsilon_grid)) != len(self.epsilon_grid):
            raise ConfigError("analysis.epsilon_grid must not repeat a value")
        try:
            _check_pairing(self.training.loss, self.encoder.norm_mode, self.encoder.radius)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Analysis:
    """The ``analysis`` section; ``ExperimentConfig`` holds its fields flat."""

    delta_grid: tuple[float, ...]
    epsilon_grid: tuple[float, ...]
    clique_mode: Literal["exact", "dual_approx"] = "exact"


_SECTIONS = ("dataset", "augmentation", "encoder", "training", "analysis", "sweep")

# What a sweep's levels are read as for each kind, and what errors call a level.
_SWEEP_LEVELS = {
    "richness": (AugmentationSet, "augmentation"),
    "strength": (float, "factor"),
    "pairs": (Transform, "transform"),
}


def _read(tp: object, raw: object, where: str, what: str | None = None):
    """``from_spec(tp, raw, where)``; its ``ValueError`` becomes
    ``ConfigError("<what> invalid: …")``, by default ``what`` = ``"<where> section"``."""
    try:
        return from_spec(tp, raw, where)
    except ValueError as exc:
        raise ConfigError(f"{what or where + ' section'} invalid: {exc}") from exc


def _read_dataset(raw: object, base_dir: str) -> GeneratorConfig | str:
    # A path loads a saved dataset; generator keys beside it are ignored.
    if isinstance(raw, dict) and "path" in raw:
        path = _read(str, raw["path"], "dataset.path", "dataset section")
        return os.path.normpath(os.path.join(base_dir, path))
    return _read(GeneratorConfig, raw, "dataset")


def _read_sweep(raw: object) -> SweepSpec:
    # The kind chooses what the levels are read as; a bad kind is reported below.
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if isinstance(kind, str) and kind in _SWEEP_LEVELS and "levels" in raw:
        level, what = _SWEEP_LEVELS[kind]
        levels = _read(tuple[level, ...], raw["levels"], "sweep.levels", f"sweep.levels {what}")
        raw = {**raw, "levels": levels}
    return _read(SweepSpec, raw, "sweep")


def config_from_dict(raw: dict, base_dir: str = ".") -> ExperimentConfig:
    """Read a config document; a schema violation raises :class:`ConfigError`."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    for key in raw:
        if key not in _SECTIONS:
            raise ConfigError(f"unknown key config.{key}; expected one of {', '.join(_SECTIONS)}")
    for key in _SECTIONS[:-1]:
        if key not in raw:
            raise ConfigError(f"config.{key} is missing")
    analysis = _read(_Analysis, raw["analysis"], "analysis")
    dataset = _read_dataset(raw["dataset"], base_dir)
    augmentation = _read(AugmentationSet, raw["augmentation"], "augmentation")
    # A generated dataset's dimension is known now. A saved one is not read
    # here: ``stage_dataset`` checks every set against it, sweep levels too.
    if isinstance(dataset, GeneratorConfig):
        try:
            augmentation.check_dimension(dataset.input_dim)
        except ValueError as exc:
            raise ConfigError(f"augmentation section invalid: {exc}") from exc
    return ExperimentConfig(
        dataset=dataset,
        augmentation=augmentation,
        encoder=_read(EncoderArch, raw["encoder"], "encoder"),
        training=_read(TrainConfig, raw["training"], "training"),
        sweep=_read_sweep(raw["sweep"]) if "sweep" in raw else None,
        **vars(analysis),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def config_to_dict(config: ExperimentConfig) -> dict:
    """Round-trippable plain-dict form (written next to the artifacts)."""
    out = spec_dict(config)
    out["analysis"] = {key: out.pop(key) for key in ("delta_grid", "epsilon_grid", "clique_mode")}
    if isinstance(config.dataset, str):
        out["dataset"] = {"path": config.dataset}
    return out


def with_seed_override(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Re-seed the whole pipeline from one master seed: the dataset (when
    generated rather than loaded) gets ``seed``, the encoder init
    ``seed + 1``, the training stream ``seed + 2``. A seed that is not a
    non-negative integer raises :class:`ConfigError`."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    dataset = config.dataset
    if isinstance(dataset, GeneratorConfig):
        dataset = replace(dataset, seed=seed)
    return replace(
        config,
        dataset=dataset,
        encoder=replace(config.encoder, seed=seed + 1),
        training=replace(config.training, seed=seed + 2),
    )


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


class EvalRecord(dict):
    """What ``stage_evaluate`` measured on the trained encoder: the rows of
    ``evaluation.csv``, key to value in file order. ``err`` reads
    ``self["err"]``."""

    @property
    def err(self) -> float:
        return self["err"]


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    out_dir: str
    dataset: Dataset
    model: EncoderModel
    curve: tuple[ConcentrationEstimate, ...]
    bundle: EvalRecord
    reports: dict[tuple[int, int], BoundReport]

    @property
    def canonical_report(self) -> BoundReport:
        """Report at the largest delta and the first epsilon of the grids."""
        return self.reports[(len(self.config.delta_grid) - 1, 0)]


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Report any failure of the body as ``StageError(name, ...)``.

    A ``StageError`` raised inside passes unchanged, so a stage keeps the
    name of the stage that failed first.
    """
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def write_config(config: ExperimentConfig, out_dir: str) -> None:
    """Create ``out_dir`` and write the resolved config to ``config.json`` in it."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        fh.write(json.dumps(config_to_dict(config), sort_keys=True, indent=2) + "\n")


def stage_dataset(config: ExperimentConfig, out_dir: str) -> Dataset:
    """Load or generate the dataset, check that every transform fits its
    dimension and write ``dataset.csv``. The config loader checks only a
    generated dataset's base set; a saved dataset or a sweep level is first
    checked here."""
    with _stage("dataset"):
        if isinstance(config.dataset, str):
            dataset = load_dataset(config.dataset)
        else:
            dataset = generate_dataset(config.dataset)
        config.augmentation.check_dimension(dataset.input_dim)
        save_dataset(dataset, os.path.join(out_dir, "dataset.csv"))
        return dataset


def _init_model(config: ExperimentConfig, dataset: Dataset) -> EncoderModel:
    return init_encoder(
        input_dim=dataset.input_dim,
        hidden_dims=config.encoder.hidden_dims,
        output_dim=config.encoder.output_dim,
        norm_mode=config.encoder.norm_mode,
        seed=config.encoder.seed,
    )


class _SweepTraining:
    """Lockstep training of a sweep's levels, set by ``run_sweep`` for the
    sweep's duration; ``level`` is the index of the level running.

    The first level to reach ``stage_train`` trains, in one stack
    (``encoder._train_stack``), itself and every level not yet started, on
    its own dataset: the levels share the dataset config, so their datasets
    are alike. Each of those levels then takes its own model and trace, or
    the exception that training it alone raises. A level that fails before
    training trains nothing of its own, and a sweep whose levels all fail
    before training trains nothing at all.
    """

    def __init__(self, configs: list[ExperimentConfig]) -> None:
        self.configs = configs
        self.level = 0
        self.results: dict[int, tuple[EncoderModel, np.ndarray] | Exception] | None = None

    def train(self, dataset: Dataset) -> tuple[EncoderModel, np.ndarray]:
        if self.results is None:
            pending = self.configs[self.level :]
            trained = encoder._train_stack(
                [_init_model(config, dataset) for config in pending],
                dataset,
                [config.augmentation for config in pending],
                pending[0].training,
            )
            self.results = dict(enumerate(trained, start=self.level))
        result = self.results.pop(self.level)
        if isinstance(result, Exception):
            raise result
        return result


_SWEEP_TRAINING: ContextVar[_SweepTraining | None] = ContextVar("sweep_training", default=None)


def stage_train(
    config: ExperimentConfig, dataset: Dataset, out_dir: str
) -> tuple[EncoderModel, np.ndarray]:
    """Train the encoder and write ``model.bin`` and ``trace.csv``. For the
    config of the sweep level that is running, the model and trace come
    from the sweep's lockstep training; they are those of training the
    level here alone."""
    with _stage("train"):
        sweep = _SWEEP_TRAINING.get()
        if sweep is not None and config is sweep.configs[sweep.level]:
            trained, trace = sweep.train(dataset)
        else:
            model = _init_model(config, dataset)
            trained, trace = train(model, dataset, config.augmentation, config.training)
        save_model(trained, os.path.join(out_dir, "model.bin"), seed=config.encoder.seed)
        write_csv(
            os.path.join(out_dir, "trace.csv"),
            ["step", "loss", "l1", "l2"],
            ((int(s), l, a, b) for s, l, a, b in trace.tolist()),
        )
        return trained, trace


def stage_concentration(
    config: ExperimentConfig, dataset: Dataset, out_dir: str
) -> tuple[ConcentrationEstimate, ...]:
    with _stage("concentration"):
        curve = sigma_delta_curve(
            dataset, config.augmentation, config.delta_grid, config.clique_mode
        )
        write_csv(
            os.path.join(out_dir, "concentration.csv"),
            [
                "delta", "class_id", "class_size", "main_part_size",
                "sigma_class", "sigma", "mode", "members",
            ],
            (
                (e.delta, k, size, len(part), sigma_k, e.sigma, e.mode, " ".join(map(str, part)))
                for e in curve
                for k, (part, size, sigma_k) in enumerate(
                    zip(e.main_parts, e.class_sizes, e.per_class_sigma)
                )
            ),
        )
        return curve


def stage_evaluate(
    config: ExperimentConfig,
    dataset: Dataset,
    model: EncoderModel,
    curve: tuple[ConcentrationEstimate, ...],
    out_dir: str,
) -> EvalRecord:
    """Measure the trained encoder over the view grid; write the record to
    ``evaluation.csv`` and return it.

    The network runs over the dataset's view grid once (``embed_views``).
    The raw samples' embeddings, which the nearest-center rule classifies
    for ``err``, are the identity's column of that grid: the identity is a
    required member, and its view of a sample is the sample itself.
    """
    with _stage("evaluate"):
        views = view_tensor(dataset.features, config.augmentation)
        weights = view_weights(config.augmentation)
        embedded = embed_views(model, views, weights)
        centers = class_centers(embedded, dataset)
        # The identity's view of a sample is the sample itself, bit for bit.
        raw = embedded.z[:, config.augmentation.discrete.index(identity())]
        correct = classify_batch(centers, raw) == dataset.labels
        first, second = class_moments(embedded, dataset, centers)
        loss = population_loss(embedded, config.training.loss, config.training.lam)
        record = EvalRecord(
            {
                "err": float(np.mean(~correct)),
                "lipschitz": embedded.lipschitz,
                "delta_mu": delta_mu(centers, embedded.radius),
                "radius": embedded.radius,
                "l_pos": max(embedded.l_pos, 0.0),
                "loss.kind": loss.kind,
                "loss.total": loss.total,
                "loss.l1": loss.l1,
                "loss.l2": loss.l2,
            }
        )
        fractions = empirical_r_eps(embedded, config.epsilon_grid)
        for eps, fraction in zip(config.epsilon_grid, fractions):
            record[f"r_eps.{csv_value(float(eps))}"] = fraction
        for k in range(dataset.num_classes):
            record[f"moment.first.class_{k}"] = float(first[k])
            record[f"moment.second.class_{k}"] = float(second[k])
            record[f"center_norm.class_{k}"] = float(np.linalg.norm(centers[k]))
        products = centers @ centers.T
        for k, l in itertools.combinations(range(dataset.num_classes), 2):
            record[f"mu_product.{k}_{l}"] = float(products[k, l])
        for i, estimate in enumerate(curve):
            members = np.concatenate([np.asarray(part, dtype=int) for part in estimate.main_parts])
            record[f"premise_fraction.delta_{i}"] = float(np.mean(correct[members]))
        write_csv(os.path.join(out_dir, "evaluation.csv"), ["key", "value"], record.items())
        return record


def stage_bounds(
    config: ExperimentConfig,
    dataset: Dataset,
    curve: tuple[ConcentrationEstimate, ...],
    record: Mapping[str, object],
    out_dir: str,
) -> dict[tuple[int, int], BoundReport]:
    """Evaluate every (delta, epsilon) cell and write ``bounds.csv``.

    A cell reads the evaluation record, the curve's delta and sigma, the
    config and the dataset priors, nothing else: the record parsed back from
    ``evaluation.csv`` gives the same file.
    """
    with _stage("bounds"):
        aug = config.augmentation
        classes = range(len(dataset.priors))
        empirical = EmpiricalMeasurements(
            err=record["err"],
            class_first_moments=tuple(record[f"moment.first.class_{k}"] for k in classes),
            class_second_moments=tuple(record[f"moment.second.class_{k}"] for k in classes),
        )
        mu_products = tuple(
            record[f"mu_product.{k}_{l}"] for k, l in itertools.combinations(classes, 2)
        )
        reports: dict[tuple[int, int], BoundReport] = {}
        long_rows: list[tuple[float, float, str, object]] = []
        for i, estimate in enumerate(curve):
            for j, eps in enumerate(config.epsilon_grid):
                inputs = BoundInputs(
                    sigma=estimate.sigma,
                    delta=estimate.delta,
                    epsilon=float(eps),
                    r_eps=record[f"r_eps.{csv_value(float(eps))}"],
                    l_pos=record["l_pos"],
                    lipschitz=record["lipschitz"],
                    num_discrete=aug.num_discrete,
                    num_continuous=aug.num_continuous_params,
                    transform_lipschitz=aug.effective_lipschitz,
                    priors=dataset.priors,
                    loss_kind=record["loss.kind"],
                    l1=record["loss.l1"],
                    l2=record["loss.l2"],
                    radius=record["radius"],
                    dim=config.encoder.output_dim,
                    delta_mu=record["delta_mu"],
                    mu_products=mu_products,
                )
                report = full_report(inputs, empirical)
                reports[(i, j)] = report
                for key, value in report.to_flat_dict().items():
                    long_rows.append((estimate.delta, inputs.epsilon, key, value))
        write_csv(
            os.path.join(out_dir, "bounds.csv"), ["delta", "epsilon", "key", "value"], long_rows
        )
        return reports


def run_experiment(config: ExperimentConfig, out_dir: str) -> ExperimentResult:
    """Run the full pipeline, persist every artifact, return the results.

    Stage order: dataset, concentration, train, evaluate, bounds. A stage
    failure raises StageError with that stage's name; artifacts written by
    earlier stages stay on disk for inspection. Training draws only from its
    own seed, so no artifact depends on where it sits in this order.
    """
    write_config(config, out_dir)
    dataset = stage_dataset(config, out_dir)
    curve = stage_concentration(config, dataset, out_dir)
    model, _ = stage_train(config, dataset, out_dir)
    record = stage_evaluate(config, dataset, model, curve, out_dir)
    reports = stage_bounds(config, dataset, curve, record, out_dir)
    return ExperimentResult(
        config=config,
        out_dir=out_dir,
        dataset=dataset,
        model=model,
        curve=curve,
        bundle=record,
        reports=reports,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def scale_transform_strength(transform, factor: float):
    """Scale a transform's departure from the identity by ``factor``.

    Shifts scale their direction, rotations their maximum angle, scalings
    their span around 1; discrete transforms are returned unchanged.
    """
    if not factor > 0:
        raise ValueError("strength factor must be positive")
    if transform.rule == "additive_shift":
        return replace(transform, direction=tuple(v * factor for v in transform.direction))
    if transform.rule == "rotation_2d_subspace":
        return replace(transform, max_angle=transform.max_angle * factor)
    if transform.rule == "scale":
        low, high = transform.scale_span
        return replace(
            transform, scale_span=(1.0 - factor * (1.0 - low), 1.0 + factor * (high - 1.0))
        )
    return transform


def _sweep_levels(config: ExperimentConfig, sweep: SweepSpec) -> list[tuple[str, AugmentationSet]]:
    """Expand a sweep into (level label, augmentation set) pairs."""
    if sweep.kind == "richness":
        return [(str(len(aug.transforms)), aug) for aug in sweep.levels]
    base = config.augmentation
    if sweep.kind == "strength":
        out = []
        for factor in sweep.levels:
            transforms = tuple(scale_transform_strength(t, factor) for t in base.transforms)
            out.append((csv_value(float(factor)), replace(base, transforms=transforms)))
        return out
    catalog = sweep.levels
    return [
        (f"{a}_{b}", replace(base, transforms=(identity(), catalog[a], catalog[b])))
        for a in range(len(catalog))
        for b in range(a + 1, len(catalog))
    ]


@dataclass(frozen=True)
class SweepResult:
    out_dir: str
    levels: tuple[str, ...]
    results: dict[str, ExperimentResult]
    failures: tuple[tuple[str, str, str], ...]


def run_sweep(config: ExperimentConfig, out_dir: str) -> SweepResult:
    """One full experiment per sweep level, fresh encoder each time.

    Each level runs through its own ``run_experiment`` call, in level order.
    The levels train in lockstep (see ``_SweepTraining``): the first level
    to reach ``stage_train`` trains every level not yet started, so its
    ``run_experiment`` call carries their training time. Every artifact is
    that of running the level's config through ``run_experiment`` alone.

    Writes the resolved config, sweep section included, to ``config.json``,
    per-level artifacts under level subdirectories, a summary CSV
    (columns level, sigma, one_minus_sigma, err, thm1_bound, valid — sigma
    taken at the last delta of the grid, the bound at the first epsilon),
    a failures CSV, and for pairs sweeps a correlation CSV with the
    Spearman rank correlation between (1 - sigma) and err at every delta.
    Where that correlation is undefined it reads nan, and one stderr line
    says why.
    """
    if config.sweep is None:
        raise ConfigError("config has no sweep section")
    write_config(config, out_dir)
    levels = _sweep_levels(config, config.sweep)
    labels = [label for label, _ in levels]
    level_cfgs = [replace(config, augmentation=aug, sweep=None) for _, aug in levels]
    results: dict[str, ExperimentResult] = {}
    failures: list[tuple[str, str, str]] = []
    training = _SweepTraining(level_cfgs)
    token = _SWEEP_TRAINING.set(training)
    try:
        for index, (label, level_cfg) in enumerate(zip(labels, level_cfgs)):
            training.level = index
            level_dir = os.path.join(out_dir, f"level_{index:02d}")
            try:
                results[label] = run_experiment(level_cfg, level_dir)
            except StageError as exc:
                failures.append((label, exc.stage, str(exc)))
    finally:
        _SWEEP_TRAINING.reset(token)

    summary = []
    for label in labels:
        if label in results:
            result = results[label]
            report = result.canonical_report
            sigma = result.curve[-1].sigma
            summary.append(
                (label, sigma, 1.0 - sigma, result.bundle.err, report.thm1_bound, report.thm1_valid)
            )
    write_csv(
        os.path.join(out_dir, "summary.csv"),
        ["level", "sigma", "one_minus_sigma", "err", "thm1_bound", "valid"],
        summary,
    )
    write_csv(os.path.join(out_dir, "failures.csv"), ["level", "stage", "message"], failures)

    if config.sweep.kind == "pairs":
        _write_pairs_correlation(config, results, labels, out_dir)

    return SweepResult(
        out_dir=out_dir,
        levels=tuple(labels),
        results=results,
        failures=tuple(failures),
    )


def _write_pairs_correlation(
    config: ExperimentConfig,
    results: dict[str, ExperimentResult],
    labels: list[str],
    out_dir: str,
) -> None:
    ok = [label for label in labels if label in results]
    errs = [results[label].bundle.err for label in ok]
    rows = []
    for i, delta in enumerate(config.delta_grid):
        # Library callers may pass int deltas; the column holds floats.
        delta = float(delta)
        one_minus_sigma = [1.0 - results[label].curve[i].sigma for label in ok]
        if len(ok) < 2:
            reason = "fewer than two levels completed"
        elif len(set(one_minus_sigma)) < 2:
            reason = "1 - sigma is the same at every level"
        elif len(set(errs)) < 2:
            reason = "err is the same at every level"
        else:
            rows.append((delta, _spearman(one_minus_sigma, errs)))
            continue
        print(f"spearman at delta {csv_value(delta)} is nan: {reason}", file=sys.stderr)
        rows.append((delta, float("nan")))
    write_csv(os.path.join(out_dir, "correlation.csv"), ["delta", "spearman"], rows)


def _average_ranks(values: list[float]) -> np.ndarray:
    """1-based ranks of ``values``; tied values share the mean of their ranks."""
    _, inverse, counts = np.unique(
        np.asarray(values, dtype=float), return_inverse=True, return_counts=True
    )
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[inverse]


def _spearman(x: list[float], y: list[float]) -> float:
    """Spearman rank correlation: the Pearson correlation of the average ranks.

    Equal to ``scipy.stats.spearmanr(x, y).statistic`` bit for bit (element
    ``[1, 0]`` of the correlation matrix; ``[0, 1]`` can differ in the last
    ulp), without importing ``scipy.stats`` and the modules it loads.
    """
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[1, 0])
