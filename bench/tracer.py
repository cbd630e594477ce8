"""Spans around the public functions of each ``augbound`` layer.

The wrappers are installed from outside the package. ``augbound`` modules
bind each other's functions by name (``from .encoder import train``), so a
wrapper must replace every module attribute that holds the original
function, not only the one on its home module; otherwise callers such as
``experiments.stage_train`` keep calling the unwrapped function.

Spans (name, start, end, parent, run id) stay in memory until the run
ends. A span's self time is its duration minus the time its child spans
cover. Counters computed from argument and result shapes ride on the same
wrappers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


def _view_tensor_rows(args, result):
    return {"augment.view_tensor.rows": result.shape[0] * result.shape[1]}


def _distance_block_bytes(args, result):
    dataset, aug = args["dataset"], args["aug"]
    class_filter = args.get("class_filter")
    n = dataset.num_samples if class_filter is None else dataset.class_indices(class_filter).size
    v = aug.num_views
    rows = min(args.get("block_rows", 32), n)
    # One float64 cdist block: (rows * V) x (n * V).
    return {"augment.distance_matrix.block_bytes_max": rows * v * n * v * 8}


def _train_steps(args, result):
    return {"encoder.train.steps": result[1].shape[0]}


def _embed_rows(args, result):
    return {"evaluation.embed.rows": args["x"].shape[0]}


def _population_pair_terms(args, result):
    n = args["dataset"].num_samples
    v = args["aug"].num_views
    # InfoNCE pairs every positive view pair of an anchor with every view of
    # every sample: N^2 V^3 logaddexp terms. The other losses are O(N V).
    terms = n * n * v**3 if args["kind"] == "info_nce" else n * v
    return {"evaluation.population_loss.pair_terms": terms}


def _clique_vertices(args, result):
    # The refusal count starts at zero on the first call; the wrapper adds
    # one for each call that raises.
    return {"concentration.exact_max_clique.vertices": args["graph"].num_nodes,
            "concentration.refusals": 0}


@dataclass(frozen=True)
class Target:
    """One wrapped function: metric prefix, home module, attribute path."""

    name: str
    module: str
    attr: str
    report_calls: bool = False
    counter: Callable | None = None
    # Counter evaluated before the call, so refused calls still count.
    counter_before: bool = False
    # Counter that a call raising ValueError (a refusal) adds one to.
    refusal_key: str | None = None


TARGETS = (
    Target("experiments.stage_dataset", "augbound.experiments", "stage_dataset"),
    Target("experiments.stage_train", "augbound.experiments", "stage_train"),
    Target("experiments.stage_concentration", "augbound.experiments", "stage_concentration"),
    Target("experiments.stage_evaluate", "augbound.experiments", "stage_evaluate"),
    Target("experiments.stage_bounds", "augbound.experiments", "stage_bounds"),
    Target("encoder.train", "augbound.encoder", "train", counter=_train_steps),
    Target("encoder.make_train_batch", "augbound.encoder", "make_train_batch"),
    Target("encoder.loss_and_gradient", "augbound.encoder", "loss_and_gradient"),
    Target("encoder.with_params", "augbound.encoder", "with_params"),
    Target("encoder.lipschitz_upper_bound", "augbound.encoder", "lipschitz_upper_bound"),
    Target("losses.info_nce", "augbound.losses", "info_nce"),
    Target("losses.cross_correlation", "augbound.losses", "cross_correlation"),
    Target("losses.cross_corr_loss", "augbound.losses", "cross_corr_loss"),
    Target("losses.simple_contrastive", "augbound.losses", "simple_contrastive"),
    Target("augment.sample_views", "augbound.augment", "sample_views"),
    Target("augment.view_tensor", "augbound.augment", "view_tensor",
           report_calls=True, counter=_view_tensor_rows),
    Target("augment.distance_matrix", "augbound.augment", "distance_matrix",
           report_calls=True, counter=_distance_block_bytes, counter_before=True),
    Target("concentration.sigma_delta_curve", "augbound.concentration", "sigma_delta_curve"),
    Target("concentration.exact_max_clique", "augbound.concentration", "exact_max_clique",
           report_calls=True, counter=_clique_vertices, counter_before=True,
           refusal_key="concentration.refusals"),
    Target("concentration.approx_max_clique", "augbound.concentration", "approx_max_clique",
           report_calls=True),
    Target("evaluation.population_loss", "augbound.evaluation", "population_loss",
           counter=_population_pair_terms, counter_before=True),
    Target("evaluation.embed", "augbound.evaluation", "FrozenEncoder.embed",
           report_calls=True, counter=_embed_rows, counter_before=True),
    Target("evaluation.freeze_encoder", "augbound.evaluation", "freeze_encoder"),
    Target("evaluation.class_centers", "augbound.evaluation", "class_centers"),
    Target("evaluation.empirical_r_eps", "augbound.evaluation", "empirical_r_eps"),
    Target("evaluation.class_moments", "augbound.evaluation", "class_moments"),
    Target("evaluation.error_rate", "augbound.evaluation", "error_rate"),
    Target("bounds.full_report", "augbound.bounds", "full_report", report_calls=True),
    Target("bounds.eta", "augbound.bounds", "eta", report_calls=True),
    Target("core.generate_dataset", "augbound.core", "generate_dataset"),
    Target("core.save_dataset", "augbound.core", "save_dataset"),
)

# Counters the targets above produce. They add up across calls, except that
# a name ending in "_max" keeps the largest value.
COUNTERS = (
    "augment.view_tensor.rows",
    "augment.distance_matrix.block_bytes_max",
    "encoder.train.steps",
    "evaluation.embed.rows",
    "evaluation.population_loss.pair_terms",
    "concentration.exact_max_clique.vertices",
    "concentration.refusals",
)


@dataclass
class Recorder:
    """In-memory span store; ``run_id`` tags spans with the experiment.

    ``factors`` maps a run id to the host-speed factor of its experiment
    (see ``hostspeed``); span times are scaled by it in ``summary``.
    """

    run_id: int = 0
    factors: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(int))

    def add(self, increments: dict) -> None:
        for key, value in increments.items():
            if key.endswith("_max"):
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed duration and summed self time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, run_id) in enumerate(self.spans):
            factor = self.factors.get(run_id, 1.0)
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += (end - start) * factor
            entry["self_s"] += (end - start - child_time[i]) * factor
        return out


def _wrap(recorder: Recorder, target: Target, original: Callable) -> Callable:
    signature = inspect.signature(original)

    def count(args, kwargs, result):
        # A counter that no longer matches the program's signature leaves
        # its count absent (reported as missing) rather than failing the run.
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            recorder.add(target.counter(bound.arguments, result))
        except (AttributeError, KeyError, TypeError, IndexError):
            pass

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = len(recorder.spans)
        parent = recorder.stack[-1] if recorder.stack else -1
        recorder.spans.append(None)
        recorder.stack.append(index)
        if target.counter is not None and target.counter_before:
            count(args, kwargs, None)
        start = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        except ValueError:
            if target.refusal_key is not None:
                recorder.add({target.refusal_key: 1})
            raise
        finally:
            end = time.perf_counter()
            recorder.stack.pop()
            recorder.spans[index] = (target.name, start, end, parent, recorder.run_id)
        if target.counter is not None and not target.counter_before:
            count(args, kwargs, result)
        return result

    return wrapper


def _resolve(target: Target):
    owner = sys.modules.get(target.module)
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner, attr


def replace_everywhere(original: Callable, replacement: Callable) -> list[tuple]:
    """Rebind every ``augbound`` module attribute holding ``original``."""
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "augbound" or mod_name.startswith("augbound.")):
            continue
        names = [name for name, value in vars(module).items() if value is original]
        for name in names:
            setattr(module, name, replacement)
            patched.append((module, name, original))
    return patched


def install(recorder: Recorder, targets=TARGETS) -> list[tuple]:
    """Wrap every target the program still has; returns the undo list.

    A target that no longer exists records no calls and is reported as
    missing.
    """
    patched: list[tuple] = []
    for target in targets:
        owner, attr = _resolve(target)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            continue
        wrapper = _wrap(recorder, target, original)
        if inspect.isclass(owner):
            setattr(owner, attr, wrapper)
            patched.append((owner, attr, original))
        else:
            patched.extend(replace_everywhere(original, wrapper))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)
