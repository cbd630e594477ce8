"""Command-line experiment runner.

Subcommands cover the pipeline stages individually (``gen-data``,
``train``, ``concentration``, ``evaluate``, ``bounds``) plus ``sweep``.
Because every stage is deterministic given the config, a subcommand
simply reruns the stages it needs, in ``run_experiment``'s order (dataset,
concentration, train, evaluate, bounds); the artifacts it persists are
byte-identical across reruns with the same config and seed.

Exit codes: 0 success, 2 config error or an output directory that cannot
be written (outside a stage: the directory, ``config.json``, a sweep's
level directories and summary files), 3 stage failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .experiments import (
    ConfigError,
    ExperimentConfig,
    StageError,
    load_config,
    run_experiment,
    run_sweep,
    stage_concentration,
    stage_dataset,
    stage_evaluate,
    stage_train,
    with_seed_override,
    write_config,
)

__all__ = ["main"]

_MODE_MAP = {"exact": "exact", "approx": "dual_approx"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="augbound",
        description="Measure augmentation concentration and verify encoder error guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "gen-data": "Generate (or load) the dataset and persist it as CSV.",
        "train": "Train the encoder; also writes the dataset artifact.",
        "concentration": "Estimate sigma over the delta grid from raw augmented distances.",
        "evaluate": "Measure error rate, alignment, and moments of the trained encoder.",
        "bounds": "Run the full pipeline and write every guarantee report.",
        "sweep": "Run the configured sweep: one full experiment per level.",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", required=True, help="output directory for artifacts")
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="master seed override: dataset seed, encoder seed+1, training seed+2",
        )
        p.add_argument(
            "--mode",
            choices=sorted(_MODE_MAP),
            default=None,
            help="main-part search mode override: the exact clique search, or the same "
            "search under a node budget (a maximal clique, never larger)",
        )
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config)
    if args.seed is not None:
        config = with_seed_override(config, args.seed)
    if args.mode is not None:
        config = replace(config, clique_mode=_MODE_MAP[args.mode])
    return config


def _run(command: str, config: ExperimentConfig, out_dir: str) -> None:
    if command == "sweep":
        result = run_sweep(config, out_dir)
        print(
            f"sweep complete: {len(result.results)} of {len(result.levels)} levels "
            f"succeeded, summary at {os.path.join(out_dir, 'summary.csv')}"
        )
        return
    if command == "bounds":
        result = run_experiment(config, out_dir)
        report = result.canonical_report
        print(
            f"bounds written to {os.path.join(out_dir, 'bounds.csv')} "
            f"(err={result.bundle.err:.4f}, thm1_bound={report.thm1_bound:.4f}, "
            f"valid={str(report.thm1_valid).lower()})"
        )
        return

    write_config(config, out_dir)
    dataset = stage_dataset(config, out_dir)
    if command == "gen-data":
        print(
            f"dataset written to {os.path.join(out_dir, 'dataset.csv')} "
            f"({dataset.num_samples} samples, {dataset.num_classes} classes)"
        )
        return
    if command == "train":
        model, trace = stage_train(config, dataset, out_dir)
        final = trace[-1, 1] if trace.size else float("nan")
        print(
            f"model written to {os.path.join(out_dir, 'model.bin')} "
            f"({trace.shape[0]} steps, final loss {final:.6f})"
        )
        return
    if command == "concentration":
        curve = stage_concentration(config, dataset, out_dir)
        print(
            f"concentration written to {os.path.join(out_dir, 'concentration.csv')} "
            f"(sigma at largest delta: {curve[-1].sigma:.4f})"
        )
        return
    # evaluate, in run_experiment's order
    curve = stage_concentration(config, dataset, out_dir)
    model, _ = stage_train(config, dataset, out_dir)
    record = stage_evaluate(config, dataset, model, curve, out_dir)
    print(
        f"evaluation written to {os.path.join(out_dir, 'evaluation.csv')} "
        f"(err={record['err']:.4f}, l_pos={record['l_pos']:.6f})"
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        os.makedirs(args.out, exist_ok=True)
        _run(args.command, config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(exc, file=sys.stderr)
        return 3
    except OSError as exc:
        # Stages report their own IO errors as StageError; what is left is
        # writing the output tree: the directory, config.json, sweep files.
        where = "" if exc.filename in (None, args.out) else f": {exc.filename}"
        print(f"cannot write output directory {args.out}: {exc.strerror}{where}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
