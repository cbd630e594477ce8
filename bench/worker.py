"""One benchmark run of one workload, inside a fresh interpreter.

``run.py`` starts this script with pinned thread pools and ``src`` on the
path, and reads the JSON object it prints last. With ``--setup-only`` it
measures set-up (importing ``augbound.cli`` and parsing the workload's
configs), probes the host speed and exits.

A run does ``workloads.pass_count`` whole passes of the workload. Only the
experiment calls are timed; artifact clean-up and the output check run
outside the timed part. Every time is scaled to a reference host speed by
``hostspeed`` (probe time taken out), because the host's own speed drifts
more than the bounds allow. With ``--trace 1`` every pass runs twice on the
same inputs, traced and untraced, so the tracing overhead is measured on
identical work.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field

T0 = time.perf_counter()

import augbound.cli  # noqa: E402,F401  (set-up is timed from T0)
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from augbound import experiments  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def parse_configs(workload: str) -> list[tuple[str, object]]:
    return [
        (label, experiments.config_from_dict(raw))
        for label, raw in workloads.raw_configs(workload)
    ]


@dataclass
class Tally:
    """What a series of passes attempted, completed and measured."""

    passes: int = 0
    timed_s: float = 0.0
    experiment_s: list = field(default_factory=list)
    completed: int = 0
    failures: dict = field(default_factory=lambda: {stage: 0 for stage in workloads.STAGES})
    check_errors: list = field(default_factory=list)
    sigma_sum: float = 0.0
    sigma_cells: int = 0

    @property
    def attempted(self) -> int:
        return len(self.experiment_s)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


class Runner:
    def __init__(self, workload: str, configs, seed: int, scratch: str,
                 speed: hostspeed.HostSpeed) -> None:
        self.workload = workload
        self.configs = configs
        self.seed = seed
        self.scratch = scratch
        self.speed = speed
        self.recorder = None
        self._durations: list[float] = []
        original = experiments.run_experiment

        # Per-experiment timer, installed in every run. run_sweep looks the
        # function up in its module, so the sweep's levels are timed too.
        def timed_run_experiment(config, out_dir):
            if self.recorder is not None:
                self.recorder.run_id += 1
            try:
                result, seconds = self.speed.timed(original, config, out_dir)
            except Exception as exc:
                seconds = exc.bench_scaled_s
                raise
            finally:
                self._durations.append(seconds)
                if self.recorder is not None:
                    self.recorder.factors[self.recorder.run_id] = self.speed.factor
            return result

        tracer.replace_everywhere(original, timed_run_experiment)

    @staticmethod
    def _run(config, out_dir):
        """Run one experiment or sweep; returns (completed results, failures)."""
        if config.sweep is not None:
            sweep = experiments.run_sweep(config, out_dir)
            return list(sweep.results.values()), [stage for _, stage, _ in sweep.failures]
        try:
            return [experiments.run_experiment(config, out_dir)], []
        except experiments.StageError as exc:
            return [], [exc.stage]
        except experiments.ConfigError:
            return [], ["config"]

    def _call(self, config, tally: Tally):
        out_dir = tempfile.mkdtemp(dir=self.scratch)
        try:
            (results, failures), seconds = self.speed.timed(self._run, config, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        tally.timed_s += seconds
        return results, failures

    def run_pass(self, pass_index: int, tally: Tally, traced: bool) -> None:
        # Traced passes probe only around experiments, so that no probe
        # lands inside a span.
        patched: list = []
        if traced:
            patched = tracer.install(self.recorder)
        else:
            self.speed.start()
        completed = []
        try:
            for label, config in self.configs:
                for seed in workloads.pass_seeds(self.workload, self.seed, pass_index):
                    seeded = experiments.with_seed_override(config, seed)
                    self._durations.clear()
                    results, failures = self._call(seeded, tally)
                    tally.experiment_s.extend(self._durations)
                    for stage in failures:
                        tally.failures[stage] += 1
                    # A failed experiment certifies nothing: sigma 0 per delta.
                    tally.sigma_cells += len(seeded.delta_grid) * len(failures)
                    completed.extend((f"{label} seed={seed}", r) for r in results)
        finally:
            self.speed.stop()
            tracer.uninstall(patched)
        rng = np.random.default_rng([self.seed, pass_index])
        for tag, result in completed:
            errors = checks.check_experiment(result, rng)
            tally.sigma_cells += len(result.curve)
            if errors:
                tally.failures["check"] += 1
                tally.check_errors.extend(f"{tag}: {e}" for e in errors[:3])
            else:
                tally.completed += 1
                tally.sigma_sum += sum(estimate.sigma for estimate in result.curve)
        tally.passes += 1


def run(args, configs) -> dict:
    # Artifacts go under the checkout; run.py removes this directory.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scratch = os.path.join(root, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    speed = hostspeed.HostSpeed()
    runner = Runner(args.workload, configs, args.seed, scratch, speed)
    plain, traced = Tally(), Tally()
    if args.trace:
        runner.recorder = tracer.Recorder()
    # Trace runs do every pass twice, so they do half as many.
    passes = workloads.pass_count(args.workload, args.seconds / (2 if args.trace else 1))
    for pass_index in range(passes):
        if not args.trace:
            runner.run_pass(pass_index, plain, traced=False)
            continue
        # Alternate which twin runs first, starting with the traced one, so
        # the process's first-pass warm-up counts against tracing.
        order = [(traced, True), (plain, False)]
        for tally, on in order if pass_index % 2 == 0 else order[::-1]:
            runner.run_pass(pass_index, tally, traced=on)
    out = {
        "probe_s": statistics.median(speed.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "plain": plain.__dict__ | {"attempted": plain.attempted, "failed": plain.failed},
        "env": environment(),
    }
    if args.trace:
        out["traced"] = traced.__dict__ | {"attempted": traced.attempted, "failed": traced.failed}
        out["spans"] = runner.recorder.summary()
        out["counts"] = dict(runner.recorder.counts)
    return out


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    configs = parse_configs(args.workload)
    if args.setup_only:
        setup_s = time.perf_counter() - T0
        # Host speed right after set-up, in the process that did it.
        speed = hostspeed.HostSpeed()
        for _ in range(5):
            speed.probe()
        print(json.dumps({"setup_s": setup_s, "probes": speed.samples}))
        return 0
    print(json.dumps(run(args, configs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
