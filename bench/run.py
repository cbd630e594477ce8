"""Benchmark of the augbound pipeline on one named workload.

    python3 bench/run.py --workload fixtures --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (it imports ``src/augbound``). Each
run starts fresh interpreters with the BLAS and OpenMP pools pinned to
``THREADS``: a few that only measure set-up, then one worker that runs the
workload's passes (see ``worker.py``). It prints a table of the metrics, a
``# detail`` line with the environment and failure counts, and as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``. Every time it reports (set-up included) is in seconds at a
reference host speed (see ``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy loads here (hostspeed imports it); workers inherit it.
os.environ.update({key: str(THREADS) for key in THREAD_VARS})

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SETUP_PROBES = 3
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("experiments_per_s", "1/s", "higher"),
    ("experiment_s.p50", "s", "lower"),
    ("experiment_s.tail", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sigma_mean", "fraction", "higher"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for target in tracer.TARGETS:
        out += [(f"{target.name}.s", "s", "lower"), (f"{target.name}.self_s", "s", "lower")]
        if target.report_calls:
            out.append((f"{target.name}.calls", "count", "lower"))
    out += [(name, "count", "lower") for name in tracer.COUNTERS]
    out.append(("encoder.step_us", "us", "lower"))
    out += [(f"experiments.failures.{stage}", "count", "lower") for stage in workloads.STAGES]
    out += [
        ("bench.experiments_per_s.untraced", "1/s", "higher"),
        ("bench.experiments_per_s.traced", "1/s", "higher"),
        ("bench.trace_overhead", "fraction", "lower"),
    ]
    return out


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], timeout: float) -> dict:
    with subprocess.Popen(
        [sys.executable, WORKER, *args],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
        finally:
            # Reached on timeout, interrupt or SIGTERM too: never leave the
            # worker running.
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure_setup(workload: str) -> float:
    """Set-up time of one fresh interpreter, scaled by the probes here
    before and after it and by those it makes itself after set-up."""
    speed = hostspeed.HostSpeed()
    speed.probe()
    speed.probe()
    child = run_child(["--workload", workload, "--setup-only"], 60.0)
    speed.samples += child["probes"]
    speed.probe()
    speed.probe()
    return speed.scale(child["setup_s"], 0)


def tail_percentile(times: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile with at least 10 samples beyond it.

    Nearest-rank on the sorted times; below 20 samples it falls back to
    the median. Returns (percentile, value, samples beyond it).
    """
    ordered = sorted(times)
    n = len(ordered)
    p = max(50, math.floor(100 * (n - 10) / n)) if n else 50
    rank = max(1, math.ceil(p * n / 100))
    return p, ordered[rank - 1], n - rank


def rate(tally: dict) -> float:
    return tally["completed"] / tally["timed_s"] if tally["timed_s"] > 0 else 0.0


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, dict]:
    plain = result["plain"]
    p, tail, beyond = tail_percentile(plain["experiment_s"])
    values = {
        "setup_s": statistics.median(setup),
        "experiments_per_s": rate(plain),
        "experiment_s.p50": statistics.median(plain["experiment_s"]),
        "experiment_s.tail": tail,
        "peak_rss_mb": result["peak_rss_mb"],
        "sigma_mean": plain["sigma_sum"] / plain["sigma_cells"],
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "experiments_per_s": f"{plain['completed']} completed in {plain['timed_s']:.2f} s timed",
        "experiment_s.p50": f"{len(plain['experiment_s'])} samples",
        "experiment_s.tail": f"p{p} of {len(plain['experiment_s'])} samples, {beyond} beyond",
        "sigma_mean": f"{plain['sigma_cells']} (experiment, delta) cells",
    }
    return values, notes


def per_layer(result: dict, workload: str) -> tuple[dict, dict]:
    traced = result["traced"]
    passes = traced["passes"]
    spans, counts = result["spans"], result["counts"]
    values: dict[str, float] = {}
    missing = set()
    for target in tracer.TARGETS:
        span = spans.get(target.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if span["calls"] == 0 and target.name not in workloads.NOT_EXERCISED[workload]:
            missing.add(target.name)
        values[f"{target.name}.s"] = span["s"] / passes
        values[f"{target.name}.self_s"] = span["self_s"] / passes
        if target.report_calls:
            values[f"{target.name}.calls"] = span["calls"] / passes
    for name in tracer.COUNTERS:
        if name not in counts:
            missing.add(name)
        values[name] = counts.get(name, 0) / (1 if name.endswith("_max") else passes)
    steps = counts.get("encoder.train.steps", 0)
    values["encoder.step_us"] = (
        spans["encoder.train"]["s"] / steps * 1e6 if steps else 0.0
    )
    for stage in workloads.STAGES:
        values[f"experiments.failures.{stage}"] = traced["failures"][stage] / passes
    untraced, traced_rate = rate(result["plain"]), rate(traced)
    values["bench.experiments_per_s.untraced"] = untraced
    values["bench.experiments_per_s.traced"] = traced_rate
    values["bench.trace_overhead"] = untraced / traced_rate - 1.0 if traced_rate else 0.0
    notes = {name: "missing" for name in missing}
    for name in workloads.NOT_EXERCISED[workload]:
        notes[name] = "not exercised"
    if steps == 0:
        notes["encoder.step_us"] = "missing"
    return values, notes


def print_table(rows: list[tuple[str, float, str, str, str]]) -> None:
    print(f"{'metric':44} {'value':>16} {'unit':8} {'better':7} note")
    for name, value, unit, better, note in rows:
        shown = "missing" if note == "missing" else f"{value:.6g}"
        print(f"{name:44} {shown:>16} {unit:8} {better:7} {note}")


def main() -> int:
    parser = argparse.ArgumentParser(description="augbound pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isdir(os.path.join(ROOT, "src", "augbound")):
        print(f"no augbound sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    began = time.perf_counter()
    try:
        setup = [measure_setup(args.workload) for _ in range(SETUP_PROBES)]
        result = run_child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            DEADLINE_S - (time.perf_counter() - began),
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, ".bench_out"), ignore_errors=True)

    tallies = [result["plain"]] + ([result["traced"]] if args.trace else [])
    attempted = sum(t["attempted"] for t in tallies)
    failed = sum(t["failed"] for t in tallies)
    check_errors = [e for t in tallies for e in t["check_errors"]]
    plain = result["plain"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": plain["passes"],
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "failed_ratio": plain["failed"] / plain["attempted"],
        "failures_by_stage": {k: v for k, v in plain["failures"].items() if v},
        "output_check": "FAIL" if check_errors else "PASS",
        "check_errors": check_errors[:10],
        "setup_samples_s": setup,
        "probe_median_s": result["probe_s"],
        "probe_nominal_s": hostspeed.NOMINAL_S,
        "env": result["env"] | {
            "git_sha": git_sha(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
        },
    }

    if args.trace:
        values, notes = per_layer(result, args.workload)
        metrics = per_layer_metrics()
        # Notes are keyed by span name; a metric inherits its span's note.
        notes = {n: notes.get(n.rsplit(".", 1)[0], notes.get(n, "")) for n, _, _ in metrics}
        detail["span_notes"] = {n: note for n, note in notes.items() if note}
    else:
        values, notes = end_to_end(result, setup)
        metrics = END_TO_END
    units = {name: unit for name, unit, _ in metrics}
    rows = [(n, values[n], u, b, notes.get(n, "")) for n, u, b in metrics]

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes={plain['passes']}")
    print_table(rows)
    print(f"failed_ratio {plain['failed']}/{plain['attempted']} "
          f"by stage {detail['failures_by_stage'] or 'none'}; output check "
          f"{detail['output_check']}")
    for error in check_errors[:10]:
        print(f"  check: {error}")
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not check_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
