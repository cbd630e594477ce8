"""Every workload's end-to-end results, one row per workload.

    python3 bench/report.py [--seed 1] [--seconds 30]

Runs ``run.py`` untraced on each workload in turn (each in its own fresh
processes) and prints a table: every end-to-end metric with its unit and
better-direction in the header, then the output-check verdict and the
failures by stage. The run's metadata (git SHA, nproc, thread pins and
Python, numpy and scipy versions) is printed below the table.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import END_TO_END
from workloads import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()

    header = ["workload"] + [f"{name} [{unit}, {better}]" for name, unit, better in END_TO_END]
    header += ["output check", "failed/attempted (passes)", "failures by stage"]
    rows, env = [], None
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"{workload}: benchmark failed with exit code {proc.returncode}")
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        detail = json.loads(next(ln for ln in lines if ln.startswith("# detail "))[9:])
        env = detail["env"]
        stages = ", ".join(f"{k} {v}" for k, v in detail["failures_by_stage"].items())
        rows.append(
            [workload]
            + [f"{result['metrics'][name]['value']:.4g}" for name, _, _ in END_TO_END]
            + [detail["output_check"], f"{detail['failed']}/{detail['attempted']} ({detail['passes']})",
               stages or "none"]
        )
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    print(f"seed {args.seed}, {args.seconds:g} s per workload; environment: "
          + json.dumps(env, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
