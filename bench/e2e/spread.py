#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

    python3 bench/e2e/spread.py --runs 10              # seeds 1..10
    python3 bench/e2e/spread.py --runs 5 --sets 2 --fixed-seed 1

Runs every workload (or --workloads) through run.py, alternating workloads
and, with --sets 2, the two sets, so drift hits every cell alike. For each
set and end-to-end metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the quartiles as a share of the median. With two sets it also prints
how far the second median moved from the first. A spread or move above a
third of the metric's bound in BENCHMARK.json is flagged with '!'.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def run_once(workload: str, seed: int, seconds: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"spread.py: {workload} seed {seed} exited "
                 f"{proc.returncode}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=[1, 2])
    parser.add_argument("--fixed-seed", type=int,
                        help="use this seed for every run (default: 1..runs)")
    parser.add_argument("--seconds", default=str(spec["run_seconds"]))
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    samples = {}  # (set, workload) -> list of metric dicts
    for run in range(args.runs):
        for s in range(args.sets):
            for workload in args.workloads:
                seed = args.fixed_seed or run + 1
                samples.setdefault((s, workload), []).append(
                    run_once(workload, seed, args.seconds))
                print(f"  set {s + 1} run {run + 1} {workload} done",
                      file=sys.stderr)

    print(f"{'workload':12} {'metric':12} {'set':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'move':>8}")
    for workload in args.workloads:
        for metric, bound in bounds.items():
            medians = []
            for s in range(args.sets):
                values = [r[metric] for r in samples[(s, workload)]]
                q1, q2, q3, spread = summarize(values)
                medians.append(q2)
                flag = "!" if metric != "setup_s" and spread > bound / 3 else ""
                move = ""
                if s == 1:
                    moved = abs(medians[1] - medians[0]) / medians[0]
                    move = f"{moved:7.3f}" + ("!" if moved > bound / 3 else "")
                print(f"{workload:12} {metric:12} {s + 1:>3} {q2:12.4f} "
                      f"{q1:12.4f} {q3:12.4f} {spread:7.3f}{flag:1} "
                      f"{bound:6.2f} {move:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
