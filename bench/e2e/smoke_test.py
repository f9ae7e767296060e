#!/usr/bin/env python3
"""bench_e2e_smoke: checks BENCHMARK.json and the benchmark's output.

    python3 bench/e2e/smoke_test.py PATH/TO/bench_e2e

1. BENCHMARK.json: exact key sets, metric names matching [A-Za-z0-9_.-]+ and
   used once, 3 workloads, at most 16 end-to-end and 128 per-layer metrics,
   bounds in [0, 0.25], and setup_s present.
2. layers.json names, for every per-layer metric, its layer (the name's
   prefix) and the end-to-end metric and workload it should move.
3. Every workload runs with --smoke in both modes and must print, as its last
   line, exactly the declared metrics with their units, and no failure.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"bench_e2e_smoke: {message}")


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(spec["paths"] == ["bench/e2e"], "paths must be ['bench/e2e']")
    check(len(spec["workloads"]) == 3, "expected 3 workloads")
    check(len(spec["end_to_end"]) <= 16, "more than 16 end-to-end metrics")
    check(len(spec["per_layer"]) <= 128, "more than 128 per-layer metrics")
    names = []
    for workload in spec["workloads"]:
        check(set(workload) == {"name", "why"}, f"workload keys {workload}")
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        check(set(metric) == {"name", "unit", "better", "bound"},
              f"end-to-end keys {metric}")
        check(0 <= metric["bound"] <= 0.25, f"bound of {metric['name']}")
    for metric in spec["per_layer"]:
        check(set(metric) == {"name", "unit", "better"},
              f"per-layer keys {metric}")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        names.append(metric["name"])
        check(UNIT.match(metric["unit"]) is not None,
              f"unit of {metric['name']}")
        check(metric["better"] in ("lower", "higher"),
              f"direction of {metric['name']}")
    for name in names:
        check(NAME.match(name) is not None, f"bad name '{name}'")
    check(len(names) == len(set(names)), "a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in spec["end_to_end"])}],
          "setup_s must be in s, lower, with the largest bound")


def check_layers(spec: dict, layers: dict) -> None:
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    check(set(layers) == per_layer,
          "layers.json must describe exactly the per-layer metrics")
    for name, entry in layers.items():
        check(entry["layer"] == name.split(".")[0], f"layer of {name}")
        check(bool(entry["call"]), f"call of {name}")
        if entry["layer"] == "trace":
            continue  # Checks on the trace itself move nothing.
        check(entry["moves"] in end_to_end, f"end-to-end metric of {name}")
        check(entry["workload"] in workloads, f"workload of {name}")


def check_run(binary: str, workload: str, trace: str,
              expected: dict) -> None:
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", "1", "--trace", trace,
         "--smoke", "--work-dir", "smoke-work"],
        stdout=subprocess.PIPE, text=True, check=False, timeout=120)
    where = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{where} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{where}: result keys")
    check(result["correct"] is True and result["failed"] == 0,
          f"{where}: {result['failed']} failed operations")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{where}: attempted")
    check(set(result["metrics"]) == set(expected),
          f"{where}: metrics differ from BENCHMARK.json: "
          f"{sorted(set(result['metrics']) ^ set(expected))}")
    for name, metric in result["metrics"].items():
        check(metric["unit"] == expected[name], f"{where}: unit of {name}")
        check(isinstance(metric["value"], (int, float)) and
              math.isfinite(metric["value"]), f"{where}: value of {name}")


def main() -> int:
    check(len(sys.argv) == 2, "usage: smoke_test.py PATH/TO/bench_e2e")
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_layers(spec, json.loads((HERE / "layers.json").read_text()))
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            check_run(sys.argv[1], workload["name"], trace, expected)
    print("bench_e2e_smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
