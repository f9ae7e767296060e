#!/usr/bin/env python3
"""Builds bench_e2e from this checkout's sources and runs one workload.

    python3 bench/e2e/run.py --workload serve_warm --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/e2e (default .bench_build/e2e) and is
incremental, so only the first run in a checkout compiles the project. Build
output goes to stderr; the benchmark's stdout is passed through, so the last
line of stdout is the result JSON. Sockets, caches and trace files are written
under the build directory (traces: <build>/work/trace/<workload>/).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "e2e"


def build(out: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no project sources under {ROOT}; "
                 "the benchmark builds the program from a full checkout")
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "bench_e2e",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return out / "bench_e2e"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except subprocess.CalledProcessError as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2
    command = [str(binary), "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               # Relative to ROOT: unix socket paths are limited to 107 bytes.
               "--work-dir", os.path.relpath(out / "work", ROOT)]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
