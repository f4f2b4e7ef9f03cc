#!/usr/bin/env python3
"""Build and run the pipecache end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 30 --trace 0

Configures perfbench/ as a Release CMake build under $CARGO_TARGET_DIR
(default .bench_build), builds it, and runs the benchmark binary with
the given arguments. The binary's standard output is passed through;
its last line is the JSON result. Build output goes to standard error.
Any extra arguments (--tiny, --perturb, --out-dir) go to the binary.

`--workload all` runs every workload, untraced and then traced (it
ignores --trace), and fails unless every run succeeds with correct
outputs.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ["paper-grid", "paper-repro", "trace-stream"]


def build(build_dir: Path) -> Path:
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args, extra = parser.parse_known_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    out_dir = build_dir / "out"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    out_dir.mkdir(parents=True, exist_ok=True)

    def run(workload, trace, capture):
        cmd = [str(binary), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", trace, "--out-dir", str(out_dir)] + extra
        try:
            proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                                  stdout=subprocess.PIPE if capture else None)
        except subprocess.TimeoutExpired:
            print("perfbench: run timed out", file=sys.stderr)
            return 1, None
        return proc.returncode, proc.stdout

    if args.workload != "all":
        return run(args.workload, args.trace, False)[0]

    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, out = run(workload, trace, True)
            print(f"== {workload} --trace {trace}: exit {code}")
            print(out or "", end="")
            last = (out or "").strip().splitlines()[-1:] or ["{}"]
            ok = ok and code == 0 and json.loads(last[0]).get("correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
