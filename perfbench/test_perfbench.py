#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself, at tiny scale.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py (into $CARGO_TARGET_DIR, default
.bench_build) and checks, for every workload:
  - every metric BENCHMARK.json declares prints in the JSON result with
    its declared unit, untraced and traced;
  - every end-to-end metric of the benchmark's doc prints by name and
    unit in the human-readable report;
  - the layers' self times plus unattributed_s, which the tracer keeps
    apart from them, equal the traced wall, and none of them is
    negative;
  - an output check fails, and the run reports it, when it is fed a
    perturbed result.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["paper-grid", "paper-repro", "trace-stream"]

# Report lines each workload prints (name, unit), beyond BENCHMARK.json.
REPORTED = {
    "paper-grid": [("points_per_s", "1/s"), ("tpi_opt_err_pct", "%")],
    "paper-repro": [("tpi_opt_err_pct", "%")],
    "trace-stream": [("records_per_s", "1/s")],
}
COMMON = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
          ("peak_rss_mb", "MB"), ("failed_frac", "ratio")]

# One perturbation per output check family, and the workload it targets.
PERTURB = [("paper-grid", "grid-point"), ("paper-repro", "repro-fig12"),
           ("trace-stream", "stream-roundtrip"),
           ("trace-stream", "stream-point")]


def binary() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench" / "perfbench"


def run(workload, trace, *extra):
    out_dir = binary().parent / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [str(binary()), "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace), "--tiny",
         "--out-dir", str(out_dir)] + list(extra),
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n"
                             f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # A throwaway run builds the binary.
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             "trace-stream", "--seed", "0", "--seconds", "0.1",
             "--trace", "0", "--tiny"],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        with open(ROOT / "BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def assertMetrics(self, result, declared):
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_metric_prints_with_its_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                lines, result = run(w, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertMetrics(result, self.spec["end_to_end"])
                for name, unit in COMMON + REPORTED[w]:
                    self.assertTrue(
                        any(l.startswith(f"metric {name} = ") and
                            l.split()[4] == unit for l in lines),
                        f"{w}: no '{name}' line in {unit}")

    def test_traced_run_accounts_for_the_wall(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, result = run(w, 1)
                self.assertTrue(result["correct"])
                self.assertMetrics(result, self.spec["per_layer"])
                m = {k: v["value"] for k, v in result["metrics"].items()}
                layers = sum(v for k, v in m.items()
                             if k.startswith("layer.") and
                             k.endswith(".self_s"))
                self.assertAlmostEqual(
                    layers + m["unattributed_s"], m["traced_wall_s"],
                    delta=1e-6 * m["traced_wall_s"])
                self.assertGreater(m["traced_wall_s"], 0.0)
                # A wrong worker weight shows as a negative self time.
                for k, v in m.items():
                    if k == "unattributed_s" or k.startswith("layer."):
                        self.assertGreaterEqual(
                            v, -1e-6 * m["traced_wall_s"], k)

    def test_perturbed_result_fails_its_check(self):
        for w, check in PERTURB:
            with self.subTest(check=check):
                lines, result = run(w, 0, "--perturb", check)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertTrue(any(l.startswith("check FAIL")
                                    for l in lines))


if __name__ == "__main__":
    unittest.main()
