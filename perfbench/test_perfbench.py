#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the program).

Run from the repository root:

    python3 perfbench/test_perfbench.py

The benchmark binary is built on first use (see run.py). Most tests run the workloads
at N=2000 with short episodes, so they check wiring and invariants, not
performance; the root-box guard test runs the full-size failing config.
"""
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OUT = run.ROOT / ".bench_build" / "perfbench-test-out"
SMALL = ["--n", "2000", "--steps", "4", "--seconds", "0"]


def drive(workload, seed=1, trace=0, extra=SMALL):
    """Runs the benchmark binary; returns (stdout lines, parsed JSON result)."""
    cmd = [str(run.BINARY), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--out", str(OUT)] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_metric_names_match_benchmark_json(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    _, res = drive(w, trace=trace)
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)

    def test_traced_and_untraced_fingerprints_match(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                lines, res = drive(w, trace=1)
                line = next(l for l in lines if "fingerprints:" in l)
                prints = re.findall(r"[0-9a-f]{16}", line)
                self.assertEqual(len(prints), 3, line)
                self.assertEqual(len(set(prints)), 1, line)
                self.assertTrue(res["correct"])

    def test_root_box_guard_trips_on_fast_sedimentation(self):
        # The sedimentation example's dt = 2e-3 at N = 20000 carries the blob
        # out of the root box within eight steps.
        _, res = drive("stokes-sediment",
                       extra=["--n", "20000", "--dt", "2e-3", "--steps", "8",
                              "--seconds", "0"])
        self.assertGreater(res["failed"], 0)
        self.assertFalse(res["correct"])

    def test_seed_changes_bodies_but_not_metric_set(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a_lines, a = drive(w, seed=1)
                b_lines, b = drive(w, seed=2)
                body_print = lambda lines: lines[0].split("fingerprint ")[1]
                self.assertNotEqual(body_print(a_lines), body_print(b_lines))
                self.assertEqual(set(a["metrics"]), set(b["metrics"]))

    def test_fails_without_program_sources(self):
        bare = run.ROOT / ".bench_build" / "perfbench-test-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
