#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload plummer-near --seed 1 --seconds 15 --trace 0

The first run configures and builds the afmm library plus the binary into
.bench_build/perfbench (later runs rebuild incrementally). The binary's
output is passed through; its last line is the JSON result. A failed build
exits non-zero without printing a result.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
BINARY = BUILD / "afmm_perfbench"
RUN_TIMEOUT_S = 170
# One malloc arena: with glibc's default of one arena per thread, which
# arenas the OpenMP workers touch varies run to run and moves peak RSS by
# about 10% on the far-field workload.
RUN_ENV = dict(os.environ, MALLOC_ARENA_MAX="1")


def build():
    """Configure (once) and build the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no program sources next to the benchmark "
                 f"({ROOT / 'src'} is missing)")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "afmm_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.exit(f"perfbench: build failed (log: {log_path})")
    return BINARY


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT)] + extra
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=RUN_ENV,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
