#!/usr/bin/env python3
"""Builds and runs the KIMDB served benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload oo1_served --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest --seed 1

The engine is compiled from ../src with perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The generator
self-test runs before every measurement. The driver's stdout is passed
through, so the last line printed is its JSON result; build output goes to
stderr. The exit code is the driver's (non-zero on any oracle or durability
mismatch), 2 when the build or set-up fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"engine sources not found under {root / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "kimdb_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "kimdb_perfbench"


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    binary = build(root, target / "perfbench")

    if run([str(binary), "--selftest", "--seed", str(args.seed)]) != 0:
        sys.exit(1)
    if args.selftest:
        return

    work = target / "perfbench-run" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    code = run([str(binary), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--dir", str(work)])
    if not any(work.iterdir()):
        work.rmdir()
    sys.exit(code)


if __name__ == "__main__":
    main()
