#!/usr/bin/env python3
"""Builds the engine benchmark from source and runs one workload.

    python3 enginebench/run.py --workload analytic-hot --seed 1 \
        --seconds 15 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Scratch data (durable store, spill
files) lives in a per-run directory under the build directory and is removed
when the run ends. Exits non-zero without a result if the engine sources are
not next to this directory or the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    bin_dir = os.path.join(build_dir, "enginebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", bin_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bin_dir, "-j", jobs, "--target", "engine_bench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("engine_bench build failed: " + " ".join(cmd))
    return os.path.join(bin_dir, "engine_bench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "database.h")):
        sys.exit("engine sources not found under " + ROOT)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)

    scratch = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    spans = os.path.join(build_dir, "spans",
                         "%s-seed%d.jsonl" % (args.workload, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--spans", spans]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = 124
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
