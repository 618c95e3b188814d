#!/usr/bin/env python3
"""End-to-end backup/restore benchmark of a file-backed HiDeStore repository.

Builds e2e_bench (this directory's CMake package, which compiles the
repository's ../src) into .bench_build/ at the repository root, runs one
workload and prints its result as the last line of standard output:

    python3 e2e_bench/run.py --workload kernel-chain --seed 1 --seconds 20 \
        --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (and
writes a Chrome trace to .bench_build/traces/). --scale tiny shrinks every
workload for smoke tests; --corrupt-expected plants a wrong expected byte
to show that the checker catches it. The exit status is 0 only when every
operation succeeded and every restore was byte-exact. README.md in this
directory describes the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("bigfile", "kernel-chain", "kernel-chain-4s")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; leave room for start-up and clean-up.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds e2e_bench; returns its path or None."""
    build_dir = os.path.join(BUILD_ROOT, "e2e")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "e2e_bench", "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return None
    return os.path.join(build_dir, "e2e_bench")


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and set(result) == RESULT_KEYS
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and isinstance(result["metrics"], dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--corrupt-expected", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 1

    work_dir = os.path.join(BUILD_ROOT, f"work-{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir, "--scale", args.scale]
    if args.trace == "1":
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"e2e_bench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = done.stdout.strip().splitlines()
    if not lines or not valid_result(lines[-1]):
        log(f"e2e_bench exited {done.returncode} without a result line")
        return 1
    print("\n".join(lines), flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
