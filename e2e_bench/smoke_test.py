#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at tiny scale.

For every workload run.py knows (those BENCHMARK.json gates and
kernel-chain-4s), runs it untraced and traced with --scale tiny and checks
that each metric BENCHMARK.json names is emitted with its unit and that the
run is correct. Then plants a wrong expected byte
(--corrupt-expected) and checks that the run reports it as failed and exits
non-zero. Run from anywhere:

    python3 e2e_bench/smoke_test.py
"""
import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    if corrupt:
        cmd.append("--corrupt-expected")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    context = json.loads(lines[0])["context"] if lines else None
    return done.returncode, result, context


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, _ = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{where}: exit {code}, result {result}")
                continue
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: attempted/failed {result}")
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{where}: missing {m['name']}")
                elif got.get("unit") != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit "
                                    f"{got.get('unit')} != {m['unit']}")
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{where}: unlisted metrics {sorted(extra)}")
        code, result, context = run(workload, 0, corrupt=True)
        if (code == 0 or result is None or result["correct"]
                or result["failed"] < 1 or context["failed_ops"] <= 0):
            problems.append(f"{workload}: a wrong expected byte was not "
                            f"reported (exit {code}, result {result})")
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print("FAIL:", p)
    print("smoke test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
