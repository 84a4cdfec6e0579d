#!/usr/bin/env python3
"""The benchmark's own test: every workload in both modes at smoke size.

Every workload run.py accepts is run, also those BENCHMARK.json leaves out.

Checks that each run exits 0, that its last line is the result object, and
that it reports exactly the metrics BENCHMARK.json names, with their units.
Run from the repository root: python3 e2ebench/test_smoke.py
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
from run import WORKLOADS  # noqa: E402


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in WORKLOADS:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", trace, "--smoke"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            problem = None
            if done.returncode != 0:
                problem = f"exit {done.returncode}: {done.stderr[-500:]}"
            else:
                result = json.loads(done.stdout.strip().split("\n")[-1])
                want = {m["name"]: m["unit"] for m in spec[group]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if result["correct"] is not True or result["failed"] != 0:
                    problem = "run reported incorrect or failed operations"
                elif got != want:
                    problem = f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
            status = "ok" if problem is None else f"FAIL {problem}"
            print(f"{workload} --trace {trace}: {status}", flush=True)
            failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
