#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark program from source (e2ebench/CMakeLists.txt, an
optimised build under $CARGO_TARGET_DIR or .bench_build), runs one workload
for one seed and prints its metrics. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.

    python3 e2ebench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload skewed_rw --seed 1 --seconds 20 --trace 1

Run it from the repository root. --trace 1 runs the traced run and writes
its benchmark-level spans next to the build. --smoke uses tiny sizes (same
code path, same metric names). Exits non-zero without a result line when
the build, a check or the benchmark program fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("paper_sweep", "congested_async", "skewed_rw")
PROGRAM_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(out):
    """Configure (once) and build the program; returns its path or None."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    done = subprocess.run(["cmake", "--build", out, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        return None
    return os.path.join(out, "e2ebench")


def source_id():
    """The commit when run from a git checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                    "--", "src", "e2ebench"],
                                   capture_output=True, text=True).stdout.strip()
            return git.stdout.strip() + ("+dirty" if dirty else "")
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args()

    out = build_dir()
    program = build(out)
    if program is None:
        log("build failed")
        return 1

    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--commit", source_id()]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace == "1":
        spans_dir = os.path.join(out, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"e2ebench exceeded {PROGRAM_TIMEOUT_S} s")
        return 1
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        log(f"e2ebench exited with {done.returncode}")
        return done.returncode

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("e2ebench printed no result line")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            result["correct"] is not True or result["attempted"] < 1:
        log("e2ebench result is malformed or incorrect")
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
