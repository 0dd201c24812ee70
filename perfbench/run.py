#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds perfbench/
(which compiles the cafe libraries from src/) with CMake into
$CARGO_TARGET_DIR/perfbench, by default .bench_build/perfbench, runs one
workload there and prints the report. The last line of standard output
is the result JSON; its metric names and units are checked against
BENCHMARK.json. On a failed build or run it exits non-zero without a
result. README.md in this directory describes the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_default", "serve_chained", "batch_hitcount")
# Every run must end within 180 s; leave room for the build step.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    return os.path.join(os.path.abspath(target), "perfbench")


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The build step re-runs CMake itself when a CMakeLists.txt changed.
    configured = any(os.path.exists(os.path.join(out_dir, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def expected_metrics(trace):
    """{name: unit} the result must carry, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, trace):
    try:
        doc = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if sorted(doc) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys are {sorted(doc)}"
    if not isinstance(doc["correct"], bool):
        return "correct is not a boolean"
    if not (isinstance(doc["attempted"], int) and doc["attempted"] >= 1
            and isinstance(doc["failed"], int) and doc["failed"] >= 0):
        return "attempted/failed are not counts"
    got = {name: m.get("unit") for name, m in doc["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        return f"metrics {got} differ from BENCHMARK.json {want}"
    for name, m in doc["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            return f"{name} has no numeric value"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    # Smaller inputs for selftest.py.
    parser.add_argument("--megabases", type=float)
    parser.add_argument("--queries", type=int)
    parser.add_argument("--setups", type=int)
    parser.add_argument("--perturb-reference", action="store_true")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    work_dir = os.path.join(out_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--work-dir", work_dir]
    for flag in ("megabases", "queries", "setups"):
        if getattr(args, flag) is not None:
            cmd += [f"--{flag}", str(getattr(args, flag))]
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        print(f"run.py: perfbench exited with {proc.returncode}", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    problem = check_result(lines[-1], args.trace == "1")
    print("\n".join(lines[:-1]))
    if problem:
        print(f"run.py: bad result: {problem}", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
