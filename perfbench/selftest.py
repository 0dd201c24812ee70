#!/usr/bin/env python3
"""Fast self-test of the benchmark: tiny inputs, short phases.

    python3 perfbench/selftest.py

Run it from the repository root. For every workload it checks that

  - the untraced and the traced run print every metric BENCHMARK.json
    names, with its unit, in the report and in the result line;
  - the traced run's stages plus its residual add up to
    search.engine_ms, and its Chrome trace JSON passes
    tools/tracecheck.py with every span name the benchmark records;
  - the answer check trips when the reference is perturbed.

Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--megabases", "0.3", "--queries", "8", "--setups", "1", "--seconds", "2"]
STAGES = ["index.decode_ms", "search.coarse_ms", "search.chain_ms", "seqstore.fetch_ms",
          "align.fine_ms", "search.post_ms", "search.residual_ms"]
SPANS = ["search", "coarse.rank", "index.postings", "chain.filter", "fine.align",
         "post.process"]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--trace", str(trace)] + TINY + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-2])["annotations"], json.loads(lines[-1])


def check_metrics(spec_group, lines, result):
    want = {m["name"]: m["unit"] for m in spec_group}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"result metrics {got} != {want}"
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines), f"report lacks '{name} ... {unit}'"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        try:
            lines, notes, result = run(workload, 0)
            check_metrics(spec["end_to_end"], lines, result)
            assert result["correct"] and result["failed"] == 0, result
            assert notes["fail_frac"] == 0, notes

            lines, notes, result = run(workload, 1)
            check_metrics(spec["per_layer"], lines, result)
            assert result["correct"] and notes["replay_mismatches"] == 0, notes
            m = {name: v["value"] for name, v in result["metrics"].items()}
            total = sum(m[s] for s in STAGES)
            assert abs(total - m["search.engine_ms"]) <= 1e-6 * m["search.engine_ms"], \
                f"stages add up to {total}, engine {m['search.engine_ms']}"
            required = SPANS + (["request"] if workload.startswith("serve") else [])
            check = [sys.executable, os.path.join(ROOT, "tools", "tracecheck.py")]
            for name in required:
                check += ["--require", name]
            subprocess.run(check + [notes["trace_file"]], check=True)

            _, _, result = run(workload, 0, "--perturb-reference")
            assert not result["correct"] and result["failed"] > 0, \
                f"perturbed reference went unnoticed: {result}"
            print(f"selftest {workload}: ok")
        except (AssertionError, subprocess.CalledProcessError, KeyError,
                ValueError) as e:
            failures += 1
            print(f"selftest {workload}: FAILED: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
