#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and
traced, through perfbench/run.py, and asserts that each run reports
every metric BENCHMARK.json names, each finite, and that no cell failed
its correctness check.  Exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--scale", "0.05"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=600)
            label = f"{workload} trace={trace}"
            assert proc.returncode == 0, f"{label}: exit {proc.returncode}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, \
                f"{label}: {result['failed']} of {result['attempted']} failed"
            for metric in spec[group]:
                m = result["metrics"][metric["name"]]
                assert m["unit"] == metric["unit"], f"{label}: {metric['name']}"
                assert math.isfinite(m["value"]), f"{label}: {metric['name']}"
            print(f"ok {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} cells", flush=True)


if __name__ == "__main__":
    main()
