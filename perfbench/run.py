#!/usr/bin/env python3
"""Build the simulator's benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark is the OCaml program in
perfbench/main.ml, built with dune against the repository's lib/.  Its
last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics, is checked and printed again as the last
line here.  Build output and the program's tables go to standard error.
Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at the checkout root; nothing to build")
    try:
        subprocess.run(
            ["dune", "build", "--root", ROOT, "-j", "2", "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, check=True,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")


def check_result(line, trace, spec):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if trace:
        # A layer the workload does not exercise did no work: 0.
        for name in set(wanted) - set(got):
            got[name] = {"value": 0, "unit": wanted[name]}
    if set(got) != set(wanted):
        raise ValueError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(got) ^ set(wanted))}")
    result["metrics"] = {name: got[name] for name in wanted}
    for name, m in got.items():
        if m["unit"] != wanted[name] or not math.isfinite(m["value"]):
            raise ValueError(f"bad metric {name}: {m}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="batch size multiplier (smoke runs use less than 1)")
    args = parser.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    build(env)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale),
           "--digests", os.path.join(HERE, "digests.txt")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = check_result(lines[-1] if lines else "", args.trace == 1, spec)
    except (ValueError, KeyError, TypeError) as e:
        fail(f"malformed result: {e}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
