#!/usr/bin/env python3
"""Build gridbench from source and run one benchmark workload.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
Release binary under $CARGO_TARGET_DIR (default .bench_build) in the
repository; later calls rebuild only what changed. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"},
where metrics holds every end_to_end metric of BENCHMARK.json (--trace 0) or
every per_layer metric (--trace 1). Exits non-zero, without a result line,
when the build fails or the result is incomplete; exits 1 with
"correct": false when a correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "e2e")


def build(out):
    """Configure once, then build gridbench; all tool output goes to stderr."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "--target", "gridbench", "-j4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [os.path.join(out, "gridbench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: gridbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"run.py: gridbench printed nothing (exit {proc.returncode})",
              file=sys.stderr)
        return 3
    result = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"run.py: metric {m['name']} missing or not in {m['unit']}",
                  file=sys.stderr)
            return 3
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"] and proc.returncode == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
