#!/usr/bin/env bash
# Append gridbench runs, one JSON line each, for bench_diff or a baseline.
#
#   bench/e2e/record.sh OUT.jsonl SEED...   # from the repository root
#
# Runs every workload of BENCHMARK.json for each seed, each measuring
# BENCHMARK.json's run_seconds. Environment: BUILD (default build-e2e, built
# by check.sh or cmake), TRACE (default 0). Each line is gridbench's result
# with "workload", "seed" and "trace" added in front.
set -euo pipefail

if [ "$#" -lt 2 ]; then
  echo "usage: $0 OUT.jsonl SEED..." >&2
  exit 2
fi
out="$1"
shift
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${BUILD:-build-e2e}"
trace="${TRACE:-0}"
read -r seconds workloads < <(python3 -c '
import json, sys
b = json.load(open(sys.argv[1]))
print(b["run_seconds"], *(w["name"] for w in b["workloads"]))' "$here/../../BENCHMARK.json")

for seed in "$@"; do
  for w in $workloads; do
    line="$("$build/gridbench" --workload="$w" --seed="$seed" \
      --seconds="$seconds" --trace="$trace" | tail -n 1)"
    echo "{\"workload\": \"$w\", \"seed\": $seed, \"trace\": $trace, ${line#\{}" >> "$out"
  done
done
