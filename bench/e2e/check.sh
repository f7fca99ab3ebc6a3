#!/usr/bin/env bash
# Self-check of the end-to-end benchmark: every workload at 1/8 scale, once
# untraced and once traced, each in its own process.
#
#   bench/e2e/check.sh            # from the repository root
#
# gridbench itself fails a run (exit 1) unless every job is satisfiable and
# terminal, no-churn workloads execute each job exactly once
# (sum of jobs_executed == completed == jobs), repeated runs agree exactly,
# and, traced, each layer's proxy call count equals the messages the
# network delivered in that layer's tag range. This script adds the
# cross-process check: the simulated metrics of the untraced and the traced
# process must be byte-identical. Exits non-zero on any failure.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${BUILD:-build-e2e}"
workloads="$(python3 -c '
import json, sys
print(*(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$here/../../BENCHMARK.json")"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$build" -j4 > /dev/null

out="$build/check"
mkdir -p "$out"
status=0
for w in $workloads; do
  for trace in 0 1; do
    if ! "$build/gridbench" --workload="$w" --seed=1 --smoke=1 --trace="$trace" \
        > "$out/$w.trace$trace.json"; then
      echo "FAIL $w trace=$trace: gridbench reported a failed check" >&2
      status=1
    fi
  done
  # Host measurements differ between processes; everything else is a pure
  # function of (seed, config) and must match to the last digit.
  if ! python3 - "$out/$w.trace0.json" "$out/$w.trace1.json" <<'EOF'
import json, sys
host = {"setup_s", "peak_rss_mb", "sim.run_s", "sim.events_per_s", "sim.drain_s",
        "sim.cpu_util", "net.pool_reuse_frac", "grid.build_s", "workload.gen_s"}
a, b = (json.loads(open(p).read().splitlines()[-1])["metrics"] for p in sys.argv[1:])
diff = [k for k in a if k in b and k not in host and not k.startswith("mem.")
        and a[k] != b[k]]
for k in diff:
    print(f"  {k}: untraced {a[k]['value']!r} traced {b[k]['value']!r}", file=sys.stderr)
sys.exit(1 if diff else 0)
EOF
  then
    echo "FAIL $w: simulated metrics differ between untraced and traced runs" >&2
    status=1
  else
    echo "ok   $w"
  fi
done
exit "$status"
