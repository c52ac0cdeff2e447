#!/usr/bin/env bash
# Benchmark snapshot runner: runs the detection benchmark families five
# times (-count 5) at a fixed iteration count and writes a machine-readable
# JSON snapshot (BENCH_<n>.json at the repo root) with each benchmark's
# median and minimum ns/op over the five runs, so performance regressions
# show up as ordinary review diffs and run-to-run noise is visible. See
# doc/performance.md. The output path is required: the committed snapshots
# are baselines (CI gates against BENCH_32.json), and a run must never
# overwrite one by default.
#
# Usage:
#   scripts/bench.sh out.json                # bench, write the snapshot
#   scripts/bench.sh compare old.json new.json   # diff two snapshots only
#   COMPARE=BENCH_3.json scripts/bench.sh out.json   # bench, then diff vs a snapshot
#   BENCHTIME=10x scripts/bench.sh out.json  # more iterations, steadier numbers
#   BENCH=BenchmarkPairParallelDetect scripts/bench.sh out.json   # one family only
#
# Compare mode prints per-benchmark ns/op and allocs/op deltas and flags
# changes beyond 10% (informational by default; bench_compare.py --strict
# turns regressions into a non-zero exit). Solver-query and decision
# counts are deterministic per row, so `compare --queries-gate old new`
# fails hard when any row issues more queries or makes more decisions
# than the baseline — the CI guard for the triage ladder and the search. `compare --heap-gate any.json new.json` checks the
# new snapshot's BenchmarkChunkedDetect size pair: live heap growing
# superlinearly in trace size fails — the out-of-core guard.
#
# When GNU time is available the whole bench run's peak RSS is recorded
# in the snapshot as peak_rss_kb, so out-of-core regressions show up in
# the review diff even before the heap gate runs.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "compare" ]]; then
  shift
  exec python3 scripts/bench_compare.py "$@"
fi

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/bench.sh out.json | scripts/bench.sh compare old.json new.json" >&2
  exit 2
fi
out="$1"
benchtime="${BENCHTIME:-3x}"
# The default families: BenchmarkDetect (every Table 1 row, sequential),
# BenchmarkPairParallelDetect (one window; its pairworkers=N
# sub-benchmarks set Parallelism N, so N pair workers share the window's
# pairs), BenchmarkJournalDetect,
# BenchmarkTelemetryOverhead, BenchmarkStreamIngest and
# BenchmarkChunkedDetect.
bench="${BENCH:-^(BenchmarkDetect|BenchmarkPairParallelDetect|BenchmarkJournalDetect|BenchmarkTelemetryOverhead|BenchmarkStreamIngest|BenchmarkChunkedDetect)$}"

tmp="$(mktemp)"
trap 'rm -f "$tmp" "$tmp.rss"' EXIT

# Peak RSS of the bench process tree, via getrusage(RUSAGE_CHILDREN)
# around the child — GNU time's "Maximum resident set size" without
# depending on GNU time being installed. The number lands in a side
# file so benchmark stdout stays parseable.
python3 - "$tmp.rss" go test -run '^$' -bench "$bench" -benchtime "$benchtime" -benchmem -count 5 . <<'PY' | tee "$tmp"
import resource, subprocess, sys
rc = subprocess.call(sys.argv[2:])
kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
with open(sys.argv[1], "w") as f:
    f.write(f"Maximum resident set size (kbytes): {kb}\n")
sys.exit(rc)
PY
rss="$(awk -F': ' '/Maximum resident set size/ {print $2}' "$tmp.rss")"
python3 scripts/bench_to_json.py "$benchtime" ${rss:+--peak-rss-kb "$rss"} < "$tmp" > "$out"
echo "wrote $out"

if [[ -n "${COMPARE:-}" ]]; then
  python3 scripts/bench_compare.py "$COMPARE" "$out"
fi
