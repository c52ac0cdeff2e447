#!/usr/bin/env python3
"""Compare two benchmark snapshots.

Usage: bench_compare.py old new [--threshold PCT] [--strict]

Accepts two input formats, detected per file:

  * BENCH_*.json snapshots (see bench_to_json.py for the schema);
  * cmd/table1 -json output (newline-delimited row records): each row
    becomes one entry named after the program, with RV elapsed time as
    its ns/op and the row's race counts plus triage/journal telemetry
    (tier confirmations, dispatches, journal records) as extra metrics.

Prints one line per benchmark present in both snapshots with the ns/op
delta, the allocs/op delta when both runs carried memory metrics
(-benchmem), and a delta for every other numeric metric the two entries
share (for table1 input: triage_confirmed, triage_dispatched, ...).
Deltas beyond the threshold (default 10%) are flagged: slower/more as
REGRESSION, less as improvement. With --strict the exit status is 1 when
any regression was flagged, so CI can choose to gate on it; the default
is informational (exit 0) because single-shot bench runs on shared
runners are noisy.

The `queries` metric (solver queries issued per /RV row) is different:
it is deterministic per row, so unlike timing it CAN be gated on a
shared runner. Any increase — not just beyond the threshold — is
flagged QUERIES-REGRESSION, and with --queries-gate the exit status is
1 when any row issued more queries than the baseline, independent of
--strict. This is the triage-ladder regression gate: a query-count
increase means candidate pairs that a sound tier used to confirm are
reaching the solver again.

The `clauses` metric (problem clauses of the window encodings per /RV
row) is deterministic too, but it is a size, not a gate: fewer clauses
means the replicas encode less, and its delta is printed for every row
(even below the threshold) without ever counting as a regression.

The solver-work metrics `decisions` and `theory_propagations` are
deterministic per row as well. Both deltas are printed for every row,
like `clauses`. Any rise in `decisions` is flagged
DECISIONS-REGRESSION and, under --queries-gate, fails the run like a
query-count rise: the search is deciding more than the baseline needed.
`theory_propagations` stays informational.

The `<phase>_share` metrics (each phase's percentage of an instrumented
/RV run, `other` included) are informational too: their changes are
printed for every row, in percentage points and largest first, so a
timing regression points at the layer that grew. They never count as
regressions.

--heap-gate checks the out-of-core invariant, and unlike the other
gates it looks only at the NEW snapshot: benchmarks that report both
trace_events and live_heap_mb (the BenchmarkChunkedDetect size pair)
are grouped by family and sorted by trace size, and peak live heap must
grow no faster than the square root of the trace growth (above an
8 MiB noise floor — sub-floor peaks are GC timing, not state). A chunked
10× size step is allowed ~3.2× the heap; a reader path that quietly
re-materialises the trace shows ~10× and fails.
"""

import argparse
import json
import math
import re
import sys


def load_table1(text):
    """Parse cmd/table1 -json rows into the snapshot entry shape."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        metrics = {"rv_races": row["rv"]["races"]}
        for block, keys in (
            ("triage", ("confirmed", "syncp_confirmed", "dispatched")),
            ("journal", ("records_written", "windows_replayed")),
        ):
            for key, val in (row.get(block) or {}).items():
                if key in keys and isinstance(val, (int, float)):
                    metrics[f"{block}_{key}"] = val
        out[row["program"]] = {
            "name": row["program"],
            "ns_per_op": float(row["rv"]["elapsed_ns"]),
            "metrics": metrics,
        }
    return out


def load(path):
    with open(path) as f:
        text = f.read()
    try:
        snap = json.loads(text)
    except json.JSONDecodeError:
        return load_table1(text)  # NDJSON: one record per line
    if isinstance(snap, dict) and "program" in snap:
        return load_table1(text)  # a single table1 row
    if not isinstance(snap, dict) or "results" not in snap:
        raise SystemExit(f"bench_compare: {path}: unrecognised snapshot shape")
    out = {}
    for r in snap.get("results", []):
        # go test appends "-<GOMAXPROCS>" to a benchmark's name when it
        # is above 1; drop it so snapshots from different machines match.
        out[re.sub(r"-\d+$", "", r["name"])] = r
    return out


def metric(entry, key):
    return entry.get("metrics", {}).get(key)


def count(v):
    """Render a counter exactly (%g would round 6085657 to 6.08566e+06)."""
    return f"{v:.0f}" if v == int(v) else f"{v:g}"


HEAP_FLOOR_MB = 8.0


def heap_gate(new):
    """Check live-heap growth across benchmark size pairs in one snapshot.

    Returns the number of violations; prints one line per size step.
    """
    families = {}
    for name, entry in new.items():
        m = entry.get("metrics", {})
        if "trace_events" in m and "live_heap_mb" in m:
            families.setdefault(name.split("/")[0], []).append(entry)
    if not families:
        print("heap-gate: no benchmarks report trace_events/live_heap_mb",
              file=sys.stderr)
        return 1
    bad = 0
    for family, entries in sorted(families.items()):
        entries.sort(key=lambda e: e["metrics"]["trace_events"])
        for small, big in zip(entries, entries[1:]):
            ratio = (big["metrics"]["trace_events"]
                     / small["metrics"]["trace_events"])
            limit = max(small["metrics"]["live_heap_mb"],
                        HEAP_FLOOR_MB) * math.sqrt(ratio)
            heap = big["metrics"]["live_heap_mb"]
            ok = heap <= limit
            print(f"heap-gate: {family}: {small['metrics']['trace_events']:g}"
                  f"→{big['metrics']['trace_events']:g} events, live heap "
                  f"{small['metrics']['live_heap_mb']:.1f}→{heap:.1f} MiB "
                  f"(limit {limit:.1f}) {'ok' if ok else 'FAIL'}")
            if not ok:
                bad += 1
    return bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="flag deltas beyond this percentage (default 10)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 when any regression is flagged")
    ap.add_argument("--queries-gate", action="store_true",
                    help="exit 1 when any benchmark issued more solver "
                         "queries, or made more solver decisions, than "
                         "the baseline (deterministic, so safe to gate "
                         "even on noisy runners)")
    ap.add_argument("--heap-gate", action="store_true",
                    help="exit 1 when the new snapshot's live heap grows "
                         "superlinearly across a benchmark size pair "
                         "(out-of-core guard; only the new snapshot is "
                         "consulted)")
    args = ap.parse_args()

    old, new = load(args.old), load(args.new)
    names = [n for n in new if n in old]
    if not names:
        print("bench_compare: no common benchmarks between "
              f"{args.old} and {args.new}", file=sys.stderr)
        return 2

    width = max(len(n) for n in names)
    regressions = 0
    work_regressions = 0

    def describe(delta_pct):
        nonlocal regressions
        if delta_pct > args.threshold:
            regressions += 1
            return "REGRESSION"
        if delta_pct < -args.threshold:
            return "improved"
        return ""

    print(f"{'benchmark':<{width}}  {'ns/op old':>12}  {'ns/op new':>12}  "
          f"{'delta':>8}  {'allocs':>8}  flag")
    for n in names:
        o, e = old[n], new[n]
        ns_delta = 100.0 * (e["ns_per_op"] - o["ns_per_op"]) / o["ns_per_op"]
        flags = [describe(ns_delta)]
        alloc_col = "-"
        extras = []
        common = set(o.get("metrics", {})) & set(e.get("metrics", {}))
        shares = []
        for key in sorted(common):
            ov, nv = metric(o, key), metric(e, key)
            if not isinstance(ov, (int, float)) or not isinstance(nv, (int, float)):
                continue
            if key.endswith("_share"):
                # Phase shares of the run: informational, in points.
                if round(nv - ov, 1) != 0:
                    shares.append((nv - ov, key[:-len("_share")]))
                continue
            if key == "queries" and nv > ov:
                # Query counts are deterministic: any increase is a triage
                # regression regardless of the noise threshold.
                work_regressions += 1
                extras.append(f"queries {count(ov)}→{count(nv)}")
                flags.append("QUERIES-REGRESSION")
                continue
            if key == "decisions" and nv > ov:
                # Deterministic solver work: any rise is gated.
                work_regressions += 1
                extras.append(f"decisions {count(ov)}→{count(nv)}")
                flags.append("DECISIONS-REGRESSION")
                continue
            if key in ("clauses", "decisions", "theory_propagations"):
                # Encoding size and solver work: printed on every change,
                # never a timing regression.
                if ov != nv:
                    extras.append(f"{key} {count(ov)}→{count(nv)}")
                continue
            if ov == 0:
                if nv != 0:
                    extras.append(f"{key} 0→{nv:g}")
                    flags.append("REGRESSION" if nv > 0 else "")
                    regressions += 1
                continue
            delta = 100.0 * (nv - ov) / ov
            flags.append(describe(delta))
            if key == "allocs/op":
                alloc_col = f"{delta:+7.1f}%"
            elif delta != 0.0:
                extras.append(f"{key} {delta:+.1f}%")
        if shares:
            shares.sort(key=lambda s: -abs(s[0]))
            extras.append("share " + " ".join(f"{k} {d:+.1f}pp" for d, k in shares))
        flag = " ".join(sorted({f for f in flags if f}))
        if extras:
            flag = (flag + "  " if flag else "") + "[" + ", ".join(extras) + "]"
        print(f"{n:<{width}}  {o['ns_per_op']:>12.0f}  {e['ns_per_op']:>12.0f}  "
              f"{ns_delta:+7.1f}%  {alloc_col:>8}  {flag}")

    dropped = [n for n in old if n not in new]
    added = [n for n in new if n not in old]
    if dropped:
        print(f"only in {args.old}: {', '.join(sorted(dropped))}")
    if added:
        print(f"only in {args.new}: {', '.join(sorted(added))}")
    if work_regressions:
        print(f"{work_regressions} solver-work regression(s) — more "
              "queries (pairs a sound triage tier used to confirm are "
              "reaching the solver) or more decisions than the baseline")
    if regressions:
        print(f"{regressions} regression(s) beyond {args.threshold:.0f}%")
    heap_violations = heap_gate(new) if args.heap_gate else 0
    if heap_violations:
        print(f"{heap_violations} live-heap growth violation(s) — "
              "the out-of-core reader path is holding trace-sized state")
    if args.heap_gate and heap_violations:
        return 1
    if args.queries_gate and work_regressions:
        return 1
    if args.strict and regressions:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
