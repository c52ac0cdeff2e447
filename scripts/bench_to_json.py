#!/usr/bin/env python3
"""Convert `go test -bench` output (stdin) to the BENCH_*.json schema.

The schema is one object: environment header fields (goos/goarch/cpu/...)
as emitted by the Go benchmark runner, the benchtime the run used, an
optional peak_rss_kb (the bench process tree's maximum resident set, as
measured by GNU time around the whole run), and a `results` array with
one entry per benchmark — name, iteration count, ns/op, and any extra
ReportMetric pairs under `metrics`.

A benchmark that appears on several lines (`go test -count N`) becomes
one entry: `ns_per_op` and every metric take the median over the lines,
`ns_per_op_min` the fastest line, and `count` the number of lines. A
benchmark seen once keeps the single-line entry, without those keys.

Usage: bench_to_json.py [benchtime] [--peak-rss-kb KB] < bench.out
"""

import json
import re
import statistics
import sys


def collapse(runs: list) -> dict:
    """Fold one benchmark's repeated entries into one."""
    if len(runs) == 1:
        return runs[0]
    entry = {
        "name": runs[0]["name"],
        "iterations": statistics.median_low(r["iterations"] for r in runs),
        "ns_per_op": statistics.median(r["ns_per_op"] for r in runs),
        "ns_per_op_min": min(r["ns_per_op"] for r in runs),
        "count": len(runs),
    }
    keys = []
    for r in runs:
        keys += [k for k in r.get("metrics", {}) if k not in keys]
    if keys:
        entry["metrics"] = {
            k: statistics.median(r["metrics"][k] for r in runs
                                 if k in r.get("metrics", {}))
            for k in keys}
    return entry


def main() -> None:
    argv = sys.argv[1:]
    peak_rss_kb = None
    if "--peak-rss-kb" in argv:
        i = argv.index("--peak-rss-kb")
        peak_rss_kb = int(argv[i + 1])
        del argv[i:i + 2]
    benchtime = argv[0] if argv else ""
    meta = {}
    if peak_rss_kb is not None:
        meta["peak_rss_kb"] = peak_rss_kb
    runs = {}  # name -> entries, in order of first appearance
    for line in sys.stdin:
        line = line.strip()
        m = re.match(r"^(goos|goarch|pkg|cpu):\s*(.+)$", line)
        if m:
            meta[m.group(1)] = m.group(2)
            continue
        if not line.startswith("Benchmark"):
            continue
        fields = line.split()
        if len(fields) < 4 or fields[3] != "ns/op":
            continue
        entry = {
            "name": fields[0],
            "iterations": int(fields[1]),
            "ns_per_op": float(fields[2]),
        }
        metrics = {}
        i = 4
        while i + 1 < len(fields):
            try:
                value = float(fields[i])
            except ValueError:
                break
            metrics[fields[i + 1]] = value
            i += 2
        if metrics:
            entry["metrics"] = metrics
        runs.setdefault(entry["name"], []).append(entry)
    results = [collapse(r) for r in runs.values()]
    json.dump({"benchtime": benchtime, **meta, "results": results},
              sys.stdout, indent=2)
    sys.stdout.write("\n")


main()
