#!/usr/bin/env python3
"""Black-box e2e check of the live introspection surface.

Usage: introspect_e2e.py <rvpredict-binary> <trace.rvpt>

Launches `rvpredict -json -witness -http=127.0.0.1:0 -trace-out=...` on
the fixture trace, reads the bound address from the stderr banner, and
polls /metrics until the run ends. Passes when:

  * every scrape parses as Prometheus text format (the format a real
    scraper would reject on);
  * at least one scrape satisfies the candidate-funnel identity
    (enumerated = quick_check + dedup + mhb + triage tiers + dispatched)
    with a non-zero candidate count — a scrape landing while a window
    publishes its funnel counters may see the identity off by that
    window's share, so the identity is required of some scrape, not
    all;
  * the final JSON report carries a provenance tier on every race;
  * the -trace-out file is valid Chrome trace-event JSON (complete or
    metadata events only, non-negative timestamps).

Exit status 0 on success, 1 with a diagnostic on any failure.
"""

import http.client
import json
import re
import subprocess
import sys
import tempfile
import time
import urllib.request

FUNNEL_PARTS = [
    "rvpredict_quick_check_filtered_total",
    "rvpredict_signature_dedup_total",
    "rvpredict_mhb_filtered_total",
    "rvpredict_triage_confirmed_total",
    "rvpredict_triage_syncp_confirmed_total",
    "rvpredict_triage_dispatched_total",
]

SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE.+-]+$")


def parse_prom(text):
    """Validate Prometheus text format; return {bare_name: value}."""
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if not SAMPLE_RE.match(line):
            raise ValueError(f"bad exposition line: {line!r}")
        name_part, value = line.rsplit(" ", 1)
        bare = name_part.split("{", 1)[0]
        values[bare] = values.get(bare, 0.0) + float(value)
    return values


def funnel_holds(values):
    enumerated = values.get("rvpredict_candidates_enumerated_total", 0.0)
    if enumerated == 0:
        return False
    return enumerated == sum(values.get(p, 0.0) for p in FUNNEL_PARTS)


def check_trace_events(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    if not events:
        raise SystemExit("trace-out: no events recorded")
    names = set()
    for ev in events:
        ph = ev.get("ph")
        if ph == "X":
            if ev["ts"] < 0 or ev["dur"] < 0:
                raise SystemExit(f"trace-out: negative ts/dur in {ev}")
            names.add(ev["name"])
        elif ph != "M":
            raise SystemExit(f"trace-out: unexpected event phase {ph!r}")
    for want in ("run", "window"):
        if want not in names:
            raise SystemExit(f"trace-out: no {want!r} span among {sorted(names)[:10]}")
    print(f"introspect_e2e: trace-out OK ({len(events)} events)")


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    binary, fixture = sys.argv[1], sys.argv[2]
    trace_out = tempfile.mktemp(suffix=".json", prefix="spans-")

    proc = subprocess.Popen(
        [binary, "-json", "-witness", "-window", "400",
         "-http", "127.0.0.1:0", "-trace-out", trace_out, fixture],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    # The banner is the first stderr line: "rvpredict: introspection on http://ADDR/"
    banner = proc.stderr.readline()
    m = re.search(r"introspection on http://([^/\s]+)/", banner)
    if not m:
        proc.kill()
        raise SystemExit(f"no introspection banner on stderr: {banner!r}")
    addr = m.group(1)

    scrapes = 0
    consistent = 0
    while proc.poll() is None:
        try:
            with urllib.request.urlopen(f"http://{addr}/metrics", timeout=2) as resp:
                body = resp.read().decode()
        except (OSError, http.client.HTTPException):
            # The server closed, possibly mid-response (IncompleteRead):
            # the run ended.
            break
        values = parse_prom(body)
        scrapes += 1
        if funnel_holds(values):
            consistent += 1
        time.sleep(0.02)

    stdout, stderr = proc.communicate(timeout=60)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"rvpredict exited {proc.returncode}: {stderr}")
    if scrapes == 0:
        raise SystemExit("no live /metrics scrape completed: run ended too fast "
                         "— use a larger fixture")
    if consistent == 0:
        raise SystemExit(f"funnel identity held on none of {scrapes} scrapes")
    print(f"introspect_e2e: {scrapes} live scrapes, {consistent} satisfied the funnel identity")

    report = json.loads(stdout)
    races = report.get("races") or []
    if not races:
        raise SystemExit("fixture produced no races")
    for r in races:
        if not r.get("provenance", {}).get("tier"):
            raise SystemExit(f"race without provenance tier: {r}")
    print(f"introspect_e2e: {len(races)} races, all with provenance")

    check_trace_events(trace_out)


if __name__ == "__main__":
    main()
