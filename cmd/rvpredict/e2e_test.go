package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/rvpredict"
)

// TestIntrospectionE2E drives the whole CLI with -http and -trace-out on
// a fixture trace: the introspection banner must name the bound address,
// the JSON report must carry provenance on every race, and the -trace-out
// file must be valid Chrome trace-event JSON covering the run, window and
// solve spans.
func TestIntrospectionE2E(t *testing.T) {
	tracePath := writeTrace(t, crashFixture())
	traceOut := filepath.Join(t.TempDir(), "spans.json")
	var stdout, stderr strings.Builder
	code := run([]string{"-json", "-window", "8", "-witness",
		"-http", "127.0.0.1:0", "-trace-out", traceOut, tracePath},
		&stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	banner := regexp.MustCompile(`introspection on http://[^\s]+`)
	if !banner.MatchString(stderr.String()) {
		t.Errorf("stderr lacks the introspection banner: %q", stderr.String())
	}

	var rep rvpredict.Report
	if err := json.Unmarshal([]byte(stdout.String()), &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if len(rep.Races) == 0 {
		t.Fatal("fixture produced no races")
	}
	for _, r := range rep.Races {
		if r.Provenance.Tier == "" {
			t.Errorf("race %d,%d has no provenance tier", r.First, r.Second)
		}
		if r.Provenance.WitnessLen != len(r.Witness) {
			t.Errorf("race %d,%d provenance witness_len = %d, want %d",
				r.First, r.Second, r.Provenance.WitnessLen, len(r.Witness))
		}
	}
	if rep.Build.Version == "" || rep.Build.Revision == "" {
		t.Errorf("report build info incomplete: %+v", rep.Build)
	}

	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatalf("-trace-out file missing: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-trace-out is not valid trace-event JSON: %v", err)
	}
	var sawRun, sawWindow, sawGroup bool
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			if ev.TS < 0 || ev.Dur < 0 {
				t.Errorf("span %q has negative ts/dur", ev.Name)
			}
		case "M":
			if ev.Name != "thread_name" {
				t.Errorf("metadata event %q, want thread_name", ev.Name)
			}
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
		switch {
		case ev.Name == "run":
			sawRun = true
		case ev.Name == "window":
			sawWindow = true
		case strings.HasPrefix(ev.Name, "group "):
			sawGroup = true
		}
	}
	if !sawRun || !sawWindow || !sawGroup {
		t.Errorf("timeline lacks expected spans (run=%t window=%t group=%t) among %d events",
			sawRun, sawWindow, sawGroup, len(doc.TraceEvents))
	}
}

// scrapeAtLastWindow scrapes /metrics and /races when the final window's
// span ends — still strictly inside the run, with every earlier window
// merged — so the live-scrape assertions are deterministic rather than
// racing the run's end.
type scrapeAtLastWindow struct {
	windows int
	seen    int
	addr    string
	metrics string
	races   string
	err     error
}

func (s *scrapeAtLastWindow) spanEnded(ev rvpredict.SpanEvent) {
	if ev.Kind != rvpredict.SpanWindow {
		return
	}
	s.seen++
	if s.seen != s.windows {
		return
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + s.addr + path)
		if err != nil {
			s.err = err
			return ""
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			s.err = err
			return ""
		}
		if resp.StatusCode != http.StatusOK {
			s.err = fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		return string(body)
	}
	s.metrics = get("/metrics")
	s.races = get("/races")
}

// TestMetricsFunnelInvariantLive scrapes /metrics while the run is still
// inside Run (at the last window's completion hook) and validates the
// candidate-funnel identity the dashboard depends on:
//
//	enumerated = quick_check_filtered + signature_dedup + mhb_filtered
//	           + triage_confirmed + triage_syncp_confirmed + dispatched
func TestMetricsFunnelInvariantLive(t *testing.T) {
	tr := crashFixture()
	sc := &scrapeAtLastWindow{windows: 4}
	opt := rvpredict.Options{
		WindowSize: 8,
		Witness:    true,
		DebugAddr:  "127.0.0.1:0",
		OnDebugAddr: func(addr string) {
			sc.addr = addr
		},
		Spans: rvpredict.NewSpanRecorder(-1, sc.spanEnded),
	}
	rep, err := rvpredict.Run(nil, tr, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sc.err != nil {
		t.Fatalf("live scrape failed: %v", sc.err)
	}
	if sc.metrics == "" {
		t.Fatal("no /metrics scrape happened")
	}

	v := func(name string) float64 {
		re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9eE.+-]+)$`)
		m := re.FindStringSubmatch(sc.metrics)
		if m == nil {
			t.Fatalf("metric %s missing from scrape:\n%s", name, sc.metrics)
		}
		f, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("metric %s: %v", name, err)
		}
		return f
	}
	enumerated := v("rvpredict_candidates_enumerated_total")
	sum := v("rvpredict_quick_check_filtered_total") +
		v("rvpredict_signature_dedup_total") +
		v("rvpredict_mhb_filtered_total") +
		v("rvpredict_triage_confirmed_total") +
		v("rvpredict_triage_syncp_confirmed_total") +
		v("rvpredict_triage_dispatched_total")
	if enumerated == 0 {
		t.Error("no candidates enumerated by the last window")
	}
	if enumerated != sum {
		t.Errorf("funnel identity violated: enumerated %v != classified %v\n%s",
			enumerated, sum, sc.metrics)
	}
	if got := v("rvpredict_build_info{version=\"" + rep.Build.Version + "\",revision=\"" + rep.Build.Revision + "\"}"); got != 1 {
		t.Errorf("build_info gauge = %v, want 1", got)
	}

	// The /races feed runs after each window's span ends, so at the last
	// window's span the first three windows' races are visible,
	// provenance included.
	var live struct {
		Races []struct {
			A          int                  `json:"a"`
			B          int                  `json:"b"`
			Provenance rvpredict.Provenance `json:"provenance"`
		} `json:"races"`
	}
	if err := json.Unmarshal([]byte(sc.races), &live); err != nil {
		t.Fatalf("/races does not parse: %v\n%s", err, sc.races)
	}
	if len(live.Races) < len(rep.Races)-2 || len(live.Races) > len(rep.Races) {
		t.Errorf("/races held %d races at the last window, want within 2 of the final %d",
			len(live.Races), len(rep.Races))
	}
	for _, r := range live.Races {
		if r.Provenance.Tier == "" {
			t.Errorf("live race %d,%d has no provenance tier", r.A, r.B)
		}
	}
}
