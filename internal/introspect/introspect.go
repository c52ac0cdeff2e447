// Package introspect is the live observation surface of a detection run:
// an HTTP server exposing Prometheus metrics, a server-sent-events stream
// of the candidate funnel, the provenance of every race reported so far,
// and the standard pprof handlers. It is the exact surface a future
// long-running rvpredictd service will mount; today rvpredict.Run mounts
// it for the duration of one run when Options.DebugAddr is set.
//
// The server only ever *reads* the collector's atomic counters and the
// race store it owns, so scraping a live run perturbs nothing — the same
// zero-interference contract the telemetry package keeps.
package introspect

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/race"
	"repro/internal/telemetry"
)

// RaceView is one reported race with its provenance, as served by
// /races: whole-trace event indices, resolved source locations, and the
// Provenance record explaining why the race is trusted.
type RaceView struct {
	A          int             `json:"a"`
	B          int             `json:"b"`
	First      string          `json:"first"`
	Second     string          `json:"second"`
	Provenance race.Provenance `json:"provenance"`
}

// Options configures a Server. Collector is required; everything else is
// optional.
type Options struct {
	// Collector supplies every counter and gauge behind /metrics and
	// /progress.
	Collector *telemetry.Collector
	// BudgetRemaining, when non-nil, reports the remaining global
	// wall-clock budget (the rvpredict_budget_remaining_seconds gauge).
	BudgetRemaining func() time.Duration
	// Version and Revision fill the build_info gauge's labels.
	Version, Revision string
	// ProgressInterval is the /progress SSE cadence (default 500ms).
	ProgressInterval time.Duration
	// Ready, when non-nil, gates /readyz: the endpoint answers 200 while
	// Ready() is true and 503 once it turns false (a draining daemon).
	// When nil, /readyz mirrors /healthz and always answers 200.
	Ready func() bool
}

// Server serves the introspection endpoints. Construct with New; all
// methods are safe for concurrent use.
type Server struct {
	opt Options

	mu    sync.Mutex
	races []RaceView
	ln    net.Listener
	srv   *http.Server
}

// New returns a server for the given options (not yet listening — use
// Start, or mount Handler on a listener of your own).
func New(opt Options) *Server {
	if opt.ProgressInterval <= 0 {
		opt.ProgressInterval = 500 * time.Millisecond
	}
	return &Server{opt: opt}
}

// AddRace appends one reported race to the /races store. The detection
// layer calls it from the window-completion hook as results merge.
func (s *Server) AddRace(v RaceView) {
	s.mu.Lock()
	s.races = append(s.races, v)
	s.mu.Unlock()
}

// Races returns a snapshot of the races reported so far.
func (s *Server) Races() []RaceView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]RaceView(nil), s.races...)
}

// Handler returns the introspection mux: /metrics, /progress, /races and
// /debug/pprof.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/races", s.handleRaces)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start listens on addr (":0" picks a free port) and serves in the
// background until Close. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("introspect: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.ln, s.srv = ln, srv
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return ln.Addr().String(), nil
}

// Close stops the listener and any in-flight handlers (SSE streams
// included).
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.srv, s.ln = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// Funnel is the live candidate-funnel snapshot streamed by /progress.
// The identity
//
//	enumerated = quick_check_filtered + signature_dedup + mhb_filtered
//	           + triage_confirmed + triage_syncp_confirmed + dispatched
//
// holds in every configuration and for every query kind: a window's
// Partition puts each enumerated candidate in exactly one of those bins
// (solve-time skips count separately as pair_skips; the NoQuickCheck
// ablation counts its quick-check failures as dispatched). The Runner
// adds a window's bins in one step, so the identity is exact at
// quiescence — between windows of a sequential run, as at its
// window-completion hook — but a snapshot taken while a window publishes
// can see it broken.
type Funnel struct {
	Enumerated           int64 `json:"candidates_enumerated"`
	QuickCheckFiltered   int64 `json:"quick_check_filtered"`
	SigDedup             int64 `json:"signature_dedup"`
	MHBFiltered          int64 `json:"mhb_filtered"`
	TriageConfirmed      int64 `json:"triage_confirmed"`
	TriageSyncPConfirmed int64 `json:"triage_syncp_confirmed"`
	Dispatched           int64 `json:"dispatched"`
	PairSkips            int64 `json:"pair_skips"`
	QueriesSolved        int64 `json:"queries_solved"`
	WindowsInFlight      int64 `json:"windows_in_flight"`
	GroupsQueued         int64 `json:"groups_queued"`
	Races                int64 `json:"races"`
}

// funnel builds the live snapshot from one metrics snapshot plus the
// collector's gauges.
func (s *Server) funnel() Funnel {
	col := s.opt.Collector
	m := col.Snapshot()
	s.mu.Lock()
	nRaces := int64(len(s.races))
	s.mu.Unlock()
	return Funnel{
		Enumerated:           m.Outcomes.Enumerated,
		QuickCheckFiltered:   m.Outcomes.QuickCheckFiltered,
		SigDedup:             m.Outcomes.SigDedupHits,
		MHBFiltered:          m.Outcomes.MHBFiltered,
		TriageConfirmed:      m.Triage.Confirmed,
		TriageSyncPConfirmed: m.Triage.SyncPConfirmed,
		Dispatched:           m.Triage.Dispatched,
		PairSkips:            m.PairSched.SigSkips,
		QueriesSolved:        m.Outcomes.Solved,
		WindowsInFlight:      col.WindowsInFlight(),
		GroupsQueued:         col.GroupsQueued(),
		Races:                nRaces,
	}
}

func (s *Server) handleRaces(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct { //nolint:errcheck
		Races []RaceView `json:"races"`
	}{s.Races()})
}

// handleProgress streams funnel snapshots as server-sent events until the
// client disconnects or the server closes.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	send := func() bool {
		data, err := json.Marshal(s.funnel())
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !send() {
		return
	}
	tick := time.NewTicker(s.opt.ProgressInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
			if !send() {
				return
			}
		}
	}
}

// handleHealthz is the liveness probe: a 200 whenever the process can
// serve HTTP at all. Restart policies key off this, so it must never
// depend on admission state.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n")) //nolint:errcheck
}

// handleReadyz is the readiness probe: 200 while the service accepts new
// sessions, 503 once it is draining. Load balancers key off this to stop
// routing new clients while in-flight sessions finish.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.opt.Ready != nil && !s.opt.Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n")) //nolint:errcheck
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ready\n")) //nolint:errcheck
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	col := s.opt.Collector
	m := col.Snapshot()
	var b strings.Builder
	family := func(name, typ, help string, samples []sample) {
		if len(samples) == 0 {
			return
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, sm := range samples {
			fmt.Fprintf(&b, "%s%s %s\n", name, sm.labels,
				strconv.FormatFloat(sm.value, 'g', -1, 64))
		}
	}
	for k := range telemetry.NumCounters {
		for _, def := range metricDefs {
			if def.before == k {
				family(def.name, def.typ, def.help, def.collect(s, m))
			}
		}
		if d := k.Def(); d.Name != "" {
			n := col.Load(k)
			v := float64(n)
			if strings.HasSuffix(d.Name, "_seconds_total") {
				v = secs(n)
			}
			family(d.Name, d.Type, d.Help, one(v))
		}
	}
	w.Write([]byte(b.String())) //nolint:errcheck
}

// sample is one exposition line of a metric family: an optional rendered
// label set and the value.
type sample struct {
	labels string
	value  float64
}

func one(v float64) []sample { return []sample{{value: v}} }

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// escapeLabel escapes a Prometheus label value.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// metricDef describes one metric family that is not a single collector
// counter: a labelled, computed or server-side family. It is exposed just
// before the family of counter before, so /metrics keeps one exposition
// order; every single-counter family comes from the counter table
// (telemetry.Counter.Def). The same defs drive MetricNames, so the doc
// drift-guard test sees exactly what a scrape sees.
type metricDef struct {
	name, typ, help string
	before          telemetry.Counter
	collect         func(s *Server, m *telemetry.Metrics) []sample
}

var metricDefs = []metricDef{
	{"rvpredict_build_info", "gauge",
		"Build metadata (module version and VCS revision) as labels; value is always 1.", telemetry.Decisions,
		func(s *Server, _ *telemetry.Metrics) []sample {
			return []sample{{
				labels: fmt.Sprintf(`{version=%q,revision=%q}`,
					escapeLabel(s.opt.Version), escapeLabel(s.opt.Revision)),
				value: 1,
			}}
		}},
	{"rvpredict_windows_in_flight", "gauge",
		"Analysis windows currently being solved.", telemetry.Decisions,
		func(s *Server, _ *telemetry.Metrics) []sample {
			return one(float64(s.opt.Collector.WindowsInFlight()))
		}},
	{"rvpredict_pair_groups_queued", "gauge",
		"Dispatched signature groups not yet fully handled by the pair scheduler.", telemetry.Decisions,
		func(s *Server, _ *telemetry.Metrics) []sample {
			return one(float64(s.opt.Collector.GroupsQueued()))
		}},
	{"rvpredict_budget_remaining_seconds", "gauge",
		"Remaining global wall-clock budget; absent when the run has no budget.", telemetry.Decisions,
		func(s *Server, _ *telemetry.Metrics) []sample {
			if s.opt.BudgetRemaining == nil {
				return nil
			}
			return one(s.opt.BudgetRemaining().Seconds())
		}},
	{"rvpredict_races_total", "counter",
		"Races reported so far (one per distinct signature).", telemetry.Decisions,
		func(s *Server, _ *telemetry.Metrics) []sample {
			s.mu.Lock()
			defer s.mu.Unlock()
			return one(float64(len(s.races)))
		}},
	{"rvpredict_spans_dropped_total", "counter",
		"Trace spans overwritten by span-ring wrap-around; absent when span tracing is off.", telemetry.Decisions,
		func(s *Server, _ *telemetry.Metrics) []sample {
			r := s.opt.Collector.Spans()
			if r == nil {
				return nil
			}
			return one(float64(r.Dropped()))
		}},
	{"rvpredict_phase_seconds_total", "counter",
		"Cumulative exclusive wall-clock time per pipeline phase; other is the run's time no phase covers.", telemetry.Decisions,
		func(_ *Server, m *telemetry.Metrics) []sample {
			p := m.Phases
			phases := []struct {
				name string
				ns   int64
			}{
				{"trace_scan", p.TraceScan}, {"cop_enumeration", p.Enumerate},
				{"mhb", p.MHB}, {"quick_check", p.QuickCheck},
				{"encode", p.Encode}, {"solve", p.Solve}, {"witness", p.Witness},
				{"rollback", p.Rollback}, {"other", p.Other},
			}
			out := make([]sample, len(phases))
			for i, ph := range phases {
				out[i] = sample{labels: fmt.Sprintf(`{phase=%q}`, ph.name), value: secs(ph.ns)}
			}
			return out
		}},
	{"rvpredict_queries_total", "counter",
		"Solver queries by final outcome (sat, unsat, timeout, cancelled).", telemetry.Enumerated,
		func(_ *Server, m *telemetry.Metrics) []sample {
			o := m.Outcomes
			outs := []struct {
				name string
				n    int64
			}{
				{"sat", o.Sat}, {"unsat", o.Unsat}, {"timeout", o.Timeout}, {"cancelled", o.Cancelled},
			}
			out := make([]sample, len(outs))
			for i, oc := range outs {
				out[i] = sample{labels: fmt.Sprintf(`{outcome=%q}`, oc.name), value: float64(oc.n)}
			}
			return out
		}},
	{"rvpredict_queries_solved_total", "counter", "Solver queries issued, one per pair that reached the solver.",
		telemetry.BudgetExhausted,
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Outcomes.Solved)) }},
	{"rvpredict_triage_fast_path_seconds_total", "counter", "Wall-clock time spent in the triage fast path.",
		telemetry.JournalRecords,
		func(_ *Server, m *telemetry.Metrics) []sample { return one(secs(m.Triage.FastPathNS)) }},
	{"rvpredict_triage_shb_seconds_total", "counter", "Wall-clock time spent in the triage ladder's SHB rung.",
		telemetry.JournalRecords,
		func(_ *Server, m *telemetry.Metrics) []sample { return one(secs(m.Triage.SHBNS)) }},
	{"rvpredict_triage_syncp_seconds_total", "counter", "Wall-clock time spent in the triage ladder's sync-preserving witness rung.",
		telemetry.JournalRecords,
		func(_ *Server, m *telemetry.Metrics) []sample { return one(secs(m.Triage.SyncPNS)) }},
	{"rvpredict_journal_fsync_seconds_total", "counter", "Cumulative journal fsync wall-clock time.",
		telemetry.JournalTornTails,
		func(_ *Server, m *telemetry.Metrics) []sample { return one(secs(m.Journal.FsyncNS)) }},
	{"rvpredict_windows_total", "counter", "Analysis windows recorded.", telemetry.SessionsRejected,
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.WindowCount)) }},
	{"rvpredict_sessions_active", "gauge", "Streaming sessions currently open on the daemon.", telemetry.SessionsRejected,
		func(s *Server, _ *telemetry.Metrics) []sample {
			return one(float64(s.opt.Collector.SessionsActive()))
		}},
}

// MetricNames returns the sorted names of every metric family /metrics
// can expose. The doc drift-guard test asserts each appears in
// doc/observability.md.
func MetricNames() []string {
	var out []string
	for _, def := range metricDefs {
		out = append(out, def.name)
	}
	for k := range telemetry.NumCounters {
		if name := k.Def().Name; name != "" {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
