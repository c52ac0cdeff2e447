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
// holds exactly in every configuration: partition classifies every
// enumerated candidate into exactly one of those bins (solve-time skips
// count separately as pair_skips; the NoQuickCheck ablation counts its
// quick-check failures as dispatched).
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
	m := s.opt.Collector.Snapshot()
	var b strings.Builder
	for _, def := range metricDefs {
		samples := def.collect(s, m)
		if len(samples) == 0 {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", def.name, def.help, def.name, def.typ)
		for _, sm := range samples {
			fmt.Fprintf(&b, "%s%s %s\n", def.name, sm.labels,
				strconv.FormatFloat(sm.value, 'g', -1, 64))
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

// metricDef describes one exported metric family: its name, Prometheus
// type, help text, and how to collect its samples. The same table drives
// /metrics and MetricNames, so the doc drift-guard test sees exactly what
// a scrape sees.
type metricDef struct {
	name, typ, help string
	collect         func(s *Server, m *telemetry.Metrics) []sample
}

var metricDefs = []metricDef{
	{"rvpredict_build_info", "gauge",
		"Build metadata (module version and VCS revision) as labels; value is always 1.",
		func(s *Server, _ *telemetry.Metrics) []sample {
			return []sample{{
				labels: fmt.Sprintf(`{version=%q,revision=%q}`,
					escapeLabel(s.opt.Version), escapeLabel(s.opt.Revision)),
				value: 1,
			}}
		}},
	{"rvpredict_windows_in_flight", "gauge",
		"Analysis windows currently being solved.",
		func(s *Server, _ *telemetry.Metrics) []sample {
			return one(float64(s.opt.Collector.WindowsInFlight()))
		}},
	{"rvpredict_pair_groups_queued", "gauge",
		"Dispatched signature groups not yet fully handled by the pair scheduler.",
		func(s *Server, _ *telemetry.Metrics) []sample {
			return one(float64(s.opt.Collector.GroupsQueued()))
		}},
	{"rvpredict_budget_remaining_seconds", "gauge",
		"Remaining global wall-clock budget; absent when the run has no budget.",
		func(s *Server, _ *telemetry.Metrics) []sample {
			if s.opt.BudgetRemaining == nil {
				return nil
			}
			return one(s.opt.BudgetRemaining().Seconds())
		}},
	{"rvpredict_races_total", "counter",
		"Races reported so far (one per distinct signature).",
		func(s *Server, _ *telemetry.Metrics) []sample {
			s.mu.Lock()
			defer s.mu.Unlock()
			return one(float64(len(s.races)))
		}},
	{"rvpredict_spans_dropped_total", "counter",
		"Trace spans overwritten by span-ring wrap-around; absent when span tracing is off.",
		func(s *Server, _ *telemetry.Metrics) []sample {
			r := s.opt.Collector.Spans()
			if r == nil {
				return nil
			}
			return one(float64(r.Dropped()))
		}},
	{"rvpredict_phase_seconds_total", "counter",
		"Cumulative exclusive wall-clock time per pipeline phase; other is the run's time no phase covers.",
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
	{"rvpredict_solver_decisions_total", "counter", "CDCL decisions across all solver instances.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Solver.Decisions)) }},
	{"rvpredict_solver_propagations_total", "counter", "CDCL unit propagations across all solver instances.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Solver.Propagations)) }},
	{"rvpredict_solver_conflicts_total", "counter", "CDCL conflicts across all solver instances.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Solver.Conflicts)) }},
	{"rvpredict_solver_restarts_total", "counter", "CDCL restarts across all solver instances.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Solver.Restarts)) }},
	{"rvpredict_solver_learned_clauses_total", "counter", "Clauses learned across all solver instances.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Solver.Learned)) }},
	{"rvpredict_solver_theory_propagations_total", "counter", "IDL theory propagations across all solver instances.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Solver.TheoryProps)) }},
	{"rvpredict_solver_theory_conflicts_total", "counter", "IDL theory conflicts across all solver instances.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Solver.TheoryConflicts)) }},
	{"rvpredict_theory_facts_total", "counter", "Atoms asserted as root IDL facts, with no SAT variable, across all solver instances.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Solver.TheoryFacts)) }},
	{"rvpredict_queries_total", "counter",
		"Solver queries by final outcome (sat, unsat, timeout, cancelled).",
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
	{"rvpredict_candidates_enumerated_total", "counter", "Conflicting operation pairs enumerated.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Outcomes.Enumerated)) }},
	{"rvpredict_quick_check_filtered_total", "counter", "Candidates removed by the lockset/weak-HB quick check.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Outcomes.QuickCheckFiltered)) }},
	{"rvpredict_signature_dedup_total", "counter", "Candidates removed at partition time because their signature was already decided.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Outcomes.SigDedupHits)) }},
	{"rvpredict_mhb_filtered_total", "counter", "Candidates removed by a must-happen-before pre-check.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Outcomes.MHBFiltered)) }},
	{"rvpredict_queries_solved_total", "counter", "Solver queries issued, one per pair that reached the solver.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Outcomes.Solved)) }},
	{"rvpredict_budget_exhausted_total", "counter", "Candidates skipped because the global wall-clock budget expired.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Outcomes.BudgetExhausted)) }},
	{"rvpredict_window_failures_total", "counter", "Window workers that panicked and were isolated.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Outcomes.WindowFailures)) }},
	{"rvpredict_pair_groups_total", "counter", "Signature groups dispatched to the pair scheduler.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.PairSched.Groups)) }},
	{"rvpredict_pair_workers_total", "counter", "Pair workers that ran (coordinators included).",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.PairSched.Workers)) }},
	{"rvpredict_pair_replicas_total", "counter", "Replica window encodings built by extra pair workers.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.PairSched.Replicas)) }},
	{"rvpredict_pair_rollbacks_total", "counter", "Solver rollbacks to the checkpointed window base.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.PairSched.Rollbacks)) }},
	{"rvpredict_pair_skips_total", "counter", "Dispatched group instances skipped at solve time (verdict already decided).",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.PairSched.SigSkips)) }},
	{"rvpredict_pair_warm_skipped_total", "counter", "Group instances whose control-flow definitions the window base encoding left out.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.PairSched.WarmSkipped)) }},
	{"rvpredict_pair_queue_wait_seconds_total", "counter", "Aggregate signature-group dispatch latency.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(secs(m.PairSched.QueueWaitNS)) }},
	{"rvpredict_triage_confirmed_total", "counter", "COPs confirmed as races by the SHB vector-clock triage tier.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Triage.Confirmed)) }},
	{"rvpredict_triage_syncp_confirmed_total", "counter", "COPs confirmed as races by the sync-preserving witness triage tier.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Triage.SyncPConfirmed)) }},
	{"rvpredict_triage_dispatched_total", "counter", "COPs the triage tier passed to the SMT scheduler.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Triage.Dispatched)) }},
	{"rvpredict_triage_fast_path_seconds_total", "counter", "Wall-clock time spent in the triage fast path.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(secs(m.Triage.FastPathNS)) }},
	{"rvpredict_triage_shb_seconds_total", "counter", "Wall-clock time spent in the triage ladder's SHB rung.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(secs(m.Triage.SHBNS)) }},
	{"rvpredict_triage_syncp_seconds_total", "counter", "Wall-clock time spent in the triage ladder's sync-preserving witness rung.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(secs(m.Triage.SyncPNS)) }},
	{"rvpredict_journal_records_total", "counter", "Window records appended to the durable journal.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Journal.RecordsWritten)) }},
	{"rvpredict_journal_windows_replayed_total", "counter", "Windows replayed from the journal on resume.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Journal.WindowsReplayed)) }},
	{"rvpredict_journal_bytes_total", "counter", "Framed bytes written to the journal.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Journal.Bytes)) }},
	{"rvpredict_journal_fsync_seconds_total", "counter", "Cumulative journal fsync wall-clock time.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(secs(m.Journal.FsyncNS)) }},
	{"rvpredict_journal_torn_tails_total", "counter", "Torn journal tails truncated during recovery.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.Journal.TornTailTruncated)) }},
	{"rvpredict_chunk_cache_hits_total", "counter", "Chunked-trace random accesses served from the decoded-chunk cache.",
		func(s *Server, _ *telemetry.Metrics) []sample { return one(float64(s.opt.Collector.ChunkCacheHits())) }},
	{"rvpredict_chunk_cache_misses_total", "counter", "Chunked-trace random accesses that decoded a chunk.",
		func(s *Server, _ *telemetry.Metrics) []sample {
			return one(float64(s.opt.Collector.ChunkCacheMisses()))
		}},
	{"rvpredict_mmap_bytes", "gauge", "Bytes of chunked trace currently memory-mapped (0 when the reader fell back to a heap copy).",
		func(s *Server, _ *telemetry.Metrics) []sample { return one(float64(s.opt.Collector.MmapBytes())) }},
	{"rvpredict_fleet_leases_granted_total", "counter", "Shard leases granted to fleet workers (including speculative duplicates).",
		func(s *Server, _ *telemetry.Metrics) []sample {
			return one(float64(s.opt.Collector.LeasesGranted()))
		}},
	{"rvpredict_fleet_leases_expired_total", "counter", "Fleet leases whose heartbeat deadline lapsed before the shard finished.",
		func(s *Server, _ *telemetry.Metrics) []sample {
			return one(float64(s.opt.Collector.LeasesExpired()))
		}},
	{"rvpredict_fleet_leases_reassigned_total", "counter", "Shards re-leased to another worker after an expiry or disconnect.",
		func(s *Server, _ *telemetry.Metrics) []sample {
			return one(float64(s.opt.Collector.LeasesReassigned()))
		}},
	{"rvpredict_fleet_speculative_wins_total", "counter", "Window outcomes won by a speculative duplicate lease (straggler hedging paid off).",
		func(s *Server, _ *telemetry.Metrics) []sample {
			return one(float64(s.opt.Collector.SpeculativeWins()))
		}},
	{"rvpredict_fleet_worker_disconnects_total", "counter", "Fleet worker connections that ended without a clean shutdown handshake.",
		func(s *Server, _ *telemetry.Metrics) []sample {
			return one(float64(s.opt.Collector.WorkerDisconnects()))
		}},
	{"rvpredict_windows_total", "counter", "Analysis windows recorded.",
		func(_ *Server, m *telemetry.Metrics) []sample { return one(float64(m.WindowCount)) }},
	{"rvpredict_sessions_active", "gauge", "Streaming sessions currently open on the daemon.",
		func(s *Server, _ *telemetry.Metrics) []sample {
			return one(float64(s.opt.Collector.SessionsActive()))
		}},
	{"rvpredict_sessions_rejected_total", "counter",
		"Streaming clients turned away by admission control (session limit, busy token, draining, bad handshake).",
		func(s *Server, _ *telemetry.Metrics) []sample {
			return one(float64(s.opt.Collector.SessionsRejected()))
		}},
	{"rvpredict_ingest_backpressure_seconds_total", "counter",
		"Wall-clock time streaming ingest spent blocked waiting for an analysis slot.",
		func(s *Server, _ *telemetry.Metrics) []sample {
			return one(secs(s.opt.Collector.IngestBackpressureNS()))
		}},
	{"rvpredict_degraded_windows_total", "counter",
		"Windows analysed in degraded mode (SMT tier shed; sound-tier verdicts only).",
		func(s *Server, _ *telemetry.Metrics) []sample {
			return one(float64(s.opt.Collector.DegradedWindows()))
		}},
}

// MetricNames returns the sorted names of every metric family /metrics
// can expose. The doc drift-guard test asserts each appears in
// doc/observability.md.
func MetricNames() []string {
	out := make([]string, len(metricDefs))
	for i, def := range metricDefs {
		out[i] = def.name
	}
	sort.Strings(out)
	return out
}
