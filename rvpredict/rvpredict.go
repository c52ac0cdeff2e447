// Package rvpredict is the public face of this repository: maximal sound
// predictive data-race detection with control flow abstraction, after
// Huang, Meredith and Roșu (PLDI 2014).
//
// Given one observed, sequentially consistent execution trace (built with
// repro/trace, produced by the repro/minilang interpreter, or decoded from
// a trace file), Detect explores every reordering permitted by the paper's
// maximal causal model and reports each conflicting pair of accesses that
// some feasible reordering schedules back to back. Every reported race is
// real (soundness, Theorem 1/3) and no sound detector working from the
// same trace can report more (maximality, Theorem 2/3).
//
// The three sound baselines the paper compares against — happens-before,
// causally-precedes and the whole-trace SMT encoding of Said et al. — and
// the unsound hybrid quick check are available through
// Options.Algorithm, making side-by-side comparisons (the paper's Table 1)
// one loop.
//
//	tr := trace.NewBuilder(). … .Trace()
//	report := rvpredict.Detect(tr, rvpredict.Options{Witness: true})
//	for _, r := range report.Races {
//		fmt.Println(r.Description)
//	}
package rvpredict

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/atomicity"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/deadlock"
	"repro/internal/faultinject"
	"repro/internal/hb"
	"repro/internal/journal"
	"repro/internal/lockset"
	"repro/internal/race"
	"repro/internal/said"
	"repro/internal/telemetry"
	"repro/trace"
)

// Algorithm selects a detection technique.
type Algorithm int

// Available techniques.
const (
	// MaximalCF is the paper's contribution: SMT-based maximal detection
	// with control-flow (branch) feasibility constraints.
	MaximalCF Algorithm = iota
	// SaidEtAl is the SMT baseline with whole-trace read–write consistency
	// (NFM 2011).
	SaidEtAl
	// CausallyPrecedes is the CP relation of Smaragdakis et al. (POPL 2012).
	CausallyPrecedes
	// HappensBefore is the classical vector-clock detector.
	HappensBefore
	// QuickCheck is the unsound hybrid lockset/weak-HB filter (reports
	// potential races; Table 1's QC column).
	QuickCheck
)

// String returns the Table 1 column name of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case MaximalCF:
		return "RV"
	case SaidEtAl:
		return "Said"
	case CausallyPrecedes:
		return "CP"
	case HappensBefore:
		return "HB"
	case QuickCheck:
		return "QC"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// MarshalJSON encodes the algorithm as its Table 1 column name.
func (a Algorithm) MarshalJSON() ([]byte, error) {
	return json.Marshal(a.String())
}

// UnmarshalJSON decodes a Table 1 column name (or a legacy integer).
func (a *Algorithm) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		var n int
		if err2 := json.Unmarshal(data, &n); err2 != nil {
			return err
		}
		*a = Algorithm(n)
		return nil
	}
	for _, cand := range []Algorithm{MaximalCF, SaidEtAl, CausallyPrecedes, HappensBefore, QuickCheck} {
		if cand.String() == name {
			*a = cand
			return nil
		}
	}
	return fmt.Errorf("rvpredict: unknown algorithm %q", name)
}

// Telemetry is the machine-readable metrics snapshot attached to reports
// when Options.Telemetry is set: phase timings, solver-stack counters
// (CDCL, IDL theory, encoder), candidate-funnel outcome tallies, and
// per-window records. See internal/telemetry for field documentation and
// doc/observability.md for the counter glossary.
type Telemetry = telemetry.Metrics

// Options configures Detect. The zero value runs the paper's algorithm
// with its defaults: 10K-event windows and a 60-second per-pair solver
// timeout.
type Options struct {
	// Algorithm selects the technique (default MaximalCF).
	Algorithm Algorithm
	// WindowSize is the trace window length (default 10000; negative
	// analyses the whole trace in one window).
	WindowSize int
	// SolveTimeout bounds each conflicting pair's solver run for the
	// SMT-based techniques. The zero value maps to 60s, the paper's
	// setting; a negative value disables the bound. (The internal
	// detectors uniformly treat ≤ 0 as unbounded; this layer owns the
	// zero-means-default mapping.)
	SolveTimeout time.Duration
	// GlobalBudget, when positive, bounds the whole detection run's
	// wall clock. When it expires, remaining solver work is skipped, the
	// report is flagged BudgetExhausted, and results produced so far are
	// returned (sound but not maximal). MaximalCF, deadlock and
	// atomicity detection.
	GlobalBudget time.Duration
	// Witness requests a witness schedule per race (SMT techniques only).
	Witness bool
	// Parallelism > 1 runs that many workers (MaximalCF, deadlock and
	// atomicity), on every trace source. A trace of two or more windows
	// has its windows analysed concurrently, each with fresh signature
	// state, and the outcomes merge in window order, so the report is
	// deterministic and identical to the reader and fleet report of the
	// same trace; it differs from a sequential in-memory run only in
	// PairsChecked, and only when a signature recurs across windows. A
	// window analysed alone — the trace's only window, or one a daemon
	// session or fleet worker analyses — has its candidate pairs solved
	// concurrently instead, and the report is bit-identical to the
	// sequential run's (see core.Options.Parallelism).
	Parallelism int
	// Telemetry attaches a Telemetry metrics snapshot to the report:
	// phase timings, solver counters and outcome tallies. Collection is
	// allocation-light but not free; leave it off on hot paths. Enabling
	// it never changes what is detected.
	Telemetry bool
	// FaultInjector, when non-nil, wires a deterministic fault-injection
	// script into the core window pipeline. It exists for resilience tests
	// only — injected faults make the detector deliberately under-report
	// — and must stay nil in production use.
	FaultInjector *faultinject.Injector
	// Journal, when non-empty, is the path of a durable window journal
	// (MaximalCF via Run only): every window that reaches a final
	// verdict is appended as a CRC-framed record, so a run killed by a
	// crash can be resumed without repeating completed solver work. See
	// internal/journal and doc/robustness.md.
	Journal string
	// Resume replays the windows recorded in Journal instead of
	// re-analysing them, then continues journaling the rest. The
	// journal's header fingerprint must match this run (same trace, same
	// result-affecting options) or Run refuses with journal.ErrFingerprint.
	// Requires Journal.
	Resume bool
	// JournalGroupCommit is the journal's batched-fsync interval: an
	// append only fsyncs when this much time has passed since the last
	// sync, bounding a crash's data loss to one interval's records
	// (which a resume simply re-analyses — exactness is unaffected).
	// 0 means DefaultJournalGroupCommit; negative is invalid. Use a
	// tiny positive value (1ns) to force a sync on every append.
	JournalGroupCommit time.Duration
	// DebugAddr, when non-empty, serves the live introspection
	// endpoints — /metrics (Prometheus text exposition), /progress
	// (server-sent candidate-funnel events), /races (the races found so
	// far with their provenance) and /debug/pprof — on this TCP address
	// for the duration of the run. ":0" binds an ephemeral port;
	// OnDebugAddr reports what was bound. Honoured by Run, the
	// validating entry point (Detect/DetectContext ignore it). Purely
	// observational: excluded from the journal fingerprint, never
	// changes what is detected. The /races feed follows the MaximalCF
	// window-completion hook; baseline algorithms expose metrics only.
	DebugAddr string
	// OnDebugAddr, when non-nil, is called once with the introspection
	// server's bound address ("host:port") before detection begins —
	// the rendezvous for DebugAddr ":0". Requires DebugAddr.
	OnDebugAddr func(addr string)
	// TraceReader, when non-nil, supplies the trace out-of-core instead
	// of the tr argument (which must then be nil): Run analyses windows
	// streamed from the reader — O(window + chunk) events live, never
	// the whole trace — and renders the report through the reader's
	// random-access path. Implemented by internal/tracev2's chunked-file
	// Reader and its in-memory adapter. MaximalCF analyses out-of-core;
	// baseline algorithms materialise the trace via ReadAll first.
	// Honoured by Run only. Every window is analysed with fresh
	// per-window signature state (core.Isolated), so the report carries
	// the same races as the in-memory path but counts solver work per
	// window. Parallelism applies as on the in-memory path.
	TraceReader TraceReader
	// Spans, when non-nil, records the run's spans — run, window,
	// query, the phases, pair-scheduler worker occupancy, journal fsync
	// stalls — into the given recorder: its bounded ring (export with
	// SpanRecorder.WriteChromeTrace for chrome://tracing or Perfetto) and
	// its end-of-span consumer, which sees every window and query verdict
	// as it happens (the CLI's -progress lines). MaximalCF, deadlock and
	// atomicity detection record windows and queries; the other
	// algorithms record the run span only. Observational only, like
	// DebugAddr.
	Spans *SpanRecorder
	// Collector, when non-nil, is the telemetry collector the run
	// accumulates its counters into, instead of an internal one. It lets
	// a supervising process — the fleet coordinator, a test harness —
	// observe counters that never reach the report snapshot (the fleet
	// counters) and aggregate several runs (e.g. a coordinator's leases
	// and its final merge) into one set of gauges. Observational only,
	// like DebugAddr: it is excluded from the journal fingerprint and
	// never changes what is detected. Telemetry still controls whether
	// the report carries a snapshot.
	Collector *telemetry.Collector

	// onWindowDone and resumeWindows are the journal and introspection
	// plumbing the entry points install (MergeJournal presets resumeWindows);
	// col carries the run's collector so the journal writer, the
	// introspection server and the detector share one.
	onWindowDone  func(race.WindowOutcome)
	resumeWindows map[int]race.WindowOutcome
	col           *telemetry.Collector
}

// DefaultJournalGroupCommit is the journal fsync batching interval used
// when Options.JournalGroupCommit is zero.
const DefaultJournalGroupCommit = 100 * time.Millisecond

// OptionsError reports one invalid Options field (or field combination)
// rejected by Validate. It is the single typed error for every rejected
// configuration, so callers can errors.As on it and print Field/Reason.
type OptionsError struct {
	// Field names the offending option (the first one found, in a fixed
	// check order); Reason says what is wrong with it.
	Field  string
	Reason string
}

func (e *OptionsError) Error() string {
	return fmt.Sprintf("rvpredict: invalid Options.%s: %s", e.Field, e.Reason)
}

// Validate checks the options for combinations with no defined meaning
// and returns an *OptionsError naming the first offending field, or nil.
// Detect and DetectContext remain lenient for compatibility (they clamp
// instead of failing); Run validates up front so misconfigurations fail
// loudly instead of producing undefined downstream behaviour.
func (o Options) Validate() error {
	if o.WindowSize < -1 {
		return &OptionsError{Field: "WindowSize", Reason: fmt.Sprintf("%d; use -1 for a single whole-trace window", o.WindowSize)}
	}
	if o.Parallelism < 0 {
		return &OptionsError{Field: "Parallelism", Reason: fmt.Sprintf("%d; worker counts cannot be negative", o.Parallelism)}
	}
	if o.GlobalBudget < 0 {
		return &OptionsError{Field: "GlobalBudget", Reason: "negative; use 0 for an unbounded run"}
	}
	if o.Resume && o.Journal == "" {
		return &OptionsError{Field: "Resume", Reason: "requires Journal: there is nothing to resume from"}
	}
	if o.Journal != "" && o.Algorithm != MaximalCF {
		return &OptionsError{Field: "Journal", Reason: fmt.Sprintf("journaling supports the %s algorithm only, not %s", MaximalCF, o.Algorithm)}
	}
	if o.JournalGroupCommit < 0 {
		return &OptionsError{Field: "JournalGroupCommit", Reason: "negative; use 0 for the default interval or a tiny positive value to sync every append"}
	}
	if o.OnDebugAddr != nil && o.DebugAddr == "" {
		return &OptionsError{Field: "OnDebugAddr", Reason: "requires DebugAddr: there is no server whose address could be reported"}
	}
	return nil
}

// fingerprintString is the canonical encoding of the result-affecting
// options, hashed into the journal's header fingerprint. It covers
// exactly the options that change what a window's outcome contains —
// algorithm, windowing, solver budgets and witness production — and
// deliberately excludes the options guaranteed result-identical
// (Parallelism) plus everything observational
// (telemetry, tracing, the journal knobs themselves), so a journal
// written under one parallelism setting resumes under any other. Options are normalised first: equivalent spellings (zero vs the
// explicit default) hash equal.
func (o Options) fingerprintString() string {
	n := o.normalise()
	return fmt.Sprintf("rvpredict-options-v1 algo=%s window=%d solve=%d budget=%d witness=%t",
		n.Algorithm, n.WindowSize, int64(n.SolveTimeout), int64(n.GlobalBudget), n.Witness)
}

func (o Options) normalise() Options {
	if o.WindowSize == 0 {
		o.WindowSize = 10000
	}
	if o.WindowSize < 0 {
		o.WindowSize = 0
	}
	if o.SolveTimeout == 0 {
		o.SolveTimeout = 60 * time.Second
	}
	if o.SolveTimeout < 0 {
		o.SolveTimeout = 0
	}
	return o
}

// Normalised returns the options with every equivalent spelling mapped
// to its canonical form (zero WindowSize → the paper's 10000, zero
// SolveTimeout → 60 s, negatives → unbounded), exactly as the detection
// entry points do internally. The streaming layer (internal/stream)
// normalises up front so its per-window detector and a batch run over
// the same options agree bit for bit.
func (o Options) Normalised() Options { return o.normalise() }

// CoreOptions derives the MaximalCF detector's options from o: the one
// mapping every driver uses — batch, out-of-core reader, daemon session
// and fleet worker — so a field cannot reach one mode and miss another.
// The caller fills in only what it owns: the telemetry collector, the
// window-completion hook, the resume map and the fault injector.
//
// The fields are copied as they are, in core's spelling (0 = unbounded),
// so o must already be normalised: call Normalised first unless o came
// from it. Normalising is not idempotent — it maps a negative to 0
// (unbounded) and a 0 to the default — so CoreOptions does not do it.
func (o Options) CoreOptions() core.Options {
	return core.Options{
		WindowSize:   o.WindowSize,
		SolveTimeout: o.SolveTimeout,
		GlobalBudget: o.GlobalBudget,
		Witness:      o.Witness,
		Parallelism:  o.Parallelism,
	}
}

// runCoreOptions is CoreOptions plus what the batch and reader drivers
// own: the run's collector, its fault injector and Run's journal
// plumbing.
func (o Options) runCoreOptions(col *telemetry.Collector) core.Options {
	c := o.CoreOptions()
	c.Telemetry = col
	c.FaultInjector = o.FaultInjector
	c.OnWindowDone = o.onWindowDone
	c.ResumeWindows = o.resumeWindows
	return c
}

// ResultFingerprint returns the canonical string of every
// result-affecting option (see the journal fingerprint contract): two
// option values with equal ResultFingerprint produce identical reports
// on identical traces. The streaming daemon binds each session journal
// to it in place of batch mode's whole-trace fingerprint.
func (o Options) ResultFingerprint() string { return o.fingerprintString() }

// Provenance records, for one reported race, which confirming tier
// established it (SHB or SyncP triage, the SMT solver, or a baseline
// detector's fixed tier), in which analysis window, and — when the SMT
// solver ran — what the query cost. The tier comes from the window's
// triage partition, which classifies every pair once, so provenance is
// identical whichever execution strategy produced the report
// (sequential, parallel, resumed from a journal); only
// the operational Replayed flag reflects how this particular run
// obtained the window.
type Provenance = race.Provenance

// Race is one detected data race.
type Race struct {
	// First and Second are the indices of the racing events in the input
	// trace, in trace order.
	First  int `json:"first"`
	Second int `json:"second"`
	// Locations are the static program locations of the two accesses (the
	// race's deduplication signature), rendered through the trace's
	// location names.
	Locations [2]string `json:"locations"`
	// Description is a human-readable one-liner.
	Description string `json:"description"`
	// Witness, when requested and available, is a consistent reordered
	// prefix of event indices ending with the two racing accesses
	// scheduled back to back (Definition 4's τ₁ab).
	Witness []int `json:"witness,omitempty"`
	// Provenance identifies the confirming tier, window and solver cost
	// behind this race (see the Provenance type for the determinism
	// contract).
	Provenance Provenance `json:"provenance"`
}

// Report is the result of one Detect call.
type Report struct {
	// Algorithm that produced the report.
	Algorithm Algorithm `json:"algorithm"`
	// Races found, one per location pair.
	Races []Race `json:"races"`
	// Stats summarises the input trace (Table 1's metric columns).
	Stats trace.Stats `json:"stats"`
	// PairsChecked counts conflicting pairs examined.
	PairsChecked int `json:"pairs_checked"`
	// Windows is the number of analysis windows.
	Windows int `json:"windows"`
	// SolverTimeouts counts pairs abandoned at the solver budget.
	SolverTimeouts int `json:"solver_timeouts"`
	// Elapsed is the wall-clock analysis time in nanoseconds.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Interrupted reports the run was cut short by context cancellation
	// (DetectContext / SIGINT in the CLI). The races listed are all real,
	// but coverage is partial: only the work completed before the
	// interrupt is reflected. Always present in JSON so consumers can
	// rely on the key.
	Interrupted bool `json:"interrupted"`
	// BudgetExhausted reports Options.GlobalBudget expired before every
	// candidate was solved; like Interrupted, results are sound but
	// coverage is partial.
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
	// WindowFailures lists analysis windows whose worker panicked and was
	// isolated; all other windows' results are intact.
	WindowFailures []WindowFailure `json:"window_failures,omitempty"`
	// DegradedWindows counts analysis windows the streaming daemon
	// degraded under sustained pressure (SMT tier shed, sound-tier
	// verdicts only, races flagged Degraded in provenance). Always zero
	// in batch runs, so the key is omitted and batch reports are
	// unaffected.
	DegradedWindows int `json:"degraded_windows,omitempty"`
	// Telemetry is the metrics snapshot, present iff Options.Telemetry.
	Telemetry *Telemetry `json:"telemetry,omitempty"`
	// Build identifies the rvpredict build that produced the report:
	// module version and VCS revision from the binary's embedded build
	// information (see BuildInfo).
	Build BuildID `json:"build_info"`
}

// WindowFailure records one analysis window whose worker panicked. The
// panic was recovered, the window's results were dropped, and the run
// continued; the failure is surfaced here (and in Telemetry) so the
// coverage gap is never silent.
type WindowFailure struct {
	// Window is the window's index in trace order; Offset the index of
	// its first event in the input trace; Events its length.
	Window int `json:"window"`
	Offset int `json:"offset"`
	Events int `json:"events"`
	// PanicValue renders the recovered panic value.
	PanicValue string `json:"panic"`
	// Stack is the goroutine stack at the recovery point.
	Stack string `json:"stack,omitempty"`
}

// Detect runs the selected race detection technique over tr.
//
// The input trace must be sequentially consistent (trace.Validate); the
// detectors otherwise return results for the prefix semantics they can
// reconstruct. Detect never modifies tr.
func Detect(tr *trace.Trace, opt Options) Report {
	return DetectContext(context.Background(), tr, opt)
}

// Run is the validating, journal-aware entry point: it rejects invalid
// options with an *OptionsError, and when Options.Journal is set it
// makes the run crash-safe — every completed window's outcome is
// appended to the journal, and with Options.Resume the journaled windows
// are replayed instead of re-analysed, producing a report identical to
// an uninterrupted run's while issuing strictly fewer solver queries.
// Detection errors (an unreadable journal, a fingerprint mismatch) are
// returned, not absorbed. Without Journal, DebugAddr or TraceReader,
// Run is DetectContext plus validation. A nil ctx is treated as
// context.Background().
func Run(ctx context.Context, tr *trace.Trace, opt Options) (Report, error) {
	if err := opt.Validate(); err != nil {
		return Report{}, err
	}
	switch {
	case opt.TraceReader != nil && tr != nil:
		return Report{}, &OptionsError{Field: "TraceReader", Reason: "both TraceReader and a materialised trace were supplied; pass exactly one"}
	case opt.TraceReader == nil && tr == nil:
		return Report{}, &OptionsError{Field: "TraceReader", Reason: "no trace source: set TraceReader or pass a non-nil trace"}
	}
	return run(ctx, tr, opt, false)
}

// attachJournalWriter opens (or resumes) the journal at opt.Journal,
// loads any recovered outcomes into opt.resumeWindows, and composes the
// writer into opt.onWindowDone ahead of any hook already installed (the
// introspection feed): durability first, observation after. The first
// append error is kept and surfaced by the returned finish function — a
// race that could not be made durable must not be silently undurable.
func attachJournalWriter(opt *Options, fp journal.Fingerprint, col *telemetry.Collector) (finish func() error, err error) {
	gc := opt.JournalGroupCommit
	if gc == 0 {
		gc = DefaultJournalGroupCommit
	}
	jopt := journal.Options{
		GroupCommit:   gc,
		Telemetry:     col,
		FaultInjector: opt.FaultInjector,
	}

	var w *journal.Writer
	if opt.Resume {
		var info journal.RecoverInfo
		w, info, err = journal.Resume(opt.Journal, fp, jopt)
		if err != nil {
			return nil, err
		}
		if info.TornTail {
			col.Add(telemetry.JournalTornTails, 1)
		}
		opt.resumeWindows = outcomesByWindow(info.Outcomes)
	} else {
		w, err = journal.Create(opt.Journal, fp, jopt)
		if err != nil {
			return nil, err
		}
	}

	prev := opt.onWindowDone
	var appendErr error
	opt.onWindowDone = func(out race.WindowOutcome) {
		if err := w.Append(out); err != nil && appendErr == nil {
			appendErr = err
		}
		if prev != nil {
			prev(out)
		}
	}
	return func() error {
		if err := w.Close(); appendErr == nil {
			appendErr = err
		}
		return appendErr
	}, nil
}

// outcomesByWindow indexes recovered journal outcomes by window, or
// returns nil when there are none.
func outcomesByWindow(outs []race.WindowOutcome) map[int]race.WindowOutcome {
	if len(outs) == 0 {
		return nil
	}
	m := make(map[int]race.WindowOutcome, len(outs))
	for _, out := range outs {
		m[out.Window] = out
	}
	return m
}

// DetectContext is Detect under a context: cancelling ctx interrupts the
// run — the context is polled between windows, between pairs and inside
// the solver's search loop — and the partial report is returned with
// Interrupted set. Every race in a partial report is still real; only
// coverage is affected. A nil ctx is treated as context.Background(), a
// nil tr as an empty trace.
func DetectContext(ctx context.Context, tr *trace.Trace, opt Options) Report {
	if tr == nil {
		tr = trace.New(0)
	}
	// The options honoured by Run only: DetectContext analyses tr,
	// unjournaled and without the introspection server.
	opt.TraceReader = nil
	opt.Journal, opt.Resume = "", false
	opt.DebugAddr, opt.OnDebugAddr = "", nil
	// An in-memory source without a journal cannot fail.
	rep, _ := run(ctx, tr, opt, false)
	return rep
}

// baseline returns the detector of a baseline algorithm, or nil for
// MaximalCF.
func baseline(opt Options) interface {
	DetectContext(ctx context.Context, tr *trace.Trace) race.Result
} {
	switch opt.Algorithm {
	case SaidEtAl:
		return said.New(said.Options{
			WindowSize:   opt.WindowSize,
			SolveTimeout: opt.SolveTimeout,
			Witness:      opt.Witness,
		})
	case CausallyPrecedes:
		return uncancellable{cp.New(cp.Options{WindowSize: opt.WindowSize})}
	case HappensBefore:
		return uncancellable{hb.New(hb.Options{WindowSize: opt.WindowSize})}
	case QuickCheck:
		return uncancellable{lockset.New(lockset.Options{WindowSize: opt.WindowSize})}
	}
	return nil
}

// publicProvenance returns the race's provenance, stamping the baseline
// detectors' fixed tier when the detector left it blank: only the
// MaximalCF core attributes per-race tiers itself. The window index is
// derived from the normalised window size (0 = whole trace = window 0).
func publicProvenance(r race.Race, opt Options) race.Provenance {
	p := r.Prov
	if p.Tier != "" {
		return p
	}
	switch opt.Algorithm {
	case CausallyPrecedes:
		p.Tier = race.TierCausallyPrecedes
	case HappensBefore:
		p.Tier = race.TierHB
	case QuickCheck:
		p.Tier = race.TierQuickCheck
	default: // SaidEtAl and any future SMT baseline
		p.Tier = race.TierSMT
	}
	if opt.WindowSize > 0 {
		p.Window = r.A / opt.WindowSize
	}
	p.WitnessLen = len(r.Witness)
	return p
}

// uncancellable adapts the vector-clock detectors — fast, purely
// combinatorial passes with no solver to interrupt — to the context-aware
// detector interface. The context is still honoured at the whole-run
// granularity: a context already cancelled on entry yields an empty
// interrupted result.
type uncancellable struct{ d race.Detector }

func (u uncancellable) DetectContext(ctx context.Context, tr *trace.Trace) race.Result {
	if ctx != nil && ctx.Err() != nil {
		return race.Result{Cancelled: true}
	}
	res := u.d.Detect(tr)
	if ctx != nil && ctx.Err() != nil {
		res.Cancelled = true
	}
	return res
}

// newCollector returns a live collector when any observation surface
// was requested — a telemetry snapshot, the introspection server (its
// gauges read the collector) or span recording — or a nil collector,
// every method of which is a no-op, otherwise.
func newCollector(opt Options) *telemetry.Collector {
	if opt.Collector != nil {
		if opt.Spans != nil {
			opt.Collector.AttachSpans(opt.Spans)
		}
		return opt.Collector
	}
	if !opt.Telemetry && opt.DebugAddr == "" && opt.Spans == nil {
		return nil
	}
	c := telemetry.NewCollector()
	if opt.Spans != nil {
		c.AttachSpans(opt.Spans)
	}
	return c
}

// CheckWitness validates a race's witness schedule against the window of
// tr it came from: the witness must reorder that window's events with
// program order, fork/join, wait/notify and lock discipline holding, and
// the racing pair must come last. windowSize is the run's
// Options.WindowSize, with the same meaning (0 is the default 10000, a
// negative size one whole-trace window), so a race of a later window is
// checked against that window's events only. It returns nil for a valid
// witness.
func CheckWitness(tr *trace.Trace, witness []int, first, second, windowSize int) error {
	size := Options{WindowSize: windowSize}.normalise().WindowSize
	return race.ValidateWitness(tr, witness, first, second, race.WindowStart(first, size))
}

// DeadlockReport is the result of DetectDeadlocks.
type DeadlockReport struct {
	// Deadlocks found, one per static lock-inversion site pair.
	Deadlocks []PredictedDeadlock `json:"deadlocks"`
	// Candidates is the number of lock-inversion patterns examined.
	Candidates int `json:"candidates"`
	// Windows is the number of analysis windows.
	Windows int `json:"windows"`
	// Elapsed is the wall-clock analysis time in nanoseconds.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Interrupted reports the run was cut short by context cancellation;
	// the deadlocks listed are all real, but coverage is partial.
	Interrupted bool `json:"interrupted"`
	// Telemetry is the metrics snapshot, present iff Options.Telemetry.
	Telemetry *Telemetry `json:"telemetry,omitempty"`
}

// PredictedDeadlock is one predicted two-thread deadlock.
type PredictedDeadlock struct {
	// Description is a human-readable one-liner naming threads, locks and
	// program locations.
	Description string `json:"description"`
	// HeldAcquires and BlockedAcquires are the event indices of the two
	// held acquires and the two acquires that block in the predicted
	// deadlocked state.
	HeldAcquires    [2]int `json:"held_acquires"`
	BlockedAcquires [2]int `json:"blocked_acquires"`
	// Witness, when requested, is a feasible schedule prefix reaching the
	// deadlocked state (both locks held, both next acquires blocked).
	Witness []int `json:"witness,omitempty"`
}

// DetectDeadlocks predicts two-thread lock-inversion deadlocks from the
// trace, using the same maximal causal model as race detection (the
// Section 2.5 generalisation): a candidate is reported only if a feasible
// reordering actually reaches the deadlocked state, so gate-locked or
// control-flow-guarded inversions are proved safe rather than reported.
func DetectDeadlocks(tr *trace.Trace, opt Options) DeadlockReport {
	return DetectDeadlocksContext(context.Background(), tr, opt)
}

// DetectDeadlocksContext is DetectDeadlocks under a context; cancelling
// ctx interrupts the run mid-solve and returns the partial report with
// Interrupted set. A nil ctx is treated as context.Background(), a nil
// tr as an empty trace.
func DetectDeadlocksContext(ctx context.Context, tr *trace.Trace, opt Options) DeadlockReport {
	res, snap := detectKind(ctx, deadlock.Kind, tr, opt)
	rep := DeadlockReport{
		Candidates:  res.COPsChecked,
		Windows:     res.Windows,
		Elapsed:     res.Elapsed,
		Interrupted: res.Cancelled,
		Telemetry:   snap,
	}
	for _, d := range res.Races {
		rep.Deadlocks = append(rep.Deadlocks, PredictedDeadlock{
			Description:     d.Describe(tr),
			HeldAcquires:    [2]int{d.HeldAcquire1, d.HeldAcquire2},
			BlockedAcquires: [2]int{d.BlockedAcquire1, d.BlockedAcquire2},
			Witness:         d.Witness,
		})
	}
	return rep
}

// detectKind runs one query kind of the core window pipeline over tr, a
// nil tr as an empty trace: the shared body of the deadlock and atomicity
// entry points. It returns the telemetry snapshot when opt.Telemetry asks
// for one.
func detectKind[C any, S comparable, F any](ctx context.Context, k core.Kind[C, S, F], tr *trace.Trace, opt Options) (race.ResultOf[F], *Telemetry) {
	if tr == nil {
		tr = trace.New(0)
	}
	opt = opt.normalise()
	col := newCollector(opt)
	res := core.DetectKind(ctx, k, opt.runCoreOptions(col), tr)
	if !opt.Telemetry {
		return res, nil
	}
	return res, col.Snapshot()
}

// AtomicityReport is the result of DetectAtomicityViolations.
type AtomicityReport struct {
	// Violations found, one per static (first, remote, second) site triple.
	Violations []AtomicityViolation `json:"violations"`
	// Candidates is the number of unserializable triples examined.
	Candidates int `json:"candidates"`
	// Windows is the number of analysis windows.
	Windows int `json:"windows"`
	// Elapsed is the wall-clock analysis time in nanoseconds.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Interrupted reports the run was cut short by context cancellation;
	// the violations listed are all real, but coverage is partial.
	Interrupted bool `json:"interrupted"`
	// Telemetry is the metrics snapshot, present iff Options.Telemetry.
	Telemetry *Telemetry `json:"telemetry,omitempty"`
}

// AtomicityViolation is one predicted atomicity violation: a remote access
// that some feasible reordering schedules between two same-location
// accesses of a critical section, with an unserializable result.
type AtomicityViolation struct {
	// Description is a human-readable one-liner.
	Description string `json:"description"`
	// First and Second are the region's two accesses; Remote is the
	// interleaving access (event indices).
	First  int `json:"first"`
	Second int `json:"second"`
	Remote int `json:"remote"`
	// Witness, when requested, is a feasible schedule prefix ending with
	// the second region access, with the remote access strictly between
	// the two.
	Witness []int `json:"witness,omitempty"`
}

// DetectAtomicityViolations predicts atomicity violations of critical
// sections: unserializable access triples that some feasible reordering of
// the trace realises — the third concurrency property (after races and
// deadlocks) expressible on the paper's maximal causal model (Section 2.5).
func DetectAtomicityViolations(tr *trace.Trace, opt Options) AtomicityReport {
	return DetectAtomicityViolationsContext(context.Background(), tr, opt)
}

// DetectAtomicityViolationsContext is DetectAtomicityViolations under a
// context; cancelling ctx interrupts the run mid-solve and returns the
// partial report with Interrupted set. A nil ctx is treated as
// context.Background(), a nil tr as an empty trace.
func DetectAtomicityViolationsContext(ctx context.Context, tr *trace.Trace, opt Options) AtomicityReport {
	res, snap := detectKind(ctx, atomicity.Kind, tr, opt)
	rep := AtomicityReport{
		Candidates:  res.COPsChecked,
		Windows:     res.Windows,
		Elapsed:     res.Elapsed,
		Interrupted: res.Cancelled,
		Telemetry:   snap,
	}
	for _, v := range res.Races {
		rep.Violations = append(rep.Violations, AtomicityViolation{
			Description: v.Describe(tr),
			First:       v.First,
			Second:      v.Second,
			Remote:      v.Remote,
			Witness:     v.Witness,
		})
	}
	return rep
}
