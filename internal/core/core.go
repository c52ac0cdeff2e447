// Package core implements the paper's contribution: maximal sound
// predictive race detection with control flow abstraction (Section 3).
//
// For each conflicting operation pair (a, b) surviving the hybrid quick
// check, the detector builds the formula
//
//	Φ = Φ_mhb ∧ Φ_lock ∧ Φ_race,   Φ_race = (O_a = O_b) ∧ ⟨cf⟩(a) ∧ ⟨cf⟩(b)
//
// over per-event order variables and decides it with the DPLL(T) solver in
// internal/smt. ⟨cf⟩(e) reduces the data-abstract feasibility of a race
// access to the concrete feasibility of the last branch event of every
// thread that must happen before e (the set B_e); cf of a branch or write
// conjoins cf of all earlier reads of its thread (local determinism,
// Section 2.3); and cf of a read is the disjunction over candidate writes
// of the same value, each feasible, ordered before the read, and not
// interfered with — built by internal/encode.
//
// The cf definitions are mutually recursive and may be cyclic across
// threads; the encoder allocates one definition literal per event and ties
// the knot with references (see smt.Ref). Cyclic justifications are
// automatically excluded: any read-from cycle alternates O_w < O_r atoms
// with program-order atoms O_r < O_w' and is therefore contradictory in
// the order theory.
//
// Satisfiable ⇒ the COP is a real race, with the model yielding a witness
// schedule (Theorem 3, soundness); unsatisfiable ⇒ no sound detector can
// report it from this trace (Theorem 3, maximality).
//
// The verdict is the query's alone. Each window's partition (races.go)
// classifies every candidate pair once with the sound triage ladder
// (SHB → SyncP, triage.go): a pair a rung proves has a certainly
// satisfiable query, so it is reported without one unless a witness is
// requested, and the rung becomes the race's provenance tier. Every other
// race is SMT-tier.
//
// Every mode and every property analyses windows through one pipeline,
// the Runner: a window (Section 4) is analysed into a race.WindowOutcome
// in whole-trace coordinates — or replayed from a journaled one — and
// merged into the race.Result in window order, one race per
// location-pair signature. Batch, window-parallel, resumed, out-of-core,
// daemon and fleet runs differ only in where the windows come from and
// whether signature verdicts carry from one window to the next
// (SigState). Deadlocks and atomicity violations (Section 2.5) are query
// kinds of the same pipeline (Kind, kind.go): they differ from races only
// in their candidates, guards, witnesses and findings.
//
// The detector is fully instrumented (see internal/telemetry): with a
// collector in Options it reports phase timings, solver counters,
// candidate-funnel tallies and per-window records, and publishes its
// spans to the collector's span recorder. Telemetry never influences
// detection — the reported race set is identical with it on or off — and
// the disabled path reads the clock only for what a report needs.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/encode"
	"repro/internal/faultinject"
	"repro/internal/race"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/telemetry"
	"repro/internal/vc"
	"repro/trace"
)

// Options configures the detector.
type Options struct {
	// WindowSize splits the trace into fixed-size windows (Section 4);
	// ≤ 0 analyses the whole trace at once. The paper's default is 10000.
	WindowSize int
	// SolveTimeout bounds each COP's solver run (the paper defaults to one
	// minute). The convention, shared by every query kind and said: ≤ 0
	// means no wall-clock bound. (rvpredict.Options maps
	// its zero value to the paper's 60 s default, and negatives to 0,
	// before reaching this layer.)
	SolveTimeout time.Duration
	// GlobalBudget, when > 0, bounds the whole run's wall clock. Once
	// exhausted, remaining candidates are skipped (counted in telemetry
	// as budget_exhausted) and the result is flagged BudgetExhausted;
	// completed windows' results are kept.
	GlobalBudget time.Duration
	// Witness requests witness schedules on findings.
	Witness bool
	// NoQuickCheck disables the hybrid lockset/weak-HB prefilter: a
	// quick-check failure is dispatched to the solver, unclassified by the
	// triage ladder, instead of dropped (ablation knob; the result set is
	// unchanged because quick-check failures are unsatisfiable encodings,
	// only the queries grow).
	NoQuickCheck bool
	// NoPruning disables the ≺-based constraint reductions of Section 3.2
	// (ablation knob; results are unchanged, formulas grow).
	NoPruning bool
	// Parallelism > 1 spends that many workers on one of two levels,
	// chosen by the window count alone. Run over a source of two or more
	// windows analyses up to Parallelism windows concurrently, each
	// Isolated (see SigState), and merges their outcomes in window order,
	// so the race.Result — races, witnesses, counters — is the same for
	// every worker count, and equals the reader and fleet report of the
	// same trace. A sequential run may carry signature verdicts across
	// windows instead, which changes COPsChecked, never the races, when a
	// signature recurs. A window analysed alone — the only window of Run's
	// source, or one pushed through RunWindow — solves its signature
	// groups on up to Parallelism pair workers instead (see pairsched.go),
	// which changes no finding, witness or counter of the result.
	Parallelism int
	// Telemetry, when non-nil, accumulates phase timings, solver counters,
	// outcome tallies and per-window records. The collector is safe to
	// share across Parallelism workers, and enabling it changes no
	// detection result.
	Telemetry *telemetry.Collector
	// FaultInjector, when non-nil, injects deterministic faults at the
	// pipeline's instrumentation points (window start, per solve
	// attempt). Test-only: it exists to drive the panic-isolation and
	// solver-abort paths reproducibly; production runs leave it nil.
	FaultInjector *faultinject.Injector
	// OnWindowDone, when non-nil, receives the durable outcome of every
	// window whose analysis reached a final verdict: clean completions
	// and isolated panics alike, but not windows cut short by
	// cancellation or the global budget (a partial outcome must never be
	// replayed as the window's final one), nor journal replays. Outcomes
	// are in whole-trace coordinates and carry the window's own races,
	// before the cross-window signature dedup. The hook is called in
	// window order, on the goroutine that called Run or RunWindow. It is
	// the attachment point of the durable window journal
	// (internal/journal), and, like ResumeWindows, applies to race
	// detection only (NewRunner).
	OnWindowDone func(race.WindowOutcome)
	// ResumeWindows maps window index → previously journaled outcome. A
	// window present in the map is not analysed: its outcome is merged
	// exactly as if the window had just completed — races (and
	// witnesses), failures, counter deltas and the telemetry window
	// record — and tallied as windows_replayed. Outcomes must come from a
	// run over the same trace with result-affecting options unchanged
	// (the journal's header fingerprint enforces this).
	ResumeWindows map[int]race.WindowOutcome
}

// Detector is the paper's maximal race detector ("RV" in Table 1).
type Detector struct {
	opt Options
}

// New returns a detector with the given options.
func New(opt Options) *Detector { return &Detector{opt: opt} }

// Name implements race.Detector.
func (*Detector) Name() string { return "RV" }

// Detect runs maximal race detection over tr.
func (d *Detector) Detect(tr *trace.Trace) race.Result {
	return d.DetectContext(context.Background(), tr)
}

// DetectContext runs maximal race detection over tr under ctx: a Runner
// carrying signature verdicts across tr's windows (see detect). A nil
// ctx is treated as context.Background().
func (d *Detector) DetectContext(ctx context.Context, tr *trace.Trace) race.Result {
	return NewRunner(d.opt, Carried).detect(ctx, tr)
}

// DetectKind checks kind k over tr's windows under ctx, like
// Detector.DetectContext does for races. A nil ctx is treated as
// context.Background().
func DetectKind[C any, S comparable, F any](ctx context.Context, k Kind[C, S, F], opt Options, tr *trace.Trace) race.ResultOf[F] {
	return NewKindRunner(k, opt, Carried).detect(ctx, tr)
}

// detect runs tr's windows through r in one run span whose duration is
// the result's Elapsed. The context is polled between windows, between
// candidates, and — via the cooperative cancel hook — inside the CDCL
// conflict loop, so a run can be stopped mid-solve. The partial result
// is always well-formed: it covers every window completed before the
// cancel and is flagged Cancelled. Windows counts every window of tr,
// analysed or not.
func (r *KindRunner[C, S, F]) detect(ctx context.Context, tr *trace.Trace) race.ResultOf[F] {
	run := r.opt.Telemetry.BeginRun()
	r.Run(ctx, func(f func(w *trace.Trace, widx, offset int) error) error {
		return race.EachWindow(tr, r.opt.WindowSize, f)
	})
	res := r.Result()
	res.Windows = race.WindowCount(tr.Len(), r.opt.WindowSize)
	res.Elapsed = run.End()
	return res
}

// solveDeadline combines a per-pair timeout with the run's global
// deadline; the zero time means unbounded.
func solveDeadline(timeout time.Duration, global time.Time) time.Time {
	var dl time.Time
	if timeout > 0 {
		dl = time.Now().Add(timeout)
	}
	if !global.IsZero() && (dl.IsZero() || global.Before(dl)) {
		dl = global
	}
	return dl
}

// fireFault crosses a fault-injection point, scoped and unscoped (see
// faultinject.Scoped): sequential tests script the global hit order,
// parallel tests target one window's deterministic local order.
func (r *KindRunner[C, S, F]) fireFault(p faultinject.Point, widx int) faultinject.Fault {
	in := r.opt.FaultInjector
	if in == nil {
		return faultinject.FaultNone
	}
	if f := in.MaybePanic(p); f != faultinject.FaultNone {
		return f
	}
	return in.MaybePanic(faultinject.Scoped(p, widx))
}

// windowFailure builds the record of one isolated window-worker panic.
func windowFailure(win, offset, events int, r any) race.WindowFailure {
	buf := make([]byte, 16<<10)
	buf = buf[:runtime.Stack(buf, false)]
	return race.WindowFailure{
		Window:     win,
		Offset:     offset,
		Events:     events,
		PanicValue: fmt.Sprint(r),
		Stack:      string(buf),
	}
}

// SigState says what signature state a Runner carries from one window to
// the next.
type SigState int

const (
	// Isolated analyses every window with empty signature state, so a
	// window's outcome depends only on its own content, never on which
	// other windows the process analysed. That is what lets the reader
	// path, fleet workers, the fleet's final merge and Parallelism > 1
	// analyse any subset of the windows, in any order, and still merge one
	// canonical report.
	Isolated SigState = iota
	// Carried skips, in each window, the signatures earlier windows proved
	// racy: fewer solver queries when a signature recurs, the same races.
	// It needs the windows in trace order on one worker, so Run analyses
	// Isolated under Parallelism > 1. A sequential in-memory run and a
	// daemon session carry.
	Carried
)

// WindowStatus classifies how a Runner disposed of one window.
type WindowStatus int

const (
	// WindowAnalyzed: the window ran to a final verdict (clean completion
	// or an isolated panic failure); its outcome is durable and was
	// delivered to OnWindowDone.
	WindowAnalyzed WindowStatus = iota
	// WindowReplayed: the window's journaled outcome from ResumeWindows
	// was merged without re-analysis (and without re-firing the hook).
	WindowReplayed
	// WindowCut: the window was cut short by cancellation or the global
	// budget; the partial outcome is not a final verdict and must not be
	// journaled or replayed.
	WindowCut
)

// KindRunner is the window pipeline every property and every mode goes
// through: a window is analysed (or, when journaled, replayed) into a
// race.OutcomeOf[F], and merge folds the outcome into one
// race.ResultOf[F]. Run pulls windows from a source, sequentially or on
// Parallelism workers; RunWindow takes them pushed one at a time (daemon
// sessions and fleet workers). The pipeline calls its Kind's hooks and
// never asks which kind it serves. A KindRunner is not safe for
// concurrent use.
type KindRunner[C any, S comparable, F any] struct {
	opt   Options
	kind  Kind[C, S, F]
	state SigState
	// timed forces per-window wall-clock measurement even without
	// telemetry or a completion hook: RunWindow's callers consume the
	// outcome's ElapsedNS directly. Run leaves it off, so an
	// uninstrumented run performs no clock reads.
	timed bool
	// deadline is the global budget's expiry, set by Run; the zero time
	// means unbounded, as it always is for RunWindow.
	deadline time.Time
	res      race.ResultOf[F]
	seen     map[S]bool // signatures merged so far
	// onDone and resume are the journal's attachment points, which
	// NewRunner wires from Options.OnWindowDone and ResumeWindows:
	// resume returns window widx's journaled outcome, its findings
	// marked replayed, if there is one.
	onDone func(race.OutcomeOf[F])
	resume func(widx int) (race.OutcomeOf[F], bool)
}

// Runner is the race detector's pipeline.
type Runner = KindRunner[race.COP, race.Signature, race.Race]

// NewKindRunner returns a runner checking kind k with the given options
// and signature state. Options.OnWindowDone and ResumeWindows are
// journal plumbing and apply to race detection only (NewRunner).
func NewKindRunner[C any, S comparable, F any](k Kind[C, S, F], opt Options, state SigState) *KindRunner[C, S, F] {
	return &KindRunner[C, S, F]{
		opt:   opt,
		kind:  k,
		state: state,
		seen:  make(map[S]bool),
	}
}

// NewRunner returns a race-detection runner with the given options and
// signature state.
func NewRunner(opt Options, state SigState) *Runner {
	r := NewKindRunner[race.COP, race.Signature, race.Race](raceKind{opt: opt}, opt, state)
	r.onDone = opt.OnWindowDone
	r.resume = func(widx int) (race.WindowOutcome, bool) {
		out, ok := opt.ResumeWindows[widx]
		if ok && len(out.Races) > 0 {
			out.Races = append([]race.Race(nil), out.Races...)
			for i := range out.Races {
				out.Races[i].Prov.Replayed = true
			}
		}
		return out, ok
	}
	return r
}

// errStopWindows stops a source's iteration at the first cut window.
var errStopWindows = errors.New("core: stop window iteration")

// Run pulls windows from source, which calls its argument once per
// window in trace order with the window's trace, index and whole-trace
// offset (as race.EachWindow and tracev2's readers do), analyses them
// and merges their outcomes in the order the source yielded them. With
// Parallelism ≤ 1 one window is analysed at a time under the runner's
// SigState; with more, up to Parallelism windows are analysed
// concurrently, each Isolated, so the merged result does not depend on
// the worker count; a source that yields one window only gets it
// analysed alone (see runParallel). The first window cut short by cancellation or the
// global budget stops the source. Run returns the source's own error,
// if any; the result so far stays in Result.
func (r *KindRunner[C, S, F]) Run(ctx context.Context, source func(func(w *trace.Trace, widx, offset int) error) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if b := r.opt.GlobalBudget; b > 0 {
		r.deadline = time.Now().Add(b)
	}
	var err error
	if r.opt.Parallelism > 1 {
		err = r.runParallel(ctx, source)
	} else {
		err = source(func(w *trace.Trace, widx, offset int) error {
			if r.step(ctx, w, widx, offset, false).status == WindowCut {
				return errStopWindows
			}
			return nil
		})
	}
	if ctx.Err() != nil {
		r.res.Cancelled = true
	}
	if err == errStopWindows {
		err = nil
	}
	return err
}

// runParallel analyses up to Parallelism windows at a time, each
// Isolated, and merges them in source order on the calling goroutine as
// soon as every earlier window has merged. It holds the first window
// until a second one arrives: if the source ends first, that window is
// analysed alone, its pairs on Parallelism workers, since window workers
// would leave all but one of them idle.
func (r *KindRunner[C, S, F]) runParallel(ctx context.Context, source func(func(w *trace.Trace, widx, offset int) error) error) error {
	var (
		pending []chan windowResult[F] // windows in flight, in source order
		slots   = make(chan struct{}, r.opt.Parallelism)
		cut     atomic.Bool
		n       int // windows the source yielded
		first   struct {
			w            *trace.Trace
			widx, offset int
		}
	)
	// mergeDone merges the finished windows at the head of pending,
	// waiting for each one when wait is set.
	mergeDone := func(wait bool) {
		for len(pending) > 0 {
			var wr windowResult[F]
			if wait {
				wr = <-pending[0]
			} else {
				select {
				case wr = <-pending[0]:
				default:
					return
				}
			}
			pending = pending[1:]
			r.merge(wr)
		}
	}
	start := func(w *trace.Trace, widx, offset int) error {
		mergeDone(false)
		if cut.Load() {
			return errStopWindows
		}
		slots <- struct{}{}
		done := make(chan windowResult[F], 1)
		pending = append(pending, done)
		go func() {
			wr := r.analyze(ctx, w, widx, offset, false, nil, 1)
			if wr.status == WindowCut {
				cut.Store(true)
			}
			<-slots
			done <- wr
		}()
		return nil
	}
	err := source(func(w *trace.Trace, widx, offset int) error {
		n++
		switch n {
		case 1:
			first.w, first.widx, first.offset = w, widx, offset
			return nil
		case 2:
			if err := start(first.w, first.widx, first.offset); err != nil {
				return err
			}
		}
		return start(w, widx, offset)
	})
	if n == 1 {
		r.step(ctx, first.w, first.widx, first.offset, false)
	}
	mergeDone(true)
	return err
}

// RunWindow analyses one pushed window whose first event sits at the
// given whole-trace offset and merges it. Windows must arrive in trace
// order; a Carried runner needs every window, with consecutive indices.
// The outcome is returned in whole-trace
// coordinates for every status: fresh verdicts (WindowAnalyzed, also
// delivered to OnWindowDone), journal replays (WindowReplayed, races
// stamped Replayed, hook not re-fired) and cuts (WindowCut, partial,
// must not be persisted). GlobalBudget does not apply; Parallelism
// does, as the window's pair workers. With degraded set the SMT
// tier is shed — see analyze.
func (r *KindRunner[C, S, F]) RunWindow(ctx context.Context, w *trace.Trace, widx, offset int, degraded bool) (race.OutcomeOf[F], WindowStatus) {
	if ctx == nil {
		ctx = context.Background()
	}
	r.timed = true
	wr := r.step(ctx, w, widx, offset, degraded)
	return wr.out, wr.status
}

// step analyses one window alone, under the runner's SigState and with
// Parallelism pair workers, and merges it.
func (r *KindRunner[C, S, F]) step(ctx context.Context, w *trace.Trace, widx, offset int, degraded bool) windowResult[F] {
	var seen map[S]bool
	if r.state == Carried {
		seen = r.seen
	}
	wr := r.analyze(ctx, w, widx, offset, degraded, seen, r.opt.Parallelism)
	r.merge(wr)
	return wr
}

// Result returns the result merged so far. Windows counts the windows
// that reached a verdict or were replayed; Elapsed is left to the caller,
// which owns the run's span.
func (r *KindRunner[C, S, F]) Result() race.ResultOf[F] {
	res := r.res
	if len(res.Races) > 0 {
		res.Races = append([]F(nil), res.Races...)
	}
	return res
}

// windowResult is one window's analysis: its outcome in whole-trace
// coordinates, how the window was disposed of, and, for a cut window,
// which limit cut it.
type windowResult[F any] struct {
	out                   race.OutcomeOf[F]
	status                WindowStatus
	cancelled, budgetGone bool
}

// merge folds one window into the run's result, and is the only place
// the result grows. Findings dedup by signature, the earliest merged
// window winning (windows merge in trace order, a window's findings in
// canonical group order); counters and failures add up. A cut window
// still contributes the findings it made before the cut, as the
// partial-report contract requires, but only a window that reached a
// verdict is counted, and only a fresh verdict goes to onDone.
func (r *KindRunner[C, S, F]) merge(wr windowResult[F]) {
	res, out := &r.res, wr.out
	res.COPsChecked += out.COPsChecked
	res.SolverAborts += out.SolverAborts
	for _, x := range out.Races {
		if sig := r.kind.Sig(x); !r.seen[sig] {
			r.seen[sig] = true
			res.Races = append(res.Races, x)
		}
	}
	for range out.Failures {
		r.opt.Telemetry.Add(telemetry.WindowFailures, 1)
	}
	res.Failures = append(res.Failures, out.Failures...)
	res.Cancelled = res.Cancelled || wr.cancelled
	res.BudgetExhausted = res.BudgetExhausted || wr.budgetGone
	if wr.status == WindowCut {
		return
	}
	res.Windows++
	if r.onDone != nil && wr.status == WindowAnalyzed {
		r.onDone(out)
	}
}

// analyze runs one window, whose first event sits at the given
// whole-trace offset, to a verdict, its signature groups solved on up to
// workers pair workers; seen holds the signatures to skip (nil when
// Isolated). A journaled window is replayed instead. With
// degraded set, the SMT tier is shed: only instances a sound fast path
// proved are reported (flagged Degraded in provenance and in the
// outcome), the other instances are shed and counted
// in PairsShed, and no solver query is issued — the verdict stays sound
// but is no longer maximal.
func (r *KindRunner[C, S, F]) analyze(ctx context.Context, w *trace.Trace, widx, offset int, degraded bool, seen map[S]bool, workers int) (wr windowResult[F]) {
	col := r.opt.Telemetry
	// Resume: a journaled window is replayed before the cancellation and
	// budget gates — replay is free and its results are already durable.
	// No solver query is issued, and telemetry records the window as
	// replayed.
	if r.resume != nil {
		if prev, ok := r.resume(widx); ok {
			wspan := col.BeginWindow(prev.Window, prev.Offset, prev.Events, false)
			col.Add(telemetry.JournalWindowsReplayed, 1)
			wspan.EndReplayed(prev.Candidates, prev.Solved, len(prev.Races), prev.ElapsedNS)
			return windowResult[F]{out: prev, status: WindowReplayed}
		}
	}
	out := &wr.out
	*out = race.OutcomeOf[F]{Window: widx, Offset: offset, Events: w.Len()}
	wr.status = WindowCut
	if ctx.Err() != nil {
		wr.cancelled = true
		return wr
	}
	if !r.deadline.IsZero() && time.Now().After(r.deadline) {
		wr.budgetGone = true
		return wr
	}
	// Panic isolation: an encoder or solver bug in this window — on
	// the coordinator or on any pair worker — is recovered here and
	// recorded as a WindowFailure, and the run continues with every
	// other window's results intact. The failed window contributes no
	// results: its findings are collected only after the scheduler
	// completes, so the drop is all-or-nothing and deterministic. The
	// failure is itself a final, durable verdict — the completion hook
	// records it so a resumed run reproduces this run's report exactly
	// instead of silently retrying the window.
	defer func() {
		if p := recover(); p != nil {
			wr = windowResult[F]{
				out: race.OutcomeOf[F]{
					Window:   widx,
					Offset:   offset,
					Events:   w.Len(),
					Failures: []race.WindowFailure{windowFailure(widx, offset, w.Len(), p)},
				},
				status: WindowAnalyzed,
			}
		}
	}()
	r.fireFault(faultinject.PointWindow, widx)
	// The window's span: the journal needs its elapsed time even without
	// telemetry. The deferred End runs before the panic-isolation recover
	// above (LIFO), so a failed window still balances the in-flight gauge
	// and leaves its span on the timeline, but no window record.
	wspan := col.BeginWindow(widx, offset, w.Len(), r.onDone != nil || r.timed)
	defer wspan.End()

	// The kind enumerates, prefilters and groups the window's candidates
	// by signature; the pair scheduler then solves the groups (in
	// parallel when workers > 1) and the results are collected
	// below in canonical group order, so the window's outcome is
	// deterministic.
	var fn Funnel
	groups, mhb := r.kind.Partition(wspan, w, seen, &fn)
	fn.publish(col)
	col.Add(telemetry.PairGroups, int64(len(groups)))
	out.Candidates = fn.Enumerated
	wc := &windowCtx{
		ctx: ctx, w: w, mhb: mhb, widx: widx, offset: offset,
		globalDeadline: r.deadline, cancel: func() bool { return ctx.Err() != nil },
		span: wspan,
	}
	switch {
	case len(groups) > 0 && ctx.Err() == nil && degraded:
		// Graceful degradation: no solver is constructed and no query
		// issued. Each group's fast-path-proved instance is reported
		// exactly as the fast path would have (same instance, same
		// canonical order, no witness), the rest of the group is shed.
		// The fast path is sound, so a degraded window never reports a
		// false finding — it may only miss SMT-only ones.
		for _, g := range groups {
			if g.Proved < 0 {
				out.PairsShed += len(g.Cands)
				continue
			}
			out.PairsShed += len(g.Cands) - 1
			out.COPsChecked++
			out.Races = append(out.Races, r.kind.Entry(g, Hit{K: g.Proved, Window: widx, Offset: offset, Degraded: true}))
		}
	case len(groups) > 0 && ctx.Err() == nil:
		for _, gr := range r.solveGroups(wc, groups, workers) {
			if gr == nil {
				continue
			}
			out.COPsChecked += gr.solved
			out.SolverAborts += gr.aborts
			wr.cancelled = wr.cancelled || gr.cancelled
			wr.budgetGone = wr.budgetGone || gr.budgetGone
			if gr.found {
				out.Races = append(out.Races, gr.entry)
			}
		}
	}
	out.Solved = out.COPsChecked
	if mhb != nil {
		// Clean window completion: return the clock slab to the shared
		// pool. The panic path above skips this deliberately — a worker
		// could still alias the slab — and lets the GC reclaim it.
		mhb.Release()
	}
	if ctx.Err() != nil {
		wr.cancelled = true
	}
	final := !wr.cancelled && !wr.budgetGone
	// Counted per completed degraded window — candidates or not — so the
	// gauge always agrees with Report.DegradedWindows.
	if degraded && final {
		col.Add(telemetry.DegradedWindows, 1)
		out.Degraded = true
	}
	out.ElapsedNS = int64(wspan.EndWindow(fn.Enumerated, out.Solved, len(out.Races)))
	if final {
		wr.status = WindowAnalyzed
	}
	return wr
}

// windowSolver is the long-lived solver of one analysis window: Φ_mhb and
// the kind's base (Φ_lock for races) are asserted once, and each
// candidate adds only its guard-conditional constraints, decided with the
// guard assumed (sat.SolveAssuming). The pair scheduler checkpoints the
// solver after the base encoding (buildReplica) and rolls back between
// signature groups, so every group — on any worker — is solved from the
// identical canonical state.
type windowSolver[C any] struct {
	s   *smt.Solver
	enc *encode.Encoder
	cf  *encode.CF
	q   Queries[C]
	bad bool // window constraints themselves unsatisfiable

	// ck is the canonical base state (base constraints + warmed cf
	// definitions), marked on the cf memo too; dirty tracks whether the
	// solver has diverged from it since the last rollback.
	ck    *smt.Checkpoint
	dirty bool
}

// rollback restores the canonical base if anything was encoded or solved
// since, the cf definitions made after the checkpoint included.
func (ws *windowSolver[C]) rollback(col *telemetry.Collector, parent *telemetry.Span) {
	if !ws.dirty {
		return
	}
	span := parent.Child(telemetry.PhaseRollback, "rollback")
	ws.s.Rollback(ws.ck)
	ws.cf.Truncate()
	span.End()
	ws.dirty = false
	col.Add(telemetry.PairRollbacks, 1)
}

// spareSolvers holds finished window solvers, Reset, for later windows of
// any runner, so a window does not regrow a solver's memory from empty.
// It is one list for the process and keeps at most GOMAXPROCS solvers,
// the most windows a daemon solves at once by default, so the spares do
// not grow with the runners: an idle daemon session holds none of its own.
var spareSolvers struct {
	sync.Mutex
	list []*smt.Solver
}

// newWindowSolver encodes a window's base on a spare solver, or on a new
// one if there is none.
func (r *KindRunner[C, S, F]) newWindowSolver(w *trace.Trace, mhb *vc.MHB) *windowSolver[C] {
	var s *smt.Solver
	spareSolvers.Lock()
	if n := len(spareSolvers.list); n > 0 {
		s, spareSolvers.list = spareSolvers.list[n-1], spareSolvers.list[:n-1]
	}
	spareSolvers.Unlock()
	if s == nil {
		s = smt.NewSolver()
	}
	enc := encode.New(w, s, mhb, -1, -1)
	enc.Pruning = !r.opt.NoPruning
	ws := &windowSolver[C]{s: s, enc: enc, cf: encode.NewCF(enc, s)}
	if err := enc.AssertMHB(); err != nil {
		ws.bad = true
	}
	q, err := r.kind.Base(s, enc, ws.cf)
	ws.q = q
	if err != nil {
		ws.bad = true
	}
	return ws
}

// releaseSolver Resets a finished window solver, so it holds on to
// nothing of its window but its capacity, and keeps it as a spare if
// there is room.
func releaseSolver(s *smt.Solver) {
	s.Reset()
	spareSolvers.Lock()
	if len(spareSolvers.list) < runtime.GOMAXPROCS(0) {
		spareSolvers.list = append(spareSolvers.list, s)
	}
	spareSolvers.Unlock()
}

// prepare encodes one candidate's guarded query on the shared window
// solver, in an encode span nested in the query's, and returns the guard
// literal to assume. ok is false when the encoding itself proves the
// query impossible (treated as unsat).
func (ws *windowSolver[C]) prepare(c C, query *telemetry.Span) (g sat.Lit, ok bool) {
	if ws.bad {
		return 0, false
	}
	span := query.Child(telemetry.PhaseEncode, "encode")
	defer span.End()
	g = ws.s.NewBoolLit()
	for _, f := range ws.q.Guard(c) {
		if err := ws.s.Implies(g, f); err != nil {
			return 0, false
		}
	}
	return g, true
}

// solve decides one prepared candidate under SolveTimeout, clipped
// against the run's global deadline, in solve and witness spans nested
// in the query's. The deadline is always (re)installed — the solver is
// shared across queries, so a stale deadline from a previous query must
// never leak into this one.
func (r *KindRunner[C, S, F]) solve(ws *windowSolver[C], widx int, c C, g sat.Lit,
	globalDeadline time.Time, query *telemetry.Span) (found bool, witness []int, outcome telemetry.Outcome, qs QueryStats) {
	if f := r.fireFault(faultinject.PointSolve, widx); f == faultinject.FaultTimeout {
		return false, nil, telemetry.OutcomeTimeout, qs
	}
	ws.s.SetDeadline(solveDeadline(r.opt.SolveTimeout, globalDeadline))
	st0 := ws.s.Stats()
	span := query.Child(telemetry.PhaseSolve, "solve")
	verdict := ws.s.SolveAssuming(g)
	span.End()
	switch verdict {
	case sat.Sat:
		st1 := ws.s.Stats()
		qs = QueryStats{
			Decisions:    st1.Decisions - st0.Decisions,
			Propagations: st1.Propagations - st0.Propagations,
			Conflicts:    st1.Conflicts - st0.Conflicts,
		}
		if r.opt.Witness {
			span = query.Child(telemetry.PhaseWitness, "witness")
			witness = ws.q.Witness(c)
			span.End()
		}
		return true, witness, telemetry.OutcomeSat, qs
	case sat.Aborted:
		return false, nil, telemetry.OutcomeOf(ws.s, false, true), qs
	}
	return false, nil, telemetry.OutcomeUnsat, qs
}

func rebase(idxs []int, offset int) []int {
	out := make([]int, len(idxs))
	for i, v := range idxs {
		out[i] = v + offset
	}
	return out
}
