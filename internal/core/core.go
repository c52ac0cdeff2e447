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
// The detector is fully instrumented (see internal/telemetry): with a
// collector and/or tracer in Options it reports phase timings, solver
// counters, candidate-funnel tallies and per-window records. Telemetry
// never influences detection — the reported race set is identical with it
// on or off — and the disabled path performs no clock reads.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
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
	// minute). The convention, unified across core, said, deadlock and
	// atomicity: ≤ 0 means no wall-clock bound. (rvpredict.Options maps
	// its zero value to the paper's 60 s default, and negatives to 0,
	// before reaching this layer.)
	SolveTimeout time.Duration
	// FirstPassTimeout, when > 0, enables the adaptive two-pass
	// scheduler: every pair is first solved under this cheap budget, and
	// pairs that time out are deferred and retried afterwards with
	// budgets escalating geometrically up to SolveTimeout (and bounded by
	// the remaining GlobalBudget). Easy pairs never starve behind hard
	// ones, and a pair the single-pass policy would have abandoned gets a
	// second chance. It has no effect when ≥ SolveTimeout > 0.
	FirstPassTimeout time.Duration
	// GlobalBudget, when > 0, bounds the whole run's wall clock. Once
	// exhausted, remaining candidates are skipped (counted in telemetry
	// as budget_exhausted) and the result is flagged BudgetExhausted;
	// completed windows' results are kept.
	GlobalBudget time.Duration
	// MaxConflicts bounds each COP's CDCL search; 0 means unbounded.
	MaxConflicts int64
	// Witness requests witness schedules on detected races.
	Witness bool
	// NoQuickCheck disables the hybrid lockset/weak-HB prefilter, sending
	// every COP to the solver (ablation knob; the result set is unchanged
	// because quick-check failures are unsatisfiable encodings).
	NoQuickCheck bool
	// NoPruning disables the ≺-based constraint reductions of Section 3.2
	// (ablation knob; results are unchanged, formulas grow).
	NoPruning bool
	// TriageLevel selects how far up the sound triage ladder (triage.go)
	// a quick-check survivor may be confirmed as a race without a solver
	// query:
	//
	//	"off"   — no triage: every survivor goes to the pair scheduler
	//	"shb"   — the schedulable-happens-before clock rung only
	//	"syncp" — plus the sync-preserving witness check (internal/syncp);
	//	          the default ("" means "syncp")
	//
	// Every level yields a bit-identical race.Result — a rung fires only
	// where the SMT query is guaranteed satisfiable, so the level only
	// decides which pairs skip the solver — absent real wall-clock solver
	// timeouts, which are inherently timing-dependent. It is a pure
	// performance knob, excluded from the journal fingerprint. "off" and
	// "shb" still run the full ladder, untallied beyond their own rungs,
	// because its verdicts choose the pair scheduler's warm prefix
	// (pairsched.go): the base encoding, and with it every solver query's
	// search, is the same at every level.
	// Unrecognised values fall back to the default; validation with typed
	// errors lives in the public rvpredict layer. Triage is also inactive
	// when NoQuickCheck is set (it shares the quick check's locksets and
	// MHB pass).
	TriageLevel string
	// MaxAttemptsPerSig bounds how many COPs of one signature are solved
	// before giving up on that signature (0 = unlimited, the paper's
	// behaviour).
	MaxAttemptsPerSig int
	// MergeRaceVars uses the paper's variable-merging race encoding
	// (O_a := O_b) instead of the default explicit adjacency
	// |O_a − O_b| = 1 (ablation knob; merging degenerates the atoms
	// between the two racing events, see encode.Encoder).
	MergeRaceVars bool
	// Parallelism > 1 analyses windows concurrently with that many
	// workers. The reported signature set always equals the sequential
	// run's; which COP instance represents a signature (and COPsChecked)
	// may vary between runs, because workers share signature verdicts to
	// skip redundant solving. MaxAttemptsPerSig is enforced per window in
	// parallel mode.
	Parallelism int
	// PairParallelism > 1 solves the candidate pairs *inside* each window
	// concurrently with that many workers, each owning a replica of the
	// window encoding fed from a shared queue of signature groups. Unlike
	// Parallelism, pair-level parallelism is fully deterministic: the
	// prefilters and signature dedup run before dispatch, every group is
	// solved from the same checkpointed base encoding, and results merge
	// in canonical order, so the race.Result (races, witnesses, counters)
	// is bit-identical to the PairParallelism ≤ 1 run — absent real
	// wall-clock solver timeouts, which are inherently timing-dependent.
	// The total number of concurrent solving workers across both levels is
	// bounded by max(Parallelism, PairParallelism), and the workers per
	// window are additionally capped at GOMAXPROCS — pair solving is
	// CPU-bound, so a worker beyond the core count could never repay its
	// replica's construction cost.
	PairParallelism int
	// BranchDepWindow, when > 0, assumes each branch and write depends
	// only on the last K reads of its thread instead of its entire read
	// history — the weaker-axiom variant sketched in the paper's
	// Section 2.3 Discussion ("a preceding window of events for each write
	// and branch in which the read values matter"). It is sound only for
	// programs whose branch conditions genuinely use bounded read history;
	// with it the detector may report additional races that the
	// conservative full-history axioms cannot justify. 0 (default) keeps
	// the paper's conservative semantics.
	BranchDepWindow int
	// Telemetry, when non-nil, accumulates phase timings, solver counters,
	// outcome tallies and per-window records. The collector is safe to
	// share across Parallelism workers, and enabling it changes no
	// detection result.
	Telemetry *telemetry.Collector
	// Tracer, when non-nil, receives live progress callbacks (window
	// lifecycle, per-COP verdicts). With Parallelism > 1 the callbacks
	// arrive concurrently; implementations must serialise internally.
	Tracer telemetry.Tracer
	// FaultInjector, when non-nil, injects deterministic faults at the
	// pipeline's instrumentation points (window start, per solve
	// attempt). Test-only: it exists to drive the panic-isolation and
	// retry recovery paths reproducibly; production runs leave it nil.
	FaultInjector *faultinject.Injector
	// OnWindowDone, when non-nil, receives the durable outcome of every
	// window whose analysis reached a final verdict: clean completions
	// and isolated panics alike, but not windows cut short by
	// cancellation or the global budget (a partial outcome must never be
	// replayed as the window's final one). Outcomes are in whole-trace
	// coordinates. With Parallelism > 1 the hook is invoked concurrently
	// from window workers; implementations must serialise internally. It
	// is the attachment point of the durable window journal
	// (internal/journal).
	OnWindowDone func(race.WindowOutcome)
	// ResumeWindows maps window index → previously journaled outcome. A
	// window present in the map is not analysed: its outcome is replayed
	// into the canonical merge exactly as if the window had just
	// completed — races (and witnesses), failures, counter deltas,
	// signature verdicts and the telemetry window record — and tallied
	// as windows_replayed. Outcomes must come from a run over the same
	// trace with result-affecting options unchanged (the journal's
	// header fingerprint enforces this). MaxAttemptsPerSig > 0 is not
	// supported together with ResumeWindows: per-signature attempt
	// tallies are not part of the journaled outcome.
	ResumeWindows map[int]race.WindowOutcome
}

// Detector is the paper's maximal race detector ("RV" in Table 1).
type Detector struct {
	opt Options

	// skipSig/foundSig, when set, share signature verdicts across the
	// parallel window workers (see detectParallel).
	skipSig  func(race.Signature) bool
	foundSig func(race.Signature)

	// winBase and traceOffset localise telemetry when this detector
	// analyses one slice of a larger trace (parallel mode): winBase is the
	// global index of the first window, traceOffset the slice's first
	// event index in the full trace.
	winBase     int
	traceOffset int

	// budget is the run-wide worker budget, capacity
	// max(Parallelism, PairParallelism, 1): window coordinators
	// block-acquire a slot, extra pair workers spawn only when a slot is
	// free (see solveGroups). Created per DetectContext call and shared by
	// the per-window detector copies.
	budget chan struct{}
}

// New returns a detector with the given options.
func New(opt Options) *Detector { return &Detector{opt: opt} }

// Name implements race.Detector.
func (*Detector) Name() string { return "RV" }

// Detect runs maximal race detection over tr.
func (d *Detector) Detect(tr *trace.Trace) race.Result {
	return d.DetectContext(context.Background(), tr)
}

// DetectContext runs maximal race detection over tr under ctx. The
// context is polled between windows, between pairs, and — via the
// cooperative cancel hook — inside the CDCL conflict loop, so a run can
// be stopped mid-solve. The partial Result is always well-formed: it
// covers every window completed before the cancel and is flagged
// Cancelled. A nil ctx is treated as context.Background().
func (d *Detector) DetectContext(ctx context.Context, tr *trace.Trace) race.Result {
	if ctx == nil {
		ctx = context.Background()
	}
	var globalDeadline time.Time
	if d.opt.GlobalBudget > 0 {
		globalDeadline = time.Now().Add(d.opt.GlobalBudget)
	}
	workers := d.opt.Parallelism
	if d.opt.PairParallelism > workers {
		workers = d.opt.PairParallelism
	}
	if workers < 1 {
		workers = 1
	}
	d.budget = make(chan struct{}, workers)
	if d.opt.Parallelism > 1 {
		return d.detectParallel(ctx, globalDeadline, tr)
	}
	return d.detectWindows(ctx, globalDeadline, tr)
}

// Retry-policy constants of the two-pass scheduler: each retry multiplies
// the previous budget by retryEscalation, and a pair is abandoned after
// maxRetryAttempts escalations (a backstop for unbounded SolveTimeout).
const (
	retryEscalation  = 4
	maxRetryAttempts = 6
)

// twoPass reports whether the adaptive two-pass scheduler is active:
// FirstPassTimeout set and actually cheaper than the final budget.
func (d *Detector) twoPass() bool {
	fp := d.opt.FirstPassTimeout
	if fp <= 0 {
		return false
	}
	return d.opt.SolveTimeout <= 0 || fp < d.opt.SolveTimeout
}

// passOneTimeout is the per-pair budget of the first solving pass.
func (d *Detector) passOneTimeout() time.Duration {
	if d.twoPass() {
		return d.opt.FirstPassTimeout
	}
	if d.opt.SolveTimeout > 0 {
		return d.opt.SolveTimeout
	}
	return 0
}

// solveDeadline combines a per-attempt timeout with the run's global
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
func (d *Detector) fireFault(p faultinject.Point, widx int) faultinject.Fault {
	in := d.opt.FaultInjector
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

// detectWindows is the window-sequential detection driver: one window at a
// time, pairs scheduled per window by the pair scheduler (pairsched.go),
// each window isolated against worker panics.
func (d *Detector) detectWindows(ctx context.Context, globalDeadline time.Time, tr *trace.Trace) race.Result {
	start := time.Now()
	run := d.newWindowRun()
	localWin := 0
	run.res.Windows = race.Windows(tr, d.opt.WindowSize, func(w *trace.Trace, offset int) {
		widx := d.winBase + localWin
		localWin++
		run.analyze(ctx, globalDeadline, w, widx, offset, false)
	})
	if ctx.Err() != nil {
		run.res.Cancelled = true
	}
	run.res.Elapsed = time.Since(start)
	return run.res
}

// windowRun threads the sequential driver's cross-window state: the
// accumulated result plus the signature seen/attempt maps that make later
// windows' partitions depend on earlier verdicts. detectWindows drives it
// over race.Windows; the streaming session layer (internal/stream) drives
// it one externally-materialised window at a time through WindowRunner.
type windowRun struct {
	d        *Detector
	res      race.Result
	seen     map[race.Signature]bool
	attempts map[race.Signature]int
	// timed forces per-window wall-clock measurement (and outcome
	// construction) even without telemetry or a completion hook — the
	// streaming runner consumes the outcome directly. The batch driver
	// leaves it false so an untelemetered run still performs no clock
	// reads.
	timed bool
}

func (d *Detector) newWindowRun() *windowRun {
	return &windowRun{
		d:        d,
		seen:     make(map[race.Signature]bool),
		attempts: make(map[race.Signature]int),
	}
}

// WindowStatus classifies how analyze disposed of one window.
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

// analyze runs one window to a verdict and merges it into the
// accumulated result — the body of the sequential detection loop. With
// degraded set, the SMT tier is shed: only pairs the sound vector-clock
// triage tier already confirmed are reported (flagged Degraded in
// provenance and in the outcome), unconfirmed pairs are shed and counted
// in PairsShed, and no solver query is issued — the verdict stays sound
// but is no longer maximal.
func (wr *windowRun) analyze(ctx context.Context, globalDeadline time.Time, w *trace.Trace, widx, offset int, degraded bool) (out race.WindowOutcome, status WindowStatus) {
	d := wr.d
	col := d.opt.Telemetry
	tracer := d.opt.Tracer
	hook := d.opt.OnWindowDone
	instrumented := col != nil || tracer != nil || hook != nil || wr.timed
	res := &wr.res
	seen, attempts := wr.seen, wr.attempts
	cancel := func() bool { return ctx.Err() != nil }
	// Resume: a journaled window's outcome is merged without
	// re-analysis, before the cancellation and budget gates — replay
	// is free and its results are already durable, so even a run
	// interrupted immediately still reflects them.
	if prev, ok := d.opt.ResumeWindows[widx]; ok {
		d.replayWindow(res, prev, seen)
		return prev, WindowReplayed
	}
	if ctx.Err() != nil {
		res.Cancelled = true
		return out, WindowCut
	}
	if !globalDeadline.IsZero() && time.Now().After(globalDeadline) {
		res.BudgetExhausted = true
		return out, WindowCut
	}
	status = WindowCut
	// Panic isolation: an encoder or solver bug in this window — on
	// the coordinator or on any pair worker — is recovered here,
	// recorded as a WindowFailure, and the run continues with every
	// other window's results intact. The failed window contributes no
	// results: its races merge only after the scheduler completes, so
	// the drop is all-or-nothing and deterministic. The failure is
	// itself a final, durable verdict — the completion hook records
	// it so a resumed run reproduces this run's report exactly
	// instead of silently retrying the window.
	defer func() {
		if r := recover(); r != nil {
			f := windowFailure(widx, d.traceOffset+offset, w.Len(), r)
			res.Failures = append(res.Failures, f)
			col.CountWindowFailure()
			out = race.WindowOutcome{
				Window:   widx,
				Offset:   d.traceOffset + offset,
				Events:   w.Len(),
				Failures: []race.WindowFailure{f},
			}
			status = WindowAnalyzed
			if hook != nil {
				hook(out)
			}
		}
	}()
	d.fireFault(faultinject.PointWindow, widx)
	// Live gauge + timeline span for the window. The deferred closes
	// run before the panic-isolation recover above (LIFO), so a
	// failed window still leaves the gauge balanced and its span on
	// the timeline.
	col.CountWindowStarted()
	defer col.CountWindowFinished()
	lane := telemetry.WindowLane(widx)
	wspan := col.BeginSpan("window", lane, col.SpanRoot())
	defer wspan.End()
	if tracer != nil {
		tracer.WindowStart(widx, w.Len())
	}
	var wstart time.Time
	if instrumented {
		wstart = time.Now()
	}
	racesBefore := len(res.Races)
	solved := 0
	wChecked, wAborts, wRetried, wShed := 0, 0, 0, 0
	final := true // no cancellation/budget cut — the outcome is replayable

	span := col.StartPhase(telemetry.PhaseEnumerate)
	esp := col.BeginSpan("enumerate", lane, wspan.ID())
	cops := race.EnumerateCOPs(w)
	esp.End()
	span.End()
	col.CountEnumerated(len(cops))

	// Prefilters and signature grouping run up front; the pair
	// scheduler then solves the groups (in parallel when
	// PairParallelism > 1) and the results merge below in canonical
	// group order, so the window's contribution is deterministic.
	psp := col.BeginSpan("mhb+triage", lane, wspan.ID())
	groups, mhb := d.partition(w, cops, seen, attempts)
	psp.End()
	col.CountPairGroups(len(groups))
	switch {
	case len(groups) > 0 && ctx.Err() == nil && degraded:
		// Graceful degradation: no solver is constructed and no query
		// issued. Each group's first triage-confirmed instance is
		// reported exactly as the fast path would have (same COP, same
		// canonical order, no witness), the rest of the group is shed.
		// Confirmations are sound, so a degraded window never reports a
		// false race — it may only miss SMT-only ones.
		var att *ladder
		for _, g := range groups {
			k := g.confirmed
			if k < 0 || (d.skipSig != nil && d.skipSig(g.sig)) {
				wShed += len(g.cops)
				continue
			}
			wShed += len(g.cops) - 1
			seen[g.sig] = true
			if d.foundSig != nil {
				d.foundSig(g.sig)
			}
			res.COPsChecked++
			solved++
			wChecked++
			r := race.Race{
				COP: race.COP{A: g.cops[k].A + offset, B: g.cops[k].B + offset},
				Sig: g.sig,
			}
			if att == nil {
				att = newLadder(w, nil)
			}
			att.stamp(&r, widx, offset)
			r.Prov.Degraded = true
			res.Races = append(res.Races, r)
		}
		if att != nil {
			att.release()
		}
	case len(groups) > 0 && ctx.Err() == nil:
		if mhb == nil {
			// NoQuickCheck runs: partition computed no clocks, but the
			// window encoders still need the MHB pass.
			span = col.StartPhase(telemetry.PhaseMHB)
			msp := col.BeginSpan("mhb", lane, wspan.ID())
			mhb = vc.ComputeMHB(w)
			msp.End()
			span.End()
		}
		wc := &windowCtx{
			ctx: ctx, w: w, mhb: mhb, widx: widx, offset: offset,
			globalDeadline: globalDeadline, cancel: cancel,
			spanParent: wspan.ID(),
		}
		// Provenance attribution is lazy: only windows that report a
		// race pay for the ladder's clock passes.
		var att *ladder
		for i, gr := range d.solveGroups(wc, groups) {
			if gr == nil {
				continue
			}
			g := groups[i]
			res.COPsChecked += gr.solved
			solved += gr.solved
			wChecked += gr.solved
			res.SolverAborts += gr.aborts
			wAborts += gr.aborts
			res.PairsRetried += gr.retried
			wRetried += gr.retried
			attempts[g.sig] = gr.attempts
			if gr.cancelled {
				res.Cancelled = true
				final = false
			}
			if gr.budgetGone {
				res.BudgetExhausted = true
				final = false
			}
			if gr.isRace {
				seen[g.sig] = true
				if d.foundSig != nil {
					d.foundSig(g.sig)
				}
				r := gr.race
				if att == nil {
					att = newLadder(w, nil)
				}
				att.stamp(&r, widx, offset)
				res.Races = append(res.Races, r)
			}
		}
		if att != nil {
			att.release()
		}
	}
	if mhb != nil {
		// Clean window completion: return the clock slab to the shared
		// pool. The panic path above skips this deliberately — a worker
		// could still alias the slab — and lets the GC reclaim it.
		mhb.Release()
	}
	if ctx.Err() != nil {
		res.Cancelled = true
		final = false
	}
	// Counted per completed degraded window — candidates or not — so the
	// gauge always agrees with Report.DegradedWindows.
	if degraded && final {
		col.CountDegradedWindow()
	}

	if col != nil {
		col.WindowDone(telemetry.WindowRecord{
			Offset:     d.traceOffset + offset,
			Events:     w.Len(),
			Candidates: len(cops),
			Solved:     solved,
			Findings:   len(res.Races) - racesBefore,
			ElapsedNS:  int64(time.Since(wstart)),
		})
	}
	if tracer != nil {
		tracer.WindowDone(widx, len(res.Races)-racesBefore, time.Since(wstart))
	}
	if final {
		status = WindowAnalyzed
	}
	if (hook != nil || wr.timed) && final {
		out = race.WindowOutcome{
			Window:       widx,
			Offset:       d.traceOffset + offset,
			Events:       w.Len(),
			Candidates:   len(cops),
			Solved:       solved,
			COPsChecked:  wChecked,
			SolverAborts: wAborts,
			PairsRetried: wRetried,
			ElapsedNS:    int64(time.Since(wstart)),
			Degraded:     degraded,
			PairsShed:    wShed,
		}
		if n := len(res.Races) - racesBefore; n > 0 {
			// The hook contract is whole-trace coordinates; rebase a
			// parallel slice's races (copies — res keeps its own).
			out.Races = make([]race.Race, n)
			copy(out.Races, res.Races[racesBefore:])
			if d.traceOffset != 0 {
				for i := range out.Races {
					out.Races[i].A += d.traceOffset
					out.Races[i].B += d.traceOffset
					if out.Races[i].Witness != nil {
						out.Races[i].Witness = rebase(out.Races[i].Witness, d.traceOffset)
					}
				}
			}
		}
		if hook != nil {
			hook(out)
		}
	}
	return out, status
}

// WindowRunner drives the sequential detection pipeline over
// externally-materialised windows — the streaming session layer's entry
// point into the detector (internal/stream). It preserves detectWindows'
// exact cross-window semantics: windows must be supplied in trace order
// with consecutive indices, and the signature seen/attempt state threads
// across calls, so the accumulated Result — and every per-window
// outcome — is bit-identical to a batch run over the concatenated trace.
// Not safe for concurrent use.
type WindowRunner struct {
	d       *Detector
	run     *windowRun
	start   time.Time
	windows int
}

// NewWindowRunner returns a runner with the given options. Parallelism
// is ignored (windows arrive one at a time); PairParallelism applies
// within each window as in batch mode.
func NewWindowRunner(opt Options) *WindowRunner {
	d := NewWindowDetector(opt)
	run := d.newWindowRun()
	run.timed = true
	return &WindowRunner{d: d, run: run, start: time.Now()}
}

// RunWindow analyses one window whose first event sits at the given
// whole-trace offset. Outcomes are returned in whole-trace coordinates
// for every status: fresh verdicts (WindowAnalyzed, also delivered to
// OnWindowDone), journal replays (WindowReplayed, the journaled outcome,
// hook not re-fired) and cancellation cuts (WindowCut, partial, must not
// be persisted). With degraded set the SMT tier is shed — see
// windowRun.analyze.
func (r *WindowRunner) RunWindow(ctx context.Context, w *trace.Trace, widx, offset int, degraded bool) (race.WindowOutcome, WindowStatus) {
	if ctx == nil {
		ctx = context.Background()
	}
	r.windows++
	return r.run.analyze(ctx, time.Time{}, w, widx, offset, degraded)
}

// Result finalises and returns the result accumulated so far: the
// canonical merge of every window passed to RunWindow, exactly as
// DetectContext would have produced over the whole trace.
func (r *WindowRunner) Result() race.Result {
	res := r.run.res
	res.Windows = r.windows
	res.Elapsed = time.Since(r.start)
	if len(res.Races) > 0 {
		res.Races = append([]race.Race(nil), res.Races...)
	}
	return res
}

// NewWindowDetector returns a detector prepared for DetectWindow calls:
// the out-of-core driver's entry point (rvpredict's sharded reader
// path). Parallelism is ignored — windows arrive one at a time from the
// sequential chunk reader; PairParallelism applies within each window
// as in batch mode.
func NewWindowDetector(opt Options) *Detector {
	d := New(opt)
	workers := opt.PairParallelism
	if workers < 1 {
		workers = 1
	}
	d.budget = make(chan struct{}, workers)
	return d
}

// DetectWindow analyses one window in isolation: unlike WindowRunner,
// every call gets fresh per-window signature state, so the verdict
// depends only on the window's own content — never on which other
// windows this process happened to analyse. That independence is what
// makes the deterministic widx-mod-N shard partition mergeable: any
// assignment of windows to processes yields the same per-window
// outcomes, and a signature-deduplicating merge in window order
// reconstructs one canonical report. Races, witnesses and failures in
// both the outcome and the result are in whole-trace coordinates
// (window-local indices plus offset).
//
// ResumeWindows replay, OnWindowDone delivery, telemetry and panic
// isolation all behave as in the sequential driver; globalDeadline (the
// zero time means unbounded) and ctx can cut the window short, in which
// case the partial result is flagged and the outcome must not be
// persisted (WindowCut).
func (d *Detector) DetectWindow(ctx context.Context, globalDeadline time.Time, w *trace.Trace, widx, offset int) (race.WindowOutcome, WindowStatus, race.Result) {
	if ctx == nil {
		ctx = context.Background()
	}
	run := d.newWindowRun()
	run.timed = true
	out, status := run.analyze(ctx, globalDeadline, w, widx, offset, false)
	return out, status, run.res
}

// replayWindow merges one journaled outcome as if the window had just
// completed its analysis: races enter the result in their original
// detection order with their signatures marked seen (and shared with
// parallel workers via foundSig), failures and counter deltas are
// re-applied, and telemetry records the window as replayed. No solver
// query is issued.
func (d *Detector) replayWindow(res *race.Result, out race.WindowOutcome, seen map[race.Signature]bool) {
	col := d.opt.Telemetry
	tracer := d.opt.Tracer
	if tracer != nil {
		tracer.WindowStart(out.Window, out.Events)
	}
	res.COPsChecked += out.COPsChecked
	res.SolverAborts += out.SolverAborts
	res.PairsRetried += out.PairsRetried
	for _, r := range out.Races {
		// Journaled races are in whole-trace coordinates; the in-flight
		// result of a parallel slice uses slice-local ones (the parallel
		// merge re-adds the slice offset).
		if d.traceOffset != 0 {
			r.A -= d.traceOffset
			r.B -= d.traceOffset
			if r.Witness != nil {
				r.Witness = rebase(r.Witness, -d.traceOffset)
			}
		}
		// Provenance travels with the journaled race; only the replay
		// origin is this run's own fact.
		r.Prov.Replayed = true
		seen[r.Sig] = true
		if d.foundSig != nil {
			d.foundSig(r.Sig)
		}
		res.Races = append(res.Races, r)
	}
	// Failures are journaled — and merged — in whole-trace coordinates in
	// both modes, so they append unchanged.
	for range out.Failures {
		col.CountWindowFailure()
	}
	res.Failures = append(res.Failures, out.Failures...)
	col.CountWindowReplayed()
	col.WindowDone(telemetry.WindowRecord{
		Offset:     out.Offset,
		Events:     out.Events,
		Candidates: out.Candidates,
		Solved:     out.Solved,
		Findings:   len(out.Races),
		ElapsedNS:  out.ElapsedNS,
	})
	if tracer != nil {
		tracer.WindowDone(out.Window, len(out.Races), time.Duration(out.ElapsedNS))
	}
}

// detectParallel fans the windows out over Parallelism workers. Each
// window is detected independently (its own solver, quick check and
// per-window signature budget); the per-window results are merged in
// window order with cross-window signature deduplication, so the final
// report is deterministic and equals the sequential report up to which
// COP instance represents a signature.
func (d *Detector) detectParallel(ctx context.Context, globalDeadline time.Time, tr *trace.Trace) race.Result {
	start := time.Now()
	slices := race.WindowSlices(tr, d.opt.WindowSize)
	perWindow := make([]race.Result, len(slices))

	// Best-effort cross-window deduplication: once any worker proves a
	// signature racy, other workers skip further instances. This only
	// suppresses redundant solver calls — the final merge below still
	// deduplicates deterministically — so the race set is unchanged while
	// COPsChecked may vary run to run.
	var sharedSeen sync.Map

	var wg sync.WaitGroup
	sem := make(chan struct{}, d.opt.Parallelism)
	single := *d
	single.opt.Parallelism = 0
	single.opt.WindowSize = 0 // each slice is exactly one window
	single.opt.GlobalBudget = 0
	single.skipSig = func(sig race.Signature) bool {
		_, ok := sharedSeen.Load(sig)
		return ok
	}
	single.foundSig = func(sig race.Signature) {
		sharedSeen.Store(sig, true)
	}
	for i := range slices {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Defence in depth: detectWindows isolates per-window panics
			// itself, but a panic escaping it (e.g. from the windowing
			// driver) must never kill the whole process when workers run
			// as bare goroutines. Recover here records the failure with
			// the window's global coordinates and lets the merge proceed.
			defer func() {
				if r := recover(); r != nil {
					perWindow[i].Failures = append(perWindow[i].Failures,
						windowFailure(i, slices[i].Offset, slices[i].Trace.Len(), r))
					d.opt.Telemetry.CountWindowFailure()
				}
			}()
			sem <- struct{}{}
			defer func() { <-sem }()
			// A per-goroutine copy carries the window's global index and
			// offset so telemetry records and tracer callbacks stay in
			// whole-trace coordinates. The shared collector is atomic.
			// The global deadline is passed through directly: the budget
			// is one wall-clock window shared by all workers.
			worker := single
			worker.winBase = i
			worker.traceOffset = slices[i].Offset
			perWindow[i] = worker.detectWindows(ctx, globalDeadline, slices[i].Trace)
		}(i)
	}
	wg.Wait()

	res := race.Result{Windows: len(slices)}
	seen := make(map[race.Signature]bool)
	for i, wres := range perWindow {
		offset := slices[i].Offset
		res.COPsChecked += wres.COPsChecked
		res.SolverAborts += wres.SolverAborts
		res.PairsRetried += wres.PairsRetried
		res.Cancelled = res.Cancelled || wres.Cancelled
		res.BudgetExhausted = res.BudgetExhausted || wres.BudgetExhausted
		res.Failures = append(res.Failures, wres.Failures...)
		for _, r := range wres.Races {
			if seen[r.Sig] {
				continue
			}
			seen[r.Sig] = true
			r.A += offset
			r.B += offset
			if r.Witness != nil {
				r.Witness = rebase(r.Witness, offset)
			}
			res.Races = append(res.Races, r)
		}
	}
	if ctx.Err() != nil {
		res.Cancelled = true
	}
	res.Elapsed = time.Since(start)
	return res
}

// windowSolver is the long-lived solver of one analysis window: Φ_mhb and
// Φ_lock are asserted once, cf(e) definitions are memoised across queries,
// and each COP adds only a guard-conditional race constraint, decided with
// the guard assumed (sat.SolveAssuming). The pair scheduler checkpoints the
// solver after the base encoding (buildReplica) and rolls back between
// signature groups, so every group — on any worker — is solved from the
// identical canonical state.
type windowSolver struct {
	s   *smt.Solver
	enc *encode.Encoder
	cf  *encode.CF
	bad bool // window constraints themselves unsatisfiable

	// ck is the canonical base state (base constraints + warmed cf
	// definitions) and cfMark the cf memo's position at ck; dirty tracks
	// whether the solver has diverged from it since the last rollback.
	ck     *smt.Checkpoint
	cfMark int
	dirty  bool
}

// checkpoint records the current state as the canonical base.
func (ws *windowSolver) checkpoint() {
	ws.ck = ws.s.Checkpoint()
	ws.cfMark = ws.cf.Mark()
}

// rollback restores the canonical base if anything was encoded or solved
// since: the solver rolls back to ck and the cf memo forgets the
// definitions encoded after it, so an instance outside the warm prefix is
// encoded afresh, to the identical literals, each time it is prepared.
func (ws *windowSolver) rollback(col *telemetry.Collector) {
	if !ws.dirty {
		return
	}
	span := col.StartPhase(telemetry.PhaseRollback)
	ws.s.Rollback(ws.ck)
	ws.cf.Reset(ws.cfMark)
	span.End()
	ws.dirty = false
	col.CountPairRollback()
}

func (d *Detector) newWindowSolver(w *trace.Trace, mhb *vc.MHB) *windowSolver {
	span := d.opt.Telemetry.StartPhase(telemetry.PhaseEncode)
	defer span.End()
	s := smt.NewSolver()
	enc := encode.New(w, s, mhb, -1, -1)
	enc.Pruning = !d.opt.NoPruning
	ws := &windowSolver{s: s, enc: enc, cf: encode.NewCF(enc, s, d.opt.BranchDepWindow)}
	if err := enc.AssertMHB(); err != nil {
		ws.bad = true
	}
	if err := enc.AssertLocks(); err != nil {
		ws.bad = true
	}
	return ws
}

// prepare encodes one COP's guarded race constraint on the shared window
// solver and returns the guard literal to assume. The guard persists, so
// a pair deferred by the two-pass scheduler is re-solved later by assuming
// the same guard with a bigger budget — no re-encoding. ok is false when
// the encoding itself proves the pair impossible (treated as unsat).
func (ws *windowSolver) prepare(d *Detector, cop race.COP) (g sat.Lit, ok bool) {
	if ws.bad {
		return 0, false
	}
	col := d.opt.Telemetry
	span := col.StartPhase(telemetry.PhaseEncode)
	defer span.End()
	g = ws.s.NewBoolLit()
	if err := ws.s.Implies(g, ws.enc.Adjacent(cop.A, cop.B)); err != nil {
		return 0, false
	}
	if err := ws.s.Implies(g, ws.cf.ControlFlow(cop.A)); err != nil {
		return 0, false
	}
	if err := ws.s.Implies(g, ws.cf.ControlFlow(cop.B)); err != nil {
		return 0, false
	}
	return g, true
}

// queryStats is the CDCL work of one solver query, captured for race
// provenance. On the shared window solver the values are deltas around
// the query; every group is solved from the identical checkpointed base
// state, so the deltas are deterministic across worker assignment.
type queryStats struct {
	decisions    int64
	propagations int64
	conflicts    int64
}

// solve decides one prepared COP under the given per-attempt budget,
// clipped against the run's global deadline. The deadline is always
// (re)installed — the solver is shared across queries and retries, so a
// stale deadline from a previous attempt must never leak into this one.
func (ws *windowSolver) solve(d *Detector, widx int, cop race.COP, g sat.Lit,
	timeout time.Duration, globalDeadline time.Time) (isRace bool, witness []int, outcome telemetry.Outcome, qs queryStats) {
	if f := d.fireFault(faultinject.PointSolve, widx); f == faultinject.FaultTimeout {
		return false, nil, telemetry.OutcomeTimeout, qs
	}
	col := d.opt.Telemetry
	ws.s.SetDeadline(solveDeadline(timeout, globalDeadline))
	if d.opt.MaxConflicts > 0 {
		ws.s.SetMaxConflicts(d.opt.MaxConflicts)
	}
	st0 := ws.s.Stats()
	span := col.StartPhase(telemetry.PhaseSolve)
	verdict := ws.s.SolveAssuming(g)
	span.End()
	switch verdict {
	case sat.Sat:
		st1 := ws.s.Stats()
		qs = queryStats{
			decisions:    st1.Decisions - st0.Decisions,
			propagations: st1.Propagations - st0.Propagations,
			conflicts:    st1.Conflicts - st0.Conflicts,
		}
		if d.opt.Witness {
			span = col.StartPhase(telemetry.PhaseWitness)
			witness = ws.enc.Witness(cop.A, cop.B)
			span.End()
		}
		return true, witness, telemetry.OutcomeSat, qs
	case sat.Aborted:
		return false, nil, telemetry.OutcomeOf(ws.s, false, true), qs
	}
	return false, nil, telemetry.OutcomeUnsat, qs
}

// checkMerged decides one COP with the paper's variable-merging encoding
// (ablation path; one solver per COP, rolled into telemetry individually).
// Retries on this path rebuild the solver from scratch — the encoding is
// deterministic, so only the budget differs between attempts.
func (d *Detector) checkMerged(w *trace.Trace, mhb *vc.MHB, cop race.COP, widx int,
	timeout time.Duration, globalDeadline time.Time, cancel func() bool) (isRace bool, witness []int, outcome telemetry.Outcome, qs queryStats) {
	if f := d.fireFault(faultinject.PointSolve, widx); f == faultinject.FaultTimeout {
		return false, nil, telemetry.OutcomeTimeout, qs
	}
	col := d.opt.Telemetry
	s := smt.NewSolver()
	defer col.AddSolver(s)
	s.SetDeadline(solveDeadline(timeout, globalDeadline))
	s.SetCancel(cancel)
	if d.opt.MaxConflicts > 0 {
		s.SetMaxConflicts(d.opt.MaxConflicts)
	}
	span := col.StartPhase(telemetry.PhaseEncode)
	enc := encode.New(w, s, mhb, cop.A, cop.B)
	enc.Pruning = !d.opt.NoPruning
	if err := enc.AssertMHB(); err != nil {
		span.End()
		return false, nil, telemetry.OutcomeUnsat, qs
	}
	if err := enc.AssertLocks(); err != nil {
		span.End()
		return false, nil, telemetry.OutcomeUnsat, qs
	}
	cf := encode.NewCF(enc, s, d.opt.BranchDepWindow)
	if err := cf.AssertControlFlow(cop.A); err != nil {
		span.End()
		return false, nil, telemetry.OutcomeUnsat, qs
	}
	if err := cf.AssertControlFlow(cop.B); err != nil {
		span.End()
		return false, nil, telemetry.OutcomeUnsat, qs
	}
	span.End()
	span = col.StartPhase(telemetry.PhaseSolve)
	verdict := s.Solve()
	span.End()
	switch verdict {
	case sat.Sat:
		// A fresh solver per query on this path: the stats are absolute.
		st := s.Stats()
		qs = queryStats{
			decisions:    st.Decisions,
			propagations: st.Propagations,
			conflicts:    st.Conflicts,
		}
		if d.opt.Witness {
			span = col.StartPhase(telemetry.PhaseWitness)
			witness = enc.Witness(cop.A, cop.B)
			span.End()
		}
		return true, witness, telemetry.OutcomeSat, qs
	case sat.Aborted:
		return false, nil, telemetry.OutcomeOf(s, false, true), qs
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
