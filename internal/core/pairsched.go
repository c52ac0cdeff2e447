// Pair scheduler: intra-window parallel COP solving with replicated
// window solvers and deterministic merging.
//
// Window parallelism (Runner.Run) cannot help a trace that produces one
// big window. This file fans the candidate pairs of one window out over
// Options.PairParallelism workers while keeping the window's outcome
// bit-identical to solving them one by one on a single windowSolver:
//
//   - The unit of work is a signature group: every COP instance of one
//     signature surviving the prefilters, in enumeration order. Signature
//     dedup is thereby resolved *before* dispatch — two workers can never
//     race to decide the same signature — and a group's verdict (which
//     instance proves the race, its witness, its outcome tallies) depends
//     only on the group's own solving sequence.
//   - partition classifies every instance once, with the triage ladder
//     (triage.go). A group's first ladder-proved instance is certainly
//     satisfiable: without a witness request it is reported without a
//     solve and ends the group, and it names the race's provenance tier.
//   - Every worker owns a replica of the window encoding: Φ_mhb + Φ_lock +
//     the control-flow definitions of each group's warm prefix — every
//     instance the group can hand the solver (warmCount) — built once per
//     worker by the same deterministic construction sequence and then
//     checkpointed (smt.Checkpoint). Before each group the worker rolls
//     back to the checkpoint, so a group is always solved from the
//     canonical base state no matter which worker picks it up or what it
//     solved before. No instance past a warm prefix is ever prepared, so
//     the cf memo never outlives a rollback. A window none of whose
//     groups reaches the solver builds no replica at all.
//   - Groups are dispatched from a shared queue (an atomic cursor over the
//     canonical group order) and merged back in canonical order, so races,
//     witnesses, counters and window records are deterministic.
//
// Real wall-clock solver timeouts are inherently timing-dependent; the
// determinism guarantee is: absent solver aborts, a window's outcome is
// identical for every PairParallelism, and — windows being Isolated under
// Parallelism > 1 and merged in window order — the full race.Result is
// identical for every Parallelism ≥ 2 and PairParallelism combination, and
// to the sequential run's wherever no signature recurs across windows.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lockset"
	"repro/internal/race"
	"repro/internal/telemetry"
	"repro/internal/vc"
	"repro/trace"
)

// sigGroup is the pair scheduler's unit of work: every COP instance of one
// signature in one window that survived the seen-set and lockset
// quick-check prefilters, in enumeration order.
type sigGroup struct {
	sig  race.Signature
	cops []race.COP
	// proved is the index of the first instance the triage ladder (SHB →
	// SyncP, triage.go) proves racy, -1 if none, and tier the rung that
	// proved it.
	proved int
	tier   string
}

// warmCount is the length of the group's warm prefix: the instances whose
// control-flow definitions the replica encodes before its checkpoint.
// Without a witness request the prefix stops at the group's first
// ladder-proved instance, which is fast-pathed and ends the group, so
// nothing past the prefix reaches the solver. With a witness request
// every instance can be solved, and all are warmed.
func (d *Detector) warmCount(g *sigGroup) int {
	if !d.opt.Witness && g.proved >= 0 {
		return g.proved
	}
	return len(g.cops)
}

// groupResult is one signature group's contribution to the window result,
// merged into race.Result in canonical group order.
type groupResult struct {
	solved     int // solve attempts (COPsChecked, WindowRecord.Solved)
	aborts     int // solver aborts
	cancelled  bool
	budgetGone bool
	isRace     bool
	race       race.Race // whole-trace coordinates, set when isRace
}

// found records instance k of g as the group's race, in whole-trace
// coordinates, with its provenance. The instance takes the group's
// ladder tier when it is the proved one and the SMT tier otherwise. The
// query stats are kept only for an SMT-tier race: a sound-tier race's
// query is optional (the fast path skips it), so its stats would make
// provenance depend on the witness request.
func (gr *groupResult) found(wc *windowCtx, g *sigGroup, k int, witness []int, qs queryStats) {
	cop := g.cops[k]
	gr.isRace = true
	gr.race = race.Race{
		COP:  race.COP{A: cop.A + wc.offset, B: cop.B + wc.offset},
		Sig:  g.sig,
		Prov: race.Provenance{Tier: race.TierSMT, Window: wc.widx, WitnessLen: len(witness)},
	}
	if k == g.proved {
		gr.race.Prov.Tier = g.tier
	} else {
		gr.race.Prov.Decisions = qs.decisions
		gr.race.Prov.Propagations = qs.propagations
		gr.race.Prov.Conflicts = qs.conflicts
	}
	if witness != nil {
		gr.race.Witness = rebase(witness, wc.offset)
	}
}

// windowCtx bundles the per-window invariants threaded through the
// scheduler.
type windowCtx struct {
	ctx            context.Context
	w              *trace.Trace
	mhb            *vc.MHB
	widx           int // window index (spans, fault injection)
	offset         int // whole-trace index of the window's first event
	globalDeadline time.Time
	cancel         func() bool
	span           *telemetry.Span // the window's, parent of worker and group spans
}

// partition groups the window's quick-check survivors (lockset.Sets.
// Survivors over the window's Accesses acc, in canonical order) by
// signature, in order of each signature's first surviving instance,
// skipping the signatures in seen. seen is stable for the whole window
// (it is only updated at merge time), so the partition is deterministic.
// unseen is the window's candidate count less its signature-dedup hits
// (race.Accesses.Count); when it is 0 no clocks are computed and nil is
// returned. The single MHB pass is shared by the quick check, the triage
// ladder and (via the returned value) the window encoders. The candidates that are neither seen nor survivors are
// counted as quick-check filtered. Every survivor is then classified by
// the triage ladder (triage.go) here, once, so its tallies are
// deterministic under any worker count. Under NoQuickCheck every unseen
// candidate is grouped, streamed by race.EachCOP, and a quick-check
// failure is dispatched unclassified (the rungs assume the quick check
// passed). The whole pass is one quick-check span; the MHB pass and each
// ladder rung are one phase span each, nested in it.
func (d *Detector) partition(wspan *telemetry.Span, w *trace.Trace, acc race.Accesses, unseen int, seen map[race.Signature]bool) ([]*sigGroup, *vc.MHB) {
	if unseen == 0 {
		return nil, nil
	}
	qc := wspan.Child(telemetry.PhaseQuickCheck, "quick check")
	defer qc.End()
	span := qc.Child(telemetry.PhaseMHB, "mhb")
	mhb := vc.ComputeMHB(w)
	span.End()
	sets := lockset.ComputeWith(w, mhb)
	var (
		groups []*sigGroup
		index  map[race.Signature]int
		kept   int
	)
	group := func(cop race.COP) {
		sig := race.SigOf(w, cop.A, cop.B)
		if seen[sig] {
			return
		}
		kept++
		gi, ok := index[sig]
		if !ok {
			if index == nil {
				index = make(map[race.Signature]int)
			}
			gi = len(groups)
			index[sig] = gi
			groups = append(groups, &sigGroup{sig: sig, proved: -1})
		}
		groups[gi].cops = append(groups[gi].cops, cop)
	}
	if d.opt.NoQuickCheck {
		race.EachCOP(w, group)
	} else {
		for _, cop := range sets.Survivors(w, acc) {
			group(cop)
		}
	}
	d.opt.Telemetry.Add(telemetry.QuickCheckFiltered, int64(unseen-kept))
	d.triage(qc, w, sets, groups)
	return groups, mhb
}

// buildReplica constructs one worker's window encoding: base constraints,
// then the control-flow definitions of every group's warm prefix
// (warmCount), in canonical order, then the checkpoint. Every replica runs
// the identical construction sequence, so all replicas are bit-identical
// and a group solved after a rollback sees the same state on any worker.
func (d *Detector) buildReplica(wc *windowCtx, groups []*sigGroup) *windowSolver {
	ws := d.newWindowSolver(wc.w, wc.mhb)
	ws.s.SetCancel(wc.cancel)
	if !ws.bad {
		for _, g := range groups {
			for _, cop := range g.cops[:d.warmCount(g)] {
				ws.cf.ControlFlow(cop.A)
				ws.cf.ControlFlow(cop.B)
			}
		}
	}
	ws.ck = ws.s.Checkpoint()
	return ws
}

// acquireBudget blocks until a global worker-budget slot is free and
// returns its release. The budget (max of window and pair parallelism) is
// shared by window coordinators and extra pair workers; coordinators
// block-acquire (the cap is ≥ Parallelism, so they always progress), extra
// pair workers only spawn on tryAcquireBudget.
func (d *Detector) acquireBudget() func() {
	d.budget <- struct{}{}
	return func() { <-d.budget }
}

func (d *Detector) tryAcquireBudget() bool {
	select {
	case d.budget <- struct{}{}:
		return true
	default:
		return false
	}
}

// solveGroups runs the window's groups to completion and returns their
// results in canonical group order. With PairParallelism ≤ 1 (or at most
// one group that can reach the solver) everything runs inline on the
// caller; otherwise up to PP−1 extra workers are spawned, gated on the
// global worker budget. When no group can reach the solver, no replica is
// built: the coordinator records the fast-path verdicts alone. A panic on any
// worker stops the pool, is re-raised on the caller and handled by the
// window-level isolation in Runner.analyze; the window then contributes no
// results (deterministic drop — see race.WindowFailure).
func (d *Detector) solveGroups(wc *windowCtx, groups []*sigGroup) []*groupResult {
	col := d.opt.Telemetry
	release := d.acquireBudget()
	defer release()

	// Only groups that can reach the solver need a replica and a worker:
	// all of them with a witness request, else those whose first instance
	// is not fast-pathed.
	dispatching := 0
	for _, g := range groups {
		if d.opt.Witness || g.proved != 0 {
			dispatching++
		}
		col.Add(telemetry.WarmSkipped, int64(len(g.cops)-d.warmCount(g)))
	}

	results := make([]*groupResult, len(groups))
	var (
		cursor    atomic.Int64
		stop      atomic.Bool
		panicMu   sync.Mutex
		panicVal  any
		hasPanic  bool
		queueOpen time.Time
	)
	if col.Enabled() {
		queueOpen = time.Now()
	}

	// runWorker drains the shared queue on one replica. lane is the
	// worker's timeline lane: one group span per dequeue makes
	// worker occupancy read directly off the trace.
	runWorker := func(ws *windowSolver, lane int32) {
		col.Add(telemetry.PairWorkers, 1)
		// Queue wait: how long after the queue opened this worker made its
		// first claim — its replica construction plus any budget wait.
		if col.Enabled() {
			col.Add(telemetry.QueueWaitNS, int64(time.Since(queueOpen)))
		}
		for !stop.Load() {
			i := int(cursor.Add(1)) - 1
			if i >= len(groups) {
				break
			}
			gsp := col.Begin(telemetry.NoPhase, groupSpanName(col, "group", groups[i]), lane, wc.span)
			results[i] = d.solveGroup(wc, ws, groups[i], gsp)
			gsp.End()
			col.Add(telemetry.GroupsDone, 1)
		}
		if ws != nil {
			col.AddSolver(ws.s)
		}
	}

	// guarded wraps one worker (replica construction included) in panic
	// capture: the first panic stops the pool and is re-raised below.
	// k is the worker's index (0 = the coordinator solving inline).
	guarded := func(k int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if !hasPanic {
					hasPanic, panicVal = true, r
				}
				panicMu.Unlock()
				stop.Store(true)
			}
		}()
		lane := telemetry.WorkerLane(wc.widx, k)
		var ws *windowSolver
		if dispatching > 0 {
			if k > 0 {
				col.Add(telemetry.PairReplicas, 1)
			}
			rsp := col.Begin(telemetry.PhaseEncode, "encode replica", lane, wc.span)
			ws = d.buildReplica(wc, groups)
			rsp.End()
		}
		runWorker(ws, lane)
	}

	pp := d.opt.PairParallelism
	// Pair solving is CPU-bound and every extra worker must pay for a full
	// replica encoding before it contributes, so workers beyond the
	// schedulable core count can never win that investment back: cap the
	// pool at GOMAXPROCS, and at the groups that can reach the solver (a
	// fast-pathed group needs no replica). Results are identical for any
	// worker count — the cap only trims overhead.
	if procs := runtime.GOMAXPROCS(0); pp > procs {
		pp = procs
	}
	var wg sync.WaitGroup
	for k := 1; k < pp && k < dispatching; k++ {
		if !d.tryAcquireBudget() {
			break
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			defer func() { <-d.budget }()
			guarded(k)
		}(k)
	}
	guarded(0)
	wg.Wait()
	if hasPanic {
		panic(panicVal)
	}
	return results
}

// groupSpanName renders one signature group's timeline-span name. The
// formatting allocates, so it is skipped (the name is never published)
// unless a recorder is attached.
func groupSpanName(col *telemetry.Collector, kind string, g *sigGroup) string {
	if col.Spans() == nil {
		return ""
	}
	return fmt.Sprintf("%s %d:%d ×%d", kind, g.sig.First, g.sig.Second, len(g.cops))
}

// solveGroup decides one signature group from the canonical base state:
// instances are attempted in enumeration order until one is satisfiable
// (a race) or the run is cancelled. The
// group's result depends only on the checkpointed base and the group
// itself, never on the worker or on other groups. Each attempt is a
// query span nested in the group's span gsp.
func (d *Detector) solveGroup(wc *windowCtx, ws *windowSolver, g *sigGroup, gsp *telemetry.Span) *groupResult {
	col := d.opt.Telemetry
	gr := &groupResult{}
	if ws != nil {
		ws.rollback(col, gsp)
	}
	for k, cop := range g.cops {
		if wc.ctx.Err() != nil {
			gr.cancelled = true
			break
		}
		// Instances decided after dispatch (the signature's race already
		// found) are pair-scheduler skips, not signature-dedup hits:
		// partition already classified them, so counting them as dedup
		// again would break the candidate-funnel identity the /metrics
		// endpoint checks.
		if gr.isRace {
			col.Add(telemetry.PairSkips, 1)
			continue
		}
		if gr.budgetGone || (!wc.globalDeadline.IsZero() && time.Now().After(wc.globalDeadline)) {
			gr.budgetGone = true
			col.Add(telemetry.BudgetExhausted, 1)
			continue
		}
		gr.solved++
		query := gsp.Query(wc.widx, cop.A+wc.offset, cop.B+wc.offset)
		if k == g.proved && !d.opt.Witness {
			// Triage fast path: the ladder proved this instance's query
			// satisfiable (triage.go), so the SAT verdict is recorded without
			// touching the solver. The attempt still counts exactly like a
			// solved query in COPsChecked, and its query span still carries
			// the finding, but the solver outcome tallies deliberately
			// exclude it: they count solver queries, and the triage
			// telemetry block accounts for the proved pairs. When a witness
			// schedule is requested the pair falls through to the normal
			// (guaranteed-SAT) solve instead.
			gr.found(wc, g, k, nil, queryStats{})
			query.EndQuery(telemetry.OutcomeSat, false)
			continue
		}
		var (
			isRace  bool
			witness []int
			outcome telemetry.Outcome
			qs      queryStats
		)
		ws.dirty = true
		guard, hasG := ws.prepare(cop, query)
		if !hasG {
			isRace, witness, outcome = false, nil, telemetry.OutcomeUnsat
		} else {
			isRace, witness, outcome, qs = ws.solve(d, wc.widx, cop, guard, wc.globalDeadline, query)
		}
		query.EndQuery(outcome, true)
		if outcome.Aborted() {
			gr.aborts++
			if outcome == telemetry.OutcomeCancelled {
				gr.cancelled = true
			}
		}
		if isRace {
			gr.found(wc, g, k, witness, qs)
		}
	}
	return gr
}
