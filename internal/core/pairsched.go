// Pair scheduler: intra-window parallel solving of signature groups with
// replicated window solvers and deterministic merging.
//
// Window parallelism (Runner.Run) cannot help a trace that produces one
// big window. This file fans the candidate instances of a window analysed
// alone (Options.Parallelism) out over pair workers while keeping the
// window's outcome bit-identical to solving them one by one on a single
// windowSolver:
//
//   - The unit of work is a signature group (Group): every instance of
//     one signature surviving the kind's prefilters, in enumeration
//     order. Signature dedup is thereby resolved *before* dispatch — two
//     workers can never race to decide the same signature — and a
//     group's verdict (which instance proves it, its witness, its outcome
//     tallies) depends only on the group's own solving sequence.
//   - The kind's Partition classifies every instance once. For races the
//     triage ladder (triage.go) marks a group's first proved instance,
//     which is certainly satisfiable: without a witness request it is
//     reported without a solve and ends the group.
//   - Every worker owns a replica of the window encoding: Φ_mhb + the
//     kind's base + what the kind warms for each group's warm prefix —
//     every instance the group can hand the solver (warmCount) — built
//     once per worker by the same deterministic construction sequence
//     and then checkpointed (smt.Checkpoint). Before each group the
//     worker rolls back to the checkpoint, cf memo included, so a group
//     is always solved from the canonical base state no matter which
//     worker picks it up or what it solved before. A window none of whose
//     groups reaches the solver builds no replica at all.
//   - Groups are dispatched from a shared queue (an atomic cursor over the
//     canonical group order) and merged back in canonical order, so
//     findings, witnesses, counters and window records are deterministic.
//
// Real wall-clock solver timeouts are inherently timing-dependent; the
// determinism guarantee is: absent solver aborts, a window's outcome is
// identical for every pair worker count, so a window analysed alone gives
// the sequential run's outcome for every Parallelism. Only one level is
// ever active: windows analysed side by side solve their pairs inline.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/vc"
	"repro/trace"
)

// warmCount is the length of the group's warm prefix: the instances the
// replica warms before its checkpoint. Without a witness request the
// prefix stops at the group's first proved instance, which is
// fast-pathed and ends the group, so nothing past the prefix reaches the
// solver. With a witness request every instance can be solved, and all
// are warmed.
func (r *KindRunner[C, S, F]) warmCount(g *Group[C, S]) int {
	if !r.opt.Witness && g.Proved >= 0 {
		return g.Proved
	}
	return len(g.Cands)
}

// groupResult is one signature group's contribution to the window result,
// merged in canonical group order.
type groupResult[F any] struct {
	solved     int // solve attempts (COPsChecked, WindowRecord.Solved)
	aborts     int // solver aborts
	cancelled  bool
	budgetGone bool
	found      bool
	entry      F // whole-trace coordinates, set when found
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

// buildReplica constructs one worker's window encoding: base constraints,
// then what the kind warms for every group's warm prefix (warmCount), in
// canonical order, then the checkpoint. Every replica runs the identical
// construction sequence, so all replicas are bit-identical and a group
// solved after a rollback sees the same state on any worker.
func (r *KindRunner[C, S, F]) buildReplica(wc *windowCtx, groups []*Group[C, S]) *windowSolver[C] {
	ws := r.newWindowSolver(wc.w, wc.mhb)
	ws.s.SetCancel(wc.cancel)
	if !ws.bad {
		for _, g := range groups {
			for _, c := range g.Cands[:r.warmCount(g)] {
				ws.q.Warm(c)
			}
		}
	}
	ws.ck = ws.s.Checkpoint()
	ws.cf.Mark()
	return ws
}

// solveGroups runs the window's groups to completion and returns their
// results in canonical group order. With workers ≤ 1 (or at most one
// group that can reach the solver) everything runs inline on the caller;
// otherwise up to workers−1 extra workers are spawned. When no group can
// reach the solver, no replica is
// built: the coordinator records the fast-path verdicts alone. A panic on any
// worker stops the pool, is re-raised on the caller and handled by the
// window-level isolation in analyze; the window then contributes no
// results (deterministic drop — see race.WindowFailure).
func (r *KindRunner[C, S, F]) solveGroups(wc *windowCtx, groups []*Group[C, S], workers int) []*groupResult[F] {
	col := r.opt.Telemetry

	// Only groups that can reach the solver need a replica and a worker:
	// all of them with a witness request, else those whose first instance
	// is not fast-pathed.
	dispatching := 0
	for _, g := range groups {
		if r.opt.Witness || g.Proved != 0 {
			dispatching++
		}
		col.Add(telemetry.WarmSkipped, int64(len(g.Cands)-r.warmCount(g)))
	}

	results := make([]*groupResult[F], len(groups))
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
	runWorker := func(ws *windowSolver[C], lane int32) {
		col.Add(telemetry.PairWorkers, 1)
		// Queue wait: how long after the queue opened this worker made its
		// first claim — its replica construction.
		if col.Enabled() {
			col.Add(telemetry.QueueWaitNS, int64(time.Since(queueOpen)))
		}
		for !stop.Load() {
			i := int(cursor.Add(1)) - 1
			if i >= len(groups) {
				break
			}
			gsp := col.Begin(telemetry.NoPhase, groupSpanName(col, groups[i]), lane, wc.span)
			results[i] = r.solveGroup(wc, ws, groups[i], gsp)
			gsp.End()
			col.Add(telemetry.GroupsDone, 1)
		}
		if ws != nil {
			col.AddSolver(ws.s)
			releaseSolver(ws.s)
		}
	}

	// guarded wraps one worker (replica construction included) in panic
	// capture: the first panic stops the pool and is re-raised below.
	// k is the worker's index (0 = the coordinator solving inline).
	guarded := func(k int) {
		defer func() {
			if p := recover(); p != nil {
				panicMu.Lock()
				if !hasPanic {
					hasPanic, panicVal = true, p
				}
				panicMu.Unlock()
				stop.Store(true)
			}
		}()
		lane := telemetry.WorkerLane(wc.widx, k)
		var ws *windowSolver[C]
		if dispatching > 0 {
			if k > 0 {
				col.Add(telemetry.PairReplicas, 1)
			}
			rsp := col.Begin(telemetry.PhaseEncode, "encode replica", lane, wc.span)
			ws = r.buildReplica(wc, groups)
			rsp.End()
		}
		runWorker(ws, lane)
	}

	// Pair solving is CPU-bound and every extra worker must pay for a full
	// replica encoding before it contributes, so workers beyond the
	// schedulable core count can never win that investment back: cap the
	// pool at GOMAXPROCS, and at the groups that can reach the solver (a
	// fast-pathed group needs no replica). Results are identical for any
	// worker count — the cap only trims overhead.
	workers = min(workers, runtime.GOMAXPROCS(0), dispatching)
	var wg sync.WaitGroup
	for k := 1; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
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
func groupSpanName[C any, S comparable](col *telemetry.Collector, g *Group[C, S]) string {
	if col.Spans() == nil {
		return ""
	}
	return fmt.Sprintf("group %v ×%d", g.Sig, len(g.Cands))
}

// solveGroup decides one signature group from the canonical base state:
// instances are attempted in enumeration order until one is satisfiable
// (a finding) or the run is cancelled. The
// group's result depends only on the checkpointed base and the group
// itself, never on the worker or on other groups. Each attempt is a
// query span nested in the group's span gsp.
func (r *KindRunner[C, S, F]) solveGroup(wc *windowCtx, ws *windowSolver[C], g *Group[C, S], gsp *telemetry.Span) *groupResult[F] {
	col := r.opt.Telemetry
	gr := &groupResult[F]{}
	if ws != nil {
		ws.rollback(col, gsp)
	}
	hit := func(k int, witness []int, qs QueryStats) {
		if witness != nil {
			witness = rebase(witness, wc.offset)
		}
		gr.found = true
		gr.entry = r.kind.Entry(g, Hit{K: k, Window: wc.widx, Offset: wc.offset, Witness: witness, Stats: qs})
	}
	for k, c := range g.Cands {
		if wc.ctx.Err() != nil {
			gr.cancelled = true
			break
		}
		// Instances decided after dispatch (the signature's finding
		// already made) are pair-scheduler skips, not signature-dedup
		// hits: Partition already classified them, so counting them as
		// dedup again would break the candidate-funnel identity the
		// /metrics endpoint checks.
		if gr.found {
			col.Add(telemetry.PairSkips, 1)
			continue
		}
		if gr.budgetGone || (!wc.globalDeadline.IsZero() && time.Now().After(wc.globalDeadline)) {
			gr.budgetGone = true
			col.Add(telemetry.BudgetExhausted, 1)
			continue
		}
		gr.solved++
		a, b := r.kind.Events(c)
		query := gsp.Query(wc.widx, a+wc.offset, b+wc.offset)
		if k == g.Proved && !r.opt.Witness {
			// Fast path: a sound rung proved this instance's query
			// satisfiable (triage.go), so the SAT verdict is recorded
			// without touching the solver. The attempt still counts
			// exactly like a solved query in COPsChecked, and its query
			// span still carries the finding, but the solver outcome
			// tallies deliberately exclude it: they count solver queries,
			// and the triage telemetry block accounts for the proved
			// instances. When a witness schedule is requested the
			// instance falls through to the normal (guaranteed-SAT) solve
			// instead.
			hit(k, nil, QueryStats{})
			query.EndQuery(telemetry.OutcomeSat, false)
			continue
		}
		var (
			found   bool
			witness []int
			outcome = telemetry.OutcomeUnsat
			qs      QueryStats
		)
		ws.dirty = true
		if guard, ok := ws.prepare(c, query); ok {
			found, witness, outcome, qs = r.solve(ws, wc.widx, c, guard, wc.globalDeadline, query)
		}
		query.EndQuery(outcome, true)
		if outcome.Aborted() {
			gr.aborts++
			if outcome == telemetry.OutcomeCancelled {
				gr.cancelled = true
			}
		}
		if found {
			hit(k, witness, qs)
		}
	}
	return gr
}
