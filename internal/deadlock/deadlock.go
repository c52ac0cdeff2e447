// Package deadlock implements predictive deadlock detection on the
// paper's maximal causal model — the Section 2.5 observation that the
// model supports concurrency properties beyond races, realised with the
// same constraint machinery as the race detector.
//
// A two-thread deadlock candidate is a lock inversion: thread t1 acquires
// lock a and, still holding it, acquires lock b, while t2 acquires b and,
// still holding it, acquires a. The candidate is a real (predictable)
// deadlock iff some feasible reordering reaches a cut where both threads
// hold their first lock and are about to request the second: encoded as
//
//	Φ_mhb ∧ Φ_lock ∧ O(pred₁) < C < O(acq₁ᵇ) ∧ O(pred₂) < C < O(acq₂ᵃ)
//	      ∧ ⟨cf⟩(acq₁ᵇ) ∧ ⟨cf⟩(acq₂ᵃ)
//
// over the order variables plus a fresh cut variable C, where predᵢ is the
// program-order predecessor of the blocked acquire and ⟨cf⟩ is the same
// control-flow feasibility as for races. Nesting puts each thread's first
// acquire before — and its release after — the cut automatically, so at C
// both locks are held and both next acquires block: a deadlocked state.
// Satisfiability is decided by the DPLL(T) solver; the model yields a
// witness schedule ending in the deadlock.
//
// Like the race detector this is sound (every report is a real reachable
// deadlock) — in particular the classic gate-lock pattern, where both
// inversions are guarded by a common outer lock, is proved infeasible
// rather than heuristically suppressed.
package deadlock

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/encode"
	"repro/internal/race"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/telemetry"
	"repro/internal/vc"
	"repro/trace"
)

// Options configures the detector.
type Options struct {
	// WindowSize splits the trace into fixed-size windows; ≤ 0 analyses
	// the whole trace at once.
	WindowSize int
	// SolveTimeout bounds each candidate's solver run; ≤ 0 = unbounded.
	// (rvpredict.Options maps its zero value to the paper's 60 s default,
	// and negatives to 0, before reaching this layer.)
	SolveTimeout time.Duration
	// Witness requests witness schedules.
	Witness bool
	// Telemetry, when non-nil, accumulates phase timings, solver counters
	// and outcome tallies; enabling it changes no detection result.
	Telemetry *telemetry.Collector
}

// Deadlock is one detected two-thread deadlock.
type Deadlock struct {
	// HeldAcquire1/BlockedAcquire1 are t1's acquire of lock A and its
	// blocked acquire of lock B (event indices); HeldAcquire2 and
	// BlockedAcquire2 are t2's counterparts.
	HeldAcquire1, BlockedAcquire1 int
	HeldAcquire2, BlockedAcquire2 int
	// LockA and LockB are the two inverted locks.
	LockA, LockB trace.Addr
	// Witness, when requested, is a feasible schedule prefix ending with
	// both threads inside their first critical sections, one step from the
	// blocked acquires.
	Witness []int
}

// Describe renders the deadlock with location names.
func (d Deadlock) Describe(tr *trace.Trace) string {
	return fmt.Sprintf("deadlock: t%d holds l%d at %s wanting l%d at %s; t%d holds l%d at %s wanting l%d at %s",
		tr.Event(d.HeldAcquire1).Tid, d.LockA, tr.LocName(tr.Event(d.HeldAcquire1).Loc),
		d.LockB, tr.LocName(tr.Event(d.BlockedAcquire1).Loc),
		tr.Event(d.HeldAcquire2).Tid, d.LockB, tr.LocName(tr.Event(d.HeldAcquire2).Loc),
		d.LockA, tr.LocName(tr.Event(d.BlockedAcquire2).Loc))
}

// Result is the outcome of a deadlock detection run.
type Result struct {
	Deadlocks    []Deadlock
	Candidates   int // lock-inversion patterns examined
	Windows      int
	SolverAborts int
	Elapsed      time.Duration
	// Cancelled reports the run was interrupted by context cancellation;
	// the results cover the candidates decided before the cancel and are
	// sound but not maximal.
	Cancelled bool
}

// Detector is the predictive deadlock detector.
type Detector struct {
	opt Options
}

// New returns a detector with the given options.
func New(opt Options) *Detector { return &Detector{opt: opt} }

// nested describes one "acquire b while holding a" site.
type nested struct {
	tid      trace.TID
	lockA    trace.Addr
	acqA     int // acquire of the held lock
	lockB    trace.Addr
	acqB     int // the inner acquire
	predAcqB int // program-order predecessor of acqB
}

// Detect finds all feasible two-thread lock-inversion deadlocks.
func (d *Detector) Detect(tr *trace.Trace) Result {
	return d.DetectContext(context.Background(), tr)
}

// DetectContext runs Detect under ctx: the context is polled between
// windows, between candidates and inside the solver's conflict loop, so
// cancellation interrupts a run mid-solve. The partial Result covers the
// candidates decided before the cancel and is flagged Cancelled. A nil
// ctx is treated as context.Background().
func (d *Detector) DetectContext(ctx context.Context, tr *trace.Trace) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	cancel := func() bool { return ctx.Err() != nil }
	col := d.opt.Telemetry
	run := col.BeginRun()
	var res Result
	type sigKey [4]trace.Loc
	seen := make(map[sigKey]bool)
	widx := 0
	res.Windows = race.Windows(tr, d.opt.WindowSize, func(w *trace.Trace, offset int) {
		wi := widx
		widx++
		if ctx.Err() != nil {
			res.Cancelled = true
			return
		}
		wspan := col.BeginWindow(wi, offset, w.Len(), false)
		foundBefore := len(res.Deadlocks)
		candsBefore := res.Candidates

		span := wspan.Child(telemetry.PhaseEnumerate, "enumerate")
		sites := nestedSites(w)
		span.End()
		span = wspan.Child(telemetry.PhaseEncode, "encode")
		mhb := vc.ComputeMHB(w)
		span.End()
	outer:
		for i := 0; i < len(sites); i++ {
			for j := i + 1; j < len(sites); j++ {
				if ctx.Err() != nil {
					res.Cancelled = true
					break outer
				}
				s1, s2 := sites[i], sites[j] // s1.acqB < s2.acqB by sort order
				if s1.tid == s2.tid || s1.lockA != s2.lockB || s1.lockB != s2.lockA {
					continue
				}
				// Deduplicate by the unordered pair of static sites.
				p1 := [2]trace.Loc{w.Event(s1.acqA).Loc, w.Event(s1.acqB).Loc}
				p2 := [2]trace.Loc{w.Event(s2.acqA).Loc, w.Event(s2.acqB).Loc}
				if p2[0] < p1[0] || (p2[0] == p1[0] && p2[1] < p1[1]) {
					p1, p2 = p2, p1
				}
				key := sigKey{p1[0], p1[1], p2[0], p2[1]}
				if seen[key] {
					col.Add(telemetry.SigDedup, 1)
					continue
				}
				res.Candidates++
				col.Add(telemetry.Enumerated, 1)
				query := wspan.Query(wi, s1.acqB+offset, s2.acqB+offset)
				ok, witness, outcome := d.check(w, mhb, s1, s2, cancel, query)
				query.EndQuery(outcome, true)
				if outcome.Aborted() {
					res.SolverAborts++
					if outcome == telemetry.OutcomeCancelled {
						res.Cancelled = true
					}
				}
				if ok {
					seen[key] = true
					dl := Deadlock{
						HeldAcquire1: s1.acqA + offset, BlockedAcquire1: s1.acqB + offset,
						HeldAcquire2: s2.acqA + offset, BlockedAcquire2: s2.acqB + offset,
						LockA: s1.lockA, LockB: s1.lockB,
					}
					if witness != nil {
						for k := range witness {
							witness[k] += offset
						}
						dl.Witness = witness
					}
					res.Deadlocks = append(res.Deadlocks, dl)
				}
			}
		}
		wspan.EndWindow(res.Candidates-candsBefore, res.Candidates-candsBefore, len(res.Deadlocks)-foundBefore)
	})
	if ctx.Err() != nil {
		res.Cancelled = true
	}
	res.Elapsed = run.End()
	return res
}

// nestedSites scans the trace for inner acquires performed while holding
// another lock.
func nestedSites(tr *trace.Trace) []nested {
	type heldLock struct {
		lock trace.Addr
		acq  int
	}
	held := make(map[trace.TID][]heldLock)
	lastOf := make(map[trace.TID]int)
	var out []nested
	for i := 0; i < tr.Len(); i++ {
		e := tr.Event(i)
		switch e.Op {
		case trace.OpAcquire:
			for _, h := range held[e.Tid] {
				out = append(out, nested{
					tid:   e.Tid,
					lockA: h.lock, acqA: h.acq,
					lockB: e.Addr, acqB: i,
					predAcqB: lastOf[e.Tid],
				})
			}
			held[e.Tid] = append(held[e.Tid], heldLock{lock: e.Addr, acq: i})
		case trace.OpRelease:
			hs := held[e.Tid]
			for k := len(hs) - 1; k >= 0; k-- {
				if hs[k].lock == e.Addr {
					held[e.Tid] = append(hs[:k], hs[k+1:]...)
					break
				}
			}
		}
		lastOf[e.Tid] = i
	}
	sort.Slice(out, func(i, j int) bool { return out[i].acqB < out[j].acqB })
	return out
}

// check decides one candidate pair, in phase spans nested in its query
// span.
func (d *Detector) check(w *trace.Trace, mhb *vc.MHB, s1, s2 nested, cancel func() bool, query *telemetry.Span) (isDeadlock bool, witness []int, outcome telemetry.Outcome) {
	s := smt.NewSolver()
	defer d.opt.Telemetry.AddSolver(s)
	s.SetCancel(cancel)
	if d.opt.SolveTimeout > 0 {
		s.SetDeadline(time.Now().Add(d.opt.SolveTimeout))
	}
	span := query.Child(telemetry.PhaseEncode, "encode")
	enc := encode.New(w, s, mhb, -1, -1)
	if err := enc.AssertMHB(); err != nil {
		span.End()
		return false, nil, telemetry.OutcomeUnsat
	}
	// The cut: both threads have executed up to just before their blocked
	// acquire. The blocked acquires themselves sit after the cut — they
	// are the requests that can never be granted in the deadlocked state.
	// Lock mutual exclusion is enforced within the prefix only (see
	// encode.AssertLocksCut).
	cut := s.IntVar()
	if err := enc.AssertLocksCut(cut); err != nil {
		span.End()
		return false, nil, telemetry.OutcomeUnsat
	}
	if err := s.Assert(smt.And(
		smt.Less(enc.Var(s1.predAcqB), cut),
		smt.Less(cut, enc.Var(s1.acqB)),
		smt.Less(enc.Var(s2.predAcqB), cut),
		smt.Less(cut, enc.Var(s2.acqB)),
	)); err != nil {
		span.End()
		return false, nil, telemetry.OutcomeUnsat
	}
	cf := encode.NewCF(enc, s)
	if err := cf.AssertControlFlow(s1.acqB); err != nil {
		span.End()
		return false, nil, telemetry.OutcomeUnsat
	}
	if err := cf.AssertControlFlow(s2.acqB); err != nil {
		span.End()
		return false, nil, telemetry.OutcomeUnsat
	}
	span.End()
	span = query.Child(telemetry.PhaseSolve, "solve")
	verdict := s.Solve()
	span.End()
	switch verdict {
	case sat.Sat:
		if d.opt.Witness {
			span = query.Child(telemetry.PhaseWitness, "witness")
			witness = cutWitness(enc, s, cut)
			span.End()
		}
		return true, witness, telemetry.OutcomeSat
	case sat.Aborted:
		return false, nil, telemetry.OutcomeOf(s, false, true)
	}
	return false, nil, telemetry.OutcomeUnsat
}

// cutWitness returns the events ordered before the cut, sorted by model
// order — the feasible prefix reaching the deadlocked state.
func cutWitness(enc *encode.Encoder, s *smt.Solver, cut smt.IntVar) []int {
	cv := s.Value(cut)
	type ev struct {
		idx int
		val int64
	}
	var pre []ev
	for i := 0; i < enc.Trace().Len(); i++ {
		if v := s.Value(enc.Var(i)); v < cv {
			pre = append(pre, ev{idx: i, val: v})
		}
	}
	sort.Slice(pre, func(i, j int) bool {
		if pre[i].val != pre[j].val {
			return pre[i].val < pre[j].val
		}
		return pre[i].idx < pre[j].idx
	})
	out := make([]int, len(pre))
	for i, p := range pre {
		out[i] = p.idx
	}
	return out
}
