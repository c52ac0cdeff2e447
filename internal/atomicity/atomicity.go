// Package atomicity implements predictive atomicity-violation detection on
// the paper's maximal causal model — with races and deadlocks, the third
// concurrency property the paper's Section 2.5 observes the model supports.
//
// A candidate is an unserializable access triple: two accesses e1, e2 to
// the same location inside one critical section, and a conflicting remote
// access e3 by another thread, where the interleaving e1 · e3 · e2 is not
// equivalent to any serial order. The unserializable patterns (local,
// remote, local) are the classical four:
//
//	R·W·R  — the two local reads observe different values
//	W·W·R  — the local read misses the section's own write
//	R·W·W  — lost update: the local write is based on a stale read
//	W·R·W  — the remote read observes a half-done state
//
// The candidate is a real (predictable) violation iff some feasible
// reordering schedules e3 strictly between e1 and e2 — encoded exactly like
// a race query, with the sandwich constraint O(e1) < O(e3) < O(e2) in place
// of adjacency, plus the control-flow feasibility ⟨cf⟩ of all three events,
// and decided by the DPLL(T) solver on the shared window constraints.
package atomicity

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

// Violation is one detected atomicity violation.
type Violation struct {
	// First and Second are the two local accesses (inside the atomic
	// region); Remote is the interleaving access.
	First, Second, Remote int
	// Lock is the region's lock.
	Lock trace.Addr
	// Split marks a split-region violation: First and Second sit in two
	// consecutive critical sections on the same lock (the check-then-act
	// idiom), so the atomic intent is inferred rather than syntactic.
	Split bool
	// Witness, when requested, is a feasible schedule prefix ending
	// First · Remote · Second (possibly with other events between, but
	// with Remote strictly inside the region's two accesses).
	Witness []int
}

// Describe renders the violation with location names.
func (v Violation) Describe(tr *trace.Trace) string {
	kind := "region"
	if v.Split {
		kind = "split region"
	}
	return fmt.Sprintf("atomicity violation in t%d's "+kind+" (lock l%d): %v at %s … %v at %s broken by t%d's %v at %s",
		tr.Event(v.First).Tid, v.Lock,
		tr.Event(v.First).Op, tr.LocName(tr.Event(v.First).Loc),
		tr.Event(v.Second).Op, tr.LocName(tr.Event(v.Second).Loc),
		tr.Event(v.Remote).Tid, tr.Event(v.Remote).Op, tr.LocName(tr.Event(v.Remote).Loc))
}

// Result is the outcome of a detection run.
type Result struct {
	Violations   []Violation
	Candidates   int
	Windows      int
	SolverAborts int
	Elapsed      time.Duration
	// Cancelled reports the run was interrupted by context cancellation;
	// the results cover the candidates decided before the cancel and are
	// sound but not maximal.
	Cancelled bool
}

// Detector is the predictive atomicity-violation detector.
type Detector struct {
	opt Options
}

// New returns a detector with the given options.
func New(opt Options) *Detector { return &Detector{opt: opt} }

// unserializable reports whether the (local, remote, local) operation
// triple is one of the four unserializable patterns.
func unserializable(e1, e3, e2 trace.Op) bool {
	r := func(op trace.Op) bool { return op == trace.OpRead }
	w := func(op trace.Op) bool { return op == trace.OpWrite }
	switch {
	case r(e1) && w(e3) && r(e2): // two reads see different values
		return true
	case w(e1) && w(e3) && r(e2): // read misses own write
		return true
	case r(e1) && w(e3) && w(e2): // lost update
		return true
	case w(e1) && r(e3) && w(e2): // remote sees half-done state
		return true
	}
	return false
}

type candidate struct {
	e1, e2, e3 int
	lock       trace.Addr
	split      bool
}

// Detect finds all feasible atomicity violations of tr.
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
	col := d.opt.Telemetry
	run := col.BeginRun()
	var res Result
	type sigKey [3]trace.Loc
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
		foundBefore := len(res.Violations)
		candsBefore := res.Candidates
		windowDone := func() {
			n := res.Candidates - candsBefore
			wspan.EndWindow(n, n, len(res.Violations)-foundBefore)
		}

		span := wspan.Child(telemetry.PhaseEnumerate, "enumerate")
		cands := candidates(w)
		span.End()
		if len(cands) == 0 {
			windowDone()
			return
		}
		span = wspan.Child(telemetry.PhaseEncode, "encode")
		mhb := vc.ComputeMHB(w)
		s := smt.NewSolver()
		s.SetCancel(func() bool { return ctx.Err() != nil })
		enc := encode.New(w, s, mhb, -1, -1)
		cf := encode.NewCF(enc, s)
		if err := enc.AssertMHB(); err != nil {
			span.End()
			col.AddSolver(s)
			windowDone()
			return
		}
		if err := enc.AssertLocks(); err != nil {
			span.End()
			col.AddSolver(s)
			windowDone()
			return
		}
		span.End()
		for _, c := range cands {
			if ctx.Err() != nil {
				res.Cancelled = true
				break
			}
			key := sigKey{w.Event(c.e1).Loc, w.Event(c.e3).Loc, w.Event(c.e2).Loc}
			if seen[key] {
				col.Add(telemetry.SigDedup, 1)
				continue
			}
			// MHB-ordered remotes can never move inside the region.
			if mhb.Before(c.e3, c.e1) || mhb.Before(c.e2, c.e3) {
				col.Add(telemetry.MHBFiltered, 1)
				continue
			}
			res.Candidates++
			col.Add(telemetry.Enumerated, 1)
			query := wspan.Query(wi, c.e1+offset, c.e2+offset)
			span = query.Child(telemetry.PhaseEncode, "encode")
			g := s.NewBoolLit()
			sandwich := smt.And(
				smt.Less(enc.Var(c.e1), enc.Var(c.e3)),
				smt.Less(enc.Var(c.e3), enc.Var(c.e2)),
				cf.ControlFlow(c.e1), cf.ControlFlow(c.e2), cf.ControlFlow(c.e3))
			if err := s.Implies(g, sandwich); err != nil {
				span.End()
				query.End()
				continue
			}
			span.End()
			if d.opt.SolveTimeout > 0 {
				s.SetDeadline(time.Now().Add(d.opt.SolveTimeout))
			}
			span = query.Child(telemetry.PhaseSolve, "solve")
			verdict := s.SolveAssuming(g)
			span.End()
			outcome := telemetry.OutcomeOf(s, verdict == sat.Sat, verdict == sat.Aborted)
			switch verdict {
			case sat.Sat:
				seen[key] = true
				v := Violation{
					First:  c.e1 + offset,
					Second: c.e2 + offset,
					Remote: c.e3 + offset,
					Lock:   c.lock,
					Split:  c.split,
				}
				if d.opt.Witness {
					span = query.Child(telemetry.PhaseWitness, "witness")
					v.Witness = sandwichWitness(enc, s, c)
					span.End()
					for k := range v.Witness {
						v.Witness[k] += offset
					}
				}
				res.Violations = append(res.Violations, v)
			case sat.Aborted:
				res.SolverAborts++
				if outcome == telemetry.OutcomeCancelled {
					res.Cancelled = true
				}
			}
			query.EndQuery(outcome, true)
		}
		col.AddSolver(s)
		windowDone()
	})
	if ctx.Err() != nil {
		res.Cancelled = true
	}
	res.Elapsed = run.End()
	return res
}

// candidates enumerates unserializable triples: per critical section, per
// location with ≥ 2 accesses, the (first, last) local access pair against
// every remote access whose thread does not also hold the region's lock at
// that access.
func candidates(tr *trace.Trace) []candidate {
	// Per-location accesses, and per-event set of held locks.
	byAddr := make(map[trace.Addr][]access)
	heldAt := make(map[int]map[trace.Addr]bool)
	cur := make(map[trace.TID]map[trace.Addr]bool)
	for i := 0; i < tr.Len(); i++ {
		e := tr.Event(i)
		switch e.Op {
		case trace.OpAcquire:
			if cur[e.Tid] == nil {
				cur[e.Tid] = make(map[trace.Addr]bool)
			}
			cur[e.Tid][e.Addr] = true
		case trace.OpRelease:
			delete(cur[e.Tid], e.Addr)
		case trace.OpRead, trace.OpWrite:
			if !tr.Volatile(e.Addr) {
				byAddr[e.Addr] = append(byAddr[e.Addr], access{idx: i, tid: e.Tid})
				if len(cur[e.Tid]) > 0 {
					hs := make(map[trace.Addr]bool, len(cur[e.Tid]))
					for l := range cur[e.Tid] {
						hs[l] = true
					}
					heldAt[i] = hs
				}
			}
		}
	}

	var out []candidate
	sections := tr.CriticalSections()
	for _, cs := range sections {
		if cs.Acquire < 0 || cs.Release < 0 {
			continue
		}
		// First and last access per location inside the section.
		firstOf := make(map[trace.Addr]int)
		lastOf := make(map[trace.Addr]int)
		for i := cs.Acquire + 1; i < cs.Release; i++ {
			e := tr.Event(i)
			if e.Tid != cs.Tid || !e.Op.IsAccess() || tr.Volatile(e.Addr) {
				continue
			}
			if _, ok := firstOf[e.Addr]; !ok {
				firstOf[e.Addr] = i
			}
			lastOf[e.Addr] = i
		}
		addrs := make([]trace.Addr, 0, len(firstOf))
		for a := range firstOf {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			e1, e2 := firstOf[a], lastOf[a]
			if e1 == e2 {
				continue
			}
			for _, acc := range byAddr[a] {
				if acc.tid == cs.Tid {
					continue
				}
				if heldAt[acc.idx][cs.Lock] {
					continue // same lock held: can never interleave
				}
				if unserializable(tr.Event(e1).Op, tr.Event(acc.idx).Op, tr.Event(e2).Op) {
					out = append(out, candidate{e1: e1, e2: e2, e3: acc.idx, lock: cs.Lock})
				}
			}
		}
	}
	// Split regions: two consecutive critical sections of one thread on
	// the same lock form an inferred atomic region (the check-then-act
	// idiom). The remote access may itself hold the lock — legally
	// interleaving between the two sections is exactly the bug.
	type threadLock struct {
		tid  trace.TID
		lock trace.Addr
	}
	prev := make(map[threadLock]trace.CriticalSection)
	for _, cs := range sections {
		if cs.Acquire < 0 || cs.Release < 0 {
			continue
		}
		key := threadLock{tid: cs.Tid, lock: cs.Lock}
		if p, ok := prev[key]; ok {
			out = append(out, splitCandidates(tr, byAddr, p, cs)...)
		}
		prev[key] = cs
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].e1 != out[j].e1 {
			return out[i].e1 < out[j].e1
		}
		if out[i].e2 != out[j].e2 {
			return out[i].e2 < out[j].e2
		}
		return out[i].e3 < out[j].e3
	})
	return out
}

// access is one shared-memory access site (event index and thread).
type access struct {
	idx int
	tid trace.TID
}

// splitCandidates pairs the last access of each location in section s1
// with the first access of the same location in the thread's next section
// s2 on the same lock, against every remote access.
func splitCandidates(tr *trace.Trace, byAddr map[trace.Addr][]access, s1, s2 trace.CriticalSection) []candidate {
	lastIn := make(map[trace.Addr]int)
	for i := s1.Acquire + 1; i < s1.Release; i++ {
		e := tr.Event(i)
		if e.Tid == s1.Tid && e.Op.IsAccess() && !tr.Volatile(e.Addr) {
			lastIn[e.Addr] = i
		}
	}
	firstIn := make(map[trace.Addr]int)
	for i := s2.Release - 1; i > s2.Acquire; i-- {
		e := tr.Event(i)
		if e.Tid == s2.Tid && e.Op.IsAccess() && !tr.Volatile(e.Addr) {
			firstIn[e.Addr] = i
		}
	}
	addrs := make([]trace.Addr, 0, len(lastIn))
	for a := range lastIn {
		if _, ok := firstIn[a]; ok {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var out []candidate
	for _, a := range addrs {
		e1, e2 := lastIn[a], firstIn[a]
		for _, acc := range byAddr[a] {
			if acc.tid == s1.Tid {
				continue
			}
			if unserializable(tr.Event(e1).Op, tr.Event(acc.idx).Op, tr.Event(e2).Op) {
				out = append(out, candidate{e1: e1, e2: e2, e3: acc.idx, lock: s1.Lock, split: true})
			}
		}
	}
	return out
}

// sandwichWitness returns the events ordered up to and including e2,
// sorted by model order.
func sandwichWitness(enc *encode.Encoder, s *smt.Solver, c candidate) []int {
	v2 := s.Value(enc.Var(c.e2))
	type ev struct {
		idx int
		val int64
	}
	var pre []ev
	for i := 0; i < enc.Trace().Len(); i++ {
		if v := s.Value(enc.Var(i)); v <= v2 {
			pre = append(pre, ev{idx: i, val: v})
		}
	}
	sort.Slice(pre, func(i, j int) bool {
		if pre[i].val != pre[j].val {
			return pre[i].val < pre[j].val
		}
		return pre[i].idx < pre[j].idx
	})
	out := make([]int, 0, len(pre))
	for _, p := range pre {
		out = append(out, p.idx)
	}
	return out
}
