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
// Deadlock detection is a query kind of the core window pipeline
// (core.Kind): this package supplies the candidates, the guard, the
// witness and the report entry, and core.Runner does the rest. The
// window base is Φ_mhb plus the cut variant of Φ_lock (AssertLocksCut)
// over one cut variable per window, so each candidate's cut and ⟨cf⟩
// constraints are its guard.
//
// Like the race detector this is sound (every report is a real reachable
// deadlock) — in particular the classic gate-lock pattern, where both
// inversions are guarded by a common outer lock, is proved infeasible
// rather than heuristically suppressed.
package deadlock

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/race"
	"repro/internal/smt"
	"repro/internal/telemetry"
	"repro/internal/vc"
	"repro/trace"
)

// Kind is the deadlock query kind, for core.DetectKind and
// core.NewKindRunner. A finding's signature is the unordered pair of its
// two threads' static (held, blocked) acquire sites.
var Kind core.Kind[candidate, signature, Deadlock] = kind{}

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

	sig signature
}

// Describe renders the deadlock with location names.
func (d Deadlock) Describe(tr *trace.Trace) string {
	return fmt.Sprintf("deadlock: t%d holds l%d at %s wanting l%d at %s; t%d holds l%d at %s wanting l%d at %s",
		tr.Event(d.HeldAcquire1).Tid, d.LockA, tr.LocName(tr.Event(d.HeldAcquire1).Loc),
		d.LockB, tr.LocName(tr.Event(d.BlockedAcquire1).Loc),
		tr.Event(d.HeldAcquire2).Tid, d.LockB, tr.LocName(tr.Event(d.HeldAcquire2).Loc),
		d.LockA, tr.LocName(tr.Event(d.BlockedAcquire2).Loc))
}

// ValidateWitness checks a deadlock witness: a feasible schedule prefix
// of the window starting at event from (race.ValidatePrefix) that
// contains both held acquires and neither blocked acquire, leaves each
// thread one step from its blocked acquire, and ends with both held
// locks still held by their threads.
func ValidateWitness(tr *trace.Trace, witness []int, held, blocked [2]int, from int) error {
	pos, err := race.ValidatePrefix(tr, witness, from)
	if err != nil {
		return err
	}
	holder := make(map[trace.Addr]trace.TID)
	for _, idx := range witness {
		switch e := tr.Event(idx); e.Op {
		case trace.OpAcquire:
			holder[e.Addr] = e.Tid
		case trace.OpRelease:
			delete(holder, e.Addr)
		}
	}
	perThread := tr.ByThread()
	for k := range held {
		h, b := held[k], blocked[k]
		if _, ok := pos[h]; !ok {
			return fmt.Errorf("held acquire %d missing from the witness", h)
		}
		if _, ok := pos[b]; ok {
			return fmt.Errorf("blocked acquire %d scheduled in the witness", b)
		}
		evs := perThread[tr.Event(b).Tid]
		if i := slices.Index(evs, b); i > 0 && evs[i-1] >= from {
			if _, ok := pos[evs[i-1]]; !ok {
				return fmt.Errorf("event %d before blocked acquire %d missing from the witness", evs[i-1], b)
			}
		}
		e := tr.Event(h)
		if t, ok := holder[e.Addr]; !ok || t != e.Tid {
			return fmt.Errorf("lock l%d not held by t%d at the end of the witness", e.Addr, e.Tid)
		}
	}
	return nil
}

// nested describes one "acquire b while holding a" site.
type nested struct {
	tid      trace.TID
	lockA    trace.Addr
	acqA     int // acquire of the held lock
	lockB    trace.Addr
	acqB     int // the inner acquire
	predAcqB int // program-order predecessor of acqB
}

// candidate is one lock inversion: s1 holds s1.lockA wanting s1.lockB,
// s2 the other way round, s1.acqB < s2.acqB.
type candidate struct{ s1, s2 nested }

// signature is the unordered pair of the candidate's static (held,
// blocked) acquire-site pairs.
type signature [4]trace.Loc

type kind struct{}

// Partition enumerates the window's lock inversions, pairs of nested
// sites in trace order of their blocked acquires, and groups those whose
// signature is unseen. MHB is computed only for a window with a group.
func (kind) Partition(wspan *telemetry.Span, w *trace.Trace, seen map[signature]bool, fn *core.Funnel) ([]*core.Group[candidate, signature], *vc.MHB) {
	span := wspan.Child(telemetry.PhaseEnumerate, "enumerate")
	sites := nestedSites(w)
	var gr core.Grouper[candidate, signature]
	for i := 0; i < len(sites); i++ {
		for j := i + 1; j < len(sites); j++ {
			s1, s2 := sites[i], sites[j]
			if s1.tid == s2.tid || s1.lockA != s2.lockB || s1.lockB != s2.lockA {
				continue
			}
			fn.Enumerated++
			p1 := [2]trace.Loc{w.Event(s1.acqA).Loc, w.Event(s1.acqB).Loc}
			p2 := [2]trace.Loc{w.Event(s2.acqA).Loc, w.Event(s2.acqB).Loc}
			if p2[0] < p1[0] || (p2[0] == p1[0] && p2[1] < p1[1]) {
				p1, p2 = p2, p1
			}
			sig := signature{p1[0], p1[1], p2[0], p2[1]}
			if seen[sig] {
				fn.SigDedup++
				continue
			}
			fn.Dispatched++
			gr.Add(sig, candidate{s1, s2})
		}
	}
	span.End()
	if len(gr.Groups) == 0 {
		return nil, nil
	}
	span = wspan.Child(telemetry.PhaseMHB, "mhb")
	defer span.End()
	return gr.Groups, vc.ComputeMHB(w)
}

// Base asserts lock mutual exclusion within the prefix before the
// window's cut variable (encode.AssertLocksCut).
func (kind) Base(s *smt.Solver, enc *encode.Encoder, cf *encode.CF) (core.Queries[candidate], error) {
	q := queries{s: s, enc: enc, cf: cf, cut: s.IntVar()}
	return q, enc.AssertLocksCut(q.cut)
}

// Events names a deadlock query by its two blocked acquires.
func (kind) Events(c candidate) (a, b int) { return c.s1.acqB, c.s2.acqB }

func (kind) Entry(g *core.Group[candidate, signature], h core.Hit) Deadlock {
	c := g.Cands[h.K]
	return Deadlock{
		HeldAcquire1: c.s1.acqA + h.Offset, BlockedAcquire1: c.s1.acqB + h.Offset,
		HeldAcquire2: c.s2.acqA + h.Offset, BlockedAcquire2: c.s2.acqB + h.Offset,
		LockA: c.s1.lockA, LockB: c.s1.lockB,
		Witness: h.Witness,
		sig:     g.Sig,
	}
}

func (kind) Sig(d Deadlock) signature { return d.sig }

// nestedSites scans the trace for inner acquires performed while holding
// another lock, in trace order of the inner acquire and, for one inner
// acquire, in acquisition order of the held locks.
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
	return out
}

// queries are a window encoding's deadlock hooks, over the window's cut
// variable.
type queries struct {
	s   *smt.Solver
	enc *encode.Encoder
	cf  *encode.CF
	cut smt.IntVar
}

// Warm encodes nothing: a candidate's cf definitions are encoded by its
// own query.
func (queries) Warm(candidate) {}

// Guard places the cut after both threads' last events before their
// blocked acquires and before the blocked acquires themselves — the
// requests that can never be granted in the deadlocked state — and
// requires both blocked acquires to be reachable (⟨cf⟩).
func (q queries) Guard(c candidate) []*smt.Formula {
	return []*smt.Formula{
		smt.And(
			smt.Less(q.enc.Var(c.s1.predAcqB), q.cut),
			smt.Less(q.cut, q.enc.Var(c.s1.acqB)),
			smt.Less(q.enc.Var(c.s2.predAcqB), q.cut),
			smt.Less(q.cut, q.enc.Var(c.s2.acqB)),
		),
		q.cf.ControlFlow(c.s1.acqB),
		q.cf.ControlFlow(c.s2.acqB),
	}
}

// Witness returns the events ordered before the cut, in model order —
// the feasible prefix reaching the deadlocked state.
func (q queries) Witness(candidate) []int { return q.enc.Prefix(q.s.Value(q.cut)) }
