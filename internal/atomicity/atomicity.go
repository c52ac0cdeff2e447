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
//
// Atomicity checking is a query kind of the core window pipeline
// (core.Kind): this package supplies the candidates, the guard, the
// witness and the report entry, and core.Runner does the rest, on a
// window base of Φ_mhb ∧ Φ_lock.
package atomicity

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/race"
	"repro/internal/smt"
	"repro/internal/telemetry"
	"repro/internal/vc"
	"repro/trace"
)

// Kind is the atomicity query kind, for core.DetectKind and
// core.NewKindRunner. A finding's signature is the static locations of
// its (first, remote, second) accesses.
var Kind core.Kind[candidate, signature, Violation] = kind{}

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

	sig signature
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

// ValidateWitness checks an atomicity-violation witness: a feasible
// schedule prefix of the window starting at event from
// (race.ValidatePrefix) that ends with the region's second access and
// schedules the remote access strictly between the region's first and
// second.
func ValidateWitness(tr *trace.Trace, witness []int, first, remote, second, from int) error {
	pos, err := race.ValidatePrefix(tr, witness, from)
	if err != nil {
		return err
	}
	if n := len(witness); n == 0 || witness[n-1] != second {
		return fmt.Errorf("witness does not end with the second access %d", second)
	}
	pf, okF := pos[first]
	pr, okR := pos[remote]
	if !okF || !okR || !(pf < pr && pr < pos[second]) {
		return fmt.Errorf("witness does not schedule remote %d between %d and %d", remote, first, second)
	}
	return nil
}

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

// signature is the static locations of a candidate's first, remote and
// second access.
type signature [3]trace.Loc

func (c candidate) sig(tr *trace.Trace) signature {
	return signature{tr.Event(c.e1).Loc, tr.Event(c.e3).Loc, tr.Event(c.e2).Loc}
}

type kind struct{}

// Partition enumerates the window's unserializable triples in canonical
// order (candidates) and groups those whose signature is unseen and
// whose remote access is not ordered out of the region by
// must-happen-before: such a remote can never move inside the region.
// MHB is computed only once some candidate is unseen.
func (kind) Partition(wspan *telemetry.Span, w *trace.Trace, seen map[signature]bool, fn *core.Funnel) ([]*core.Group[candidate, signature], *vc.MHB) {
	span := wspan.Child(telemetry.PhaseEnumerate, "enumerate")
	cands, deduped := candidates(w, seen)
	span.End()
	fn.Enumerated += len(cands) + deduped
	fn.SigDedup += deduped
	var (
		gr  core.Grouper[candidate, signature]
		mhb *vc.MHB
	)
	for _, c := range cands {
		sig := c.sig(w)
		if mhb == nil {
			span = wspan.Child(telemetry.PhaseMHB, "mhb")
			mhb = vc.ComputeMHB(w)
			span.End()
		}
		if mhb.Before(c.e3, c.e1) || mhb.Before(c.e2, c.e3) {
			fn.MHBFiltered++
			continue
		}
		fn.Dispatched++
		gr.Add(sig, c)
	}
	return gr.Groups, mhb
}

// Base asserts Φ_lock.
func (kind) Base(s *smt.Solver, enc *encode.Encoder, cf *encode.CF) (core.Queries[candidate], error) {
	return queries{s: s, enc: enc, cf: cf}, enc.AssertLocks()
}

// Events names an atomicity query by the region's two accesses.
func (kind) Events(c candidate) (a, b int) { return c.e1, c.e2 }

func (kind) Entry(g *core.Group[candidate, signature], h core.Hit) Violation {
	c := g.Cands[h.K]
	return Violation{
		First:   c.e1 + h.Offset,
		Second:  c.e2 + h.Offset,
		Remote:  c.e3 + h.Offset,
		Lock:    c.lock,
		Split:   c.split,
		Witness: h.Witness,
		sig:     g.Sig,
	}
}

func (kind) Sig(v Violation) signature { return v.sig }

// candidates enumerates unserializable triples: per critical section, per
// location with ≥ 2 accesses, the (first, last) local access pair against
// every remote access whose thread does not also hold the region's lock at
// that access. A triple whose signature is in seen is counted in deduped
// but not built.
func candidates(tr *trace.Trace, seen map[signature]bool) (out []candidate, deduped int) {
	// Per-location accesses, each with the locks its thread held. A
	// thread's held set is replaced, never changed in place, at every
	// acquire and release, so accesses share it without a copy.
	byAddr := make(map[trace.Addr][]access)
	held := make(map[trace.TID][]trace.Addr)
	for i := 0; i < tr.Len(); i++ {
		e := tr.Event(i)
		switch e.Op {
		case trace.OpAcquire:
			if hs := held[e.Tid]; !slices.Contains(hs, e.Addr) {
				held[e.Tid] = append(slices.Clip(hs), e.Addr)
			}
		case trace.OpRelease:
			if hs := held[e.Tid]; slices.Contains(hs, e.Addr) {
				held[e.Tid] = slices.DeleteFunc(slices.Clone(hs), func(l trace.Addr) bool { return l == e.Addr })
			}
		case trace.OpRead, trace.OpWrite:
			if !tr.Volatile(e.Addr) {
				byAddr[e.Addr] = append(byAddr[e.Addr], access{idx: i, tid: e.Tid, held: held[e.Tid]})
			}
		}
	}
	// add keeps the triple (e1, remote, e2) if it is unserializable and
	// its signature unseen.
	add := func(e1, e2 int, remote access, lock trace.Addr, split bool) {
		if !unserializable(tr.Event(e1).Op, tr.Event(remote.idx).Op, tr.Event(e2).Op) {
			return
		}
		c := candidate{e1: e1, e2: e2, e3: remote.idx, lock: lock, split: split}
		if seen[c.sig(tr)] {
			deduped++
			return
		}
		out = append(out, c)
	}

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
				// A remote holding the region's lock can never interleave.
				if acc.tid != cs.Tid && !slices.Contains(acc.held, cs.Lock) {
					add(e1, e2, acc, cs.Lock, false)
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
			splitCandidates(tr, byAddr, p, cs, add)
		}
		prev[key] = cs
	}

	// Stable, so triples that differ only in their lock keep the order
	// they were found in, whatever seen filtered out.
	slices.SortStableFunc(out, func(a, b candidate) int {
		return cmp.Or(cmp.Compare(a.e1, b.e1), cmp.Compare(a.e2, b.e2), cmp.Compare(a.e3, b.e3))
	})
	return out, deduped
}

// access is one shared-memory access site: event index, thread, and the
// locks the thread held.
type access struct {
	idx  int
	tid  trace.TID
	held []trace.Addr
}

// splitCandidates pairs the last access of each location in section s1
// with the first access of the same location in the thread's next section
// s2 on the same lock, against every remote access, and hands each triple
// to add.
func splitCandidates(tr *trace.Trace, byAddr map[trace.Addr][]access, s1, s2 trace.CriticalSection,
	add func(e1, e2 int, remote access, lock trace.Addr, split bool)) {
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
	for _, a := range addrs {
		e1, e2 := lastIn[a], firstIn[a]
		for _, acc := range byAddr[a] {
			if acc.tid != s1.Tid {
				add(e1, e2, acc, s1.Lock, true)
			}
		}
	}
}

// queries are a window encoding's atomicity hooks.
type queries struct {
	s   *smt.Solver
	enc *encode.Encoder
	cf  *encode.CF
}

// Warm encodes nothing: a candidate's cf definitions are encoded by its
// own query.
func (queries) Warm(candidate) {}

// Guard is the sandwich O(e1) < O(e3) < O(e2) with the control-flow
// feasibility of all three accesses.
func (q queries) Guard(c candidate) []*smt.Formula {
	return []*smt.Formula{smt.And(
		smt.Less(q.enc.Var(c.e1), q.enc.Var(c.e3)),
		smt.Less(q.enc.Var(c.e3), q.enc.Var(c.e2)),
		q.cf.ControlFlow(c.e1), q.cf.ControlFlow(c.e2), q.cf.ControlFlow(c.e3))}
}

// Witness returns the events ordered up to and including e2, in model
// order.
func (q queries) Witness(c candidate) []int { return q.enc.Prefix(q.s.Value(q.enc.Var(c.e2)) + 1) }
