// Package encode builds the first-order order-variable constraints of
// Section 3.2 from a (windowed) trace: the must-happen-before constraints
// Φ_mhb, the lock mutual-exclusion constraints Φ_lock, and the read
// consistency machinery both SMT-based detectors share — the paper's
// technique (internal/core), which applies it only to control-flow-relevant
// reads, and the Said et al. baseline (internal/said), which applies it to
// every read.
package encode

import (
	"slices"
	"sort"

	"repro/internal/smt"
	"repro/internal/vc"
	"repro/trace"
)

// Encoder maps the events of one trace to integer order variables on an
// SMT solver and emits the shared constraint groups.
//
// The race condition itself can be encoded two ways. AssertAdjacent — the
// default used by the detectors — asserts |O_a − O_b| = 1, covering both
// adjacency directions (the paper's footnote 2: τ₁ab and τ₁ba are
// equivalent for racing), and keeps the two events on distinct variables so
// every read-consistency atom mentioning them stays exact. Alternatively,
// constructing the encoder with mergeA/mergeB ≥ 0 merges the pair onto one
// variable, the trick the paper's implementation uses ("we simply replace
// O_a by O_b"); it is slightly cheaper but degenerates atoms between the
// two racing events themselves (e.g. a racing read can no longer be
// justified by reading from the racing write), so it is kept as the
// ablation variant.
type Encoder struct {
	tr   *trace.Trace
	s    *smt.Solver
	mhb  *vc.MHB
	vars []smt.IntVar

	// Pruning enables the ≺-based constraint reductions at the end of
	// Section 3.2. It is on by default; the ablation benchmark turns it
	// off.
	Pruning bool

	// writesTo caches, per location, the indices of write events.
	writesTo map[trace.Addr][]int
}

// New returns an encoder for tr on s. mergeA/mergeB, when ≥ 0, are the COP
// events sharing one order variable; pass -1, -1 for no merge.
func New(tr *trace.Trace, s *smt.Solver, mhb *vc.MHB, mergeA, mergeB int) *Encoder {
	e := &Encoder{
		tr:      tr,
		s:       s,
		mhb:     mhb,
		vars:    make([]smt.IntVar, tr.Len()),
		Pruning: true,
	}
	// Seed every order variable with its event's position: the observed
	// trace satisfies all constraints except the race condition itself, so
	// the theory accepts the bulk of the encoding without repair work.
	var merged smt.IntVar
	if mergeA >= 0 {
		merged = s.IntVarAt(int64(mergeA))
	}
	for i := range e.vars {
		if i == mergeA || i == mergeB {
			e.vars[i] = merged
		} else {
			e.vars[i] = s.IntVarAt(int64(i))
		}
	}
	return e
}

// Var returns the order variable O_e of event i.
func (e *Encoder) Var(i int) smt.IntVar { return e.vars[i] }

// AssertAdjacent asserts the race condition for the COP (a, b): the two
// events are scheduled next to each other, in either direction —
// (O_b = O_a + 1) ∨ (O_a = O_b + 1). Strictly ordered pairs always receive
// order values differing by at least one, so a unit gap admits no event in
// between.
func (e *Encoder) AssertAdjacent(a, b int) error {
	return e.s.Assert(e.Adjacent(a, b))
}

// Adjacent returns the race-condition formula for the COP (a, b), for the
// caller to assert directly or behind a guard literal.
func (e *Encoder) Adjacent(a, b int) *smt.Formula {
	oa, ob := e.vars[a], e.vars[b]
	ab := smt.And(smt.Diff(ob, oa, 1), smt.Diff(oa, ob, -1)) // O_b = O_a + 1
	ba := smt.And(smt.Diff(oa, ob, 1), smt.Diff(ob, oa, -1)) // O_a = O_b + 1
	return smt.Or(ab, ba)
}

// MHB returns the must-happen-before clocks the encoder prunes with.
func (e *Encoder) MHB() *vc.MHB { return e.mhb }

// Trace returns the encoded trace.
func (e *Encoder) Trace() *trace.Trace { return e.tr }

// before reports i ≺ j under MHB when pruning is enabled, false otherwise
// (disabling pruning must only grow the emitted formula, never change its
// meaning).
func (e *Encoder) before(i, j int) bool {
	return e.Pruning && e.mhb.Before(i, j)
}

// AssertMHB asserts Φ_mhb: program order between consecutive events of
// each thread, fork→begin, end→join, and the release→notify→acquire
// bracketing of each wait/notify link. The constraint count is linear in
// the window (transitivity lives in the theory).
//
// With Pruning enabled, cross-thread edges that are transitively implied
// by the rest of the generator set are skipped (see redundantEdge): the
// asserted formula shrinks, its integer-order models are unchanged.
func (e *Encoder) AssertMHB() error {
	tr := e.tr
	last := make(map[trace.TID]int)    // thread -> previous event index
	firstOf := make(map[trace.TID]int) // thread -> first event index
	lastOf := make(map[trace.TID]int)  // thread -> last event index so far
	// Program-order neighbours, for the transitive-reduction check.
	next := make([]int, tr.Len())
	prev := make([]int, tr.Len())
	for i := range next {
		next[i], prev[i] = -1, -1
	}
	for i := 0; i < tr.Len(); i++ {
		ev := tr.Event(i)
		if p, ok := last[ev.Tid]; ok {
			next[p], prev[i] = i, p
			if err := e.s.Assert(smt.Less(e.vars[p], e.vars[i])); err != nil {
				return err
			}
		} else {
			firstOf[ev.Tid] = i
		}
		last[ev.Tid] = i
		lastOf[ev.Tid] = i
	}
	cross := func(u, v int) error {
		if e.Pruning && e.redundantEdge(u, v, next[u], prev[v]) {
			return nil
		}
		return e.s.Assert(smt.Less(e.vars[u], e.vars[v]))
	}
	for i := 0; i < tr.Len(); i++ {
		ev := tr.Event(i)
		switch ev.Op {
		case trace.OpFork:
			if f, ok := firstOf[ev.Child()]; ok && f > i {
				if err := cross(i, f); err != nil {
					return err
				}
			}
		case trace.OpJoin:
			if l, ok := lastOf[ev.Child()]; ok && l < i {
				if err := cross(l, i); err != nil {
					return err
				}
			}
		}
	}
	for _, ln := range tr.NotifyLinks() {
		if err := cross(ln.Release, ln.Notify); err != nil {
			return err
		}
		if err := cross(ln.Notify, ln.Acquire); err != nil {
			return err
		}
	}
	return nil
}

// redundantEdge reports whether the cross-thread order constraint u < v is
// transitively implied by the remaining Φ_mhb generators: an intermediate
// w with u ≺ w ≺ v, where u → w is u's program-order edge (always kept) or
// w → v is v's program-order edge. Every MHB generator points forward in
// trace order, so the implying two-step path involves strictly shorter
// spans and the standard DAG transitive-reduction argument applies:
// dropping all such edges at once leaves the ≺ closure — and hence the
// formula's model set — unchanged.
func (e *Encoder) redundantEdge(u, v, nextU, prevV int) bool {
	if nextU >= 0 && nextU != v && e.mhb.Before(nextU, v) {
		return true
	}
	if prevV >= 0 && prevV != u && e.mhb.Before(u, prevV) {
		return true
	}
	return false
}

// AssertLocks asserts Φ_lock: for every two critical sections over the
// same lock by different threads, either one's release precedes the
// other's acquire or vice versa. Sections truncated by the window use the
// window edge as the missing endpoint (the available half of the
// constraint).
func (e *Encoder) AssertLocks() error {
	byLock := make(map[trace.Addr][]trace.CriticalSection)
	for _, cs := range e.tr.CriticalSections() {
		byLock[cs.Lock] = append(byLock[cs.Lock], cs)
	}
	locks := make([]trace.Addr, 0, len(byLock))
	for l := range byLock {
		locks = append(locks, l)
	}
	sort.Slice(locks, func(i, j int) bool { return locks[i] < locks[j] })
	for _, l := range locks {
		secs := byLock[l]
		for i := 0; i < len(secs); i++ {
			for j := i + 1; j < len(secs); j++ {
				s1, s2 := secs[i], secs[j]
				if s1.Tid == s2.Tid {
					continue // ordered by program order already
				}
				can12 := s1.Release >= 0 && s2.Acquire >= 0
				can21 := s2.Release >= 0 && s1.Acquire >= 0
				if e.Pruning {
					// A disjunct already forced by Φ_mhb (the sections are
					// must-ordered, e.g. across a fork or join) makes the
					// whole disjunction entailed — skip it.
					if (can12 && e.mhb.Before(s1.Release, s2.Acquire)) ||
						(can21 && e.mhb.Before(s2.Release, s1.Acquire)) {
						continue
					}
					// A disjunct contradicted by Φ_mhb can never hold; drop
					// it and assert the surviving one as a unit constraint.
					// Only one direction can be contradicted (the observed
					// trace satisfies Φ_mhb and serialises the sections one
					// way), and a disjunct is dropped only when the other
					// remains, so the asserted models are unchanged.
					if can12 && can21 {
						if e.mhb.Before(s2.Acquire, s1.Release) {
							can12 = false
						} else if e.mhb.Before(s1.Acquire, s2.Release) {
							can21 = false
						}
					}
				}
				var opts []*smt.Formula
				if can12 {
					opts = append(opts, smt.Less(e.vars[s1.Release], e.vars[s2.Acquire]))
				}
				if can21 {
					opts = append(opts, smt.Less(e.vars[s2.Release], e.vars[s1.Acquire]))
				}
				if len(opts) == 0 {
					// Both sections truncated on the needed side: the
					// window cannot order them; skip (conservative for the
					// window boundary, like the paper's windowing).
					continue
				}
				if err := e.s.Assert(smt.Or(opts...)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// AssertLocksCut asserts the prefix-relative lock mutual-exclusion
// constraints used by the deadlock detector: two critical sections on the
// same lock must not overlap *within the prefix of events ordered before
// the cut variable* —
//
//	rel₁ < acq₂ ∨ cut < acq₂ ∨ rel₂ < acq₁ ∨ cut < acq₁
//
// Events after the cut are unconstrained, which is what makes a genuinely
// deadlocked prefix satisfiable: a full-trace valuation could never
// complete past a real deadlock (the blocked acquires form an order
// cycle), so the global Φ_lock of AssertLocks would reject every true
// positive.
func (e *Encoder) AssertLocksCut(cut smt.IntVar) error {
	byLock := make(map[trace.Addr][]trace.CriticalSection)
	for _, cs := range e.tr.CriticalSections() {
		byLock[cs.Lock] = append(byLock[cs.Lock], cs)
	}
	locks := make([]trace.Addr, 0, len(byLock))
	for l := range byLock {
		locks = append(locks, l)
	}
	sort.Slice(locks, func(i, j int) bool { return locks[i] < locks[j] })
	for _, l := range locks {
		secs := byLock[l]
		for i := 0; i < len(secs); i++ {
			for j := i + 1; j < len(secs); j++ {
				s1, s2 := secs[i], secs[j]
				if s1.Tid == s2.Tid {
					continue
				}
				var opts []*smt.Formula
				if s1.Release >= 0 && s2.Acquire >= 0 {
					opts = append(opts, smt.Less(e.vars[s1.Release], e.vars[s2.Acquire]))
				}
				if s2.Release >= 0 && s1.Acquire >= 0 {
					opts = append(opts, smt.Less(e.vars[s2.Release], e.vars[s1.Acquire]))
				}
				if s2.Acquire >= 0 {
					opts = append(opts, smt.Less(cut, e.vars[s2.Acquire]))
				}
				if s1.Acquire >= 0 {
					opts = append(opts, smt.Less(cut, e.vars[s1.Acquire]))
				}
				if len(opts) == 0 {
					continue
				}
				if err := e.s.Assert(smt.Or(opts...)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// writes returns the indices of writes to x, cached.
func (e *Encoder) writes(x trace.Addr) []int {
	if e.writesTo == nil {
		e.writesTo = make(map[trace.Addr][]int)
		for i := 0; i < e.tr.Len(); i++ {
			ev := e.tr.Event(i)
			if ev.Op == trace.OpWrite {
				e.writesTo[ev.Addr] = append(e.writesTo[ev.Addr], i)
			}
		}
	}
	return e.writesTo[x]
}

// ReadConsistent returns the formula stating that read event r observes
// exactly the value it read in the original trace — the paper's cf(r) with
// the feasibility of each candidate write supplied by feas (the
// control-flow detectors pass cf(w) references; Said et al. passes
// constant true).
//
// The formula is the disjunction, over candidate writes w of the same
// value, of
//
//	feas(w) ∧ O_w < O_r ∧ ⋀_{w'≠w} (O_w' < O_w ∨ O_r < O_w')
//
// plus, when r's value equals the location's initial value, the
// no-write-before-r disjunct ⋀_{w'} O_r < O_w'. With pruning on, the
// ≺-based reductions of Section 3.2 drop vacuous and impossible cases.
func (e *Encoder) ReadConsistent(r int, feas func(w int) *smt.Formula) *smt.Formula {
	rev := e.tr.Event(r)
	x, v := rev.Addr, rev.Value
	all := e.writes(x)

	// W^r: interfering writes — exclude w' that must follow r.
	interferers := make([]int, 0, len(all))
	for _, w := range all {
		if w == r || e.before(r, w) {
			continue
		}
		interferers = append(interferers, w)
	}

	var disjuncts []*smt.Formula
	for _, w := range interferers {
		wev := e.tr.Event(w)
		if wev.Value != v {
			continue // not in W^r_v
		}
		// Prune w if some other write is MHB-between w and r.
		shadowed := false
		for _, w2 := range interferers {
			if w2 != w && e.before(w, w2) && e.before(w2, r) {
				shadowed = true
				break
			}
		}
		if shadowed {
			continue
		}
		conj := []*smt.Formula{feas(w)}
		if !e.before(w, r) {
			conj = append(conj, smt.Less(e.vars[w], e.vars[r]))
		}
		feasible := true
		for _, w2 := range interferers {
			if w2 == w {
				continue
			}
			if e.before(w2, w) {
				continue // O_w2 < O_w holds in every feasible order
			}
			if e.before(w, w2) && e.before(w2, r) {
				feasible = false // w2 is forced between w and r
				break
			}
			conj = append(conj,
				smt.Or(smt.Less(e.vars[w2], e.vars[w]), smt.Less(e.vars[r], e.vars[w2])))
		}
		if !feasible {
			continue
		}
		disjuncts = append(disjuncts, smt.And(conj...))
	}

	// Initial-value disjunct: no write to x before r at all.
	if v == e.tr.Initial(x) {
		conj := make([]*smt.Formula, 0, len(interferers)+1)
		possible := true
		for _, w2 := range interferers {
			if e.before(w2, r) {
				possible = false
				break
			}
			conj = append(conj, smt.Less(e.vars[r], e.vars[w2]))
		}
		if possible {
			disjuncts = append(disjuncts, smt.And(conj...))
		}
	}
	return smt.Or(disjuncts...)
}

// Witness reconstructs a witness schedule from the solver model: the
// events ordered before the racing pair, followed by the pair adjacently
// in its model order — the trace τ₁ab (or τ₁ba) of Definition 4. Returned
// indices refer to the encoded (window) trace.
//
// Events are included when their order value is strictly below the later
// pair member's, and sorted by (value, trace index). Ties are safe to
// break by trace order: any pair related by an asserted (true) strict atom
// receives distinct values, so tied events are mutually unconstrained; and
// a tied event never has to follow the racing pair, since an atom forcing
// that would have pushed its value higher.
func (e *Encoder) Witness(a, b int) []int {
	va, vb := e.s.Value(e.vars[a]), e.s.Value(e.vars[b])
	if vb < va {
		a, b = b, a
		vb = va
	}
	// Include events valued strictly below the later pair member. In
	// explicit-adjacency mode (vb = va+1) this admits ties with the earlier
	// member, which may carry a true e<b atom; in merged mode (va = vb)
	// ties are unconstrained against the pair and are left out.
	out := slices.DeleteFunc(e.Prefix(vb), func(i int) bool { return i == a })
	return append(out, a, b)
}

// Prefix returns, after a satisfiable solve, the events whose order value
// is below bound, sorted by (value, trace index): the schedule prefix the
// model orders before that point. It is the witness of the deadlock and
// atomicity query kinds.
func (e *Encoder) Prefix(bound int64) []int {
	type ev struct {
		idx int
		val int64
	}
	var pre []ev
	for i := range e.vars {
		if v := e.s.Value(e.vars[i]); v < bound {
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
