// Package syncp implements a synchronization-preserving witness check in
// the style of Mathur, Pavlogiannis and Viswanathan ("Optimal Prediction
// of Synchronization-Preserving Races", POPL 2021), adapted to this
// repository's maximal-causality semantics: a conflicting pair is
// confirmed as a race by constructing an explicit reads-from-preserving
// witness prefix, so every confirmation is sound by construction — the
// SMT query the confirmation replaces is satisfiable, with the witness as
// its model.
//
// # The check
//
// The witness candidate for a COP (a, b) starts from the SR order
// (hb.SRClocks): program order, fork/join, wait/notify, volatile
// write→read and reads-from — every ordering a reads-from-preserving
// reordering must respect. Lock mutual exclusion is absent from SR, and
// re-establishing it per critical section is exactly what the check does:
//
//   - The closure S is the SR-downward closure of {a, b}. Scheduling S in
//     trace order with a and b moved to the end preserves program order
//     (each thread's members form a contiguous program-order prefix), all
//     reads-from edges, and every read's observed value.
//   - No member other than a and b may be SR-after a or b — otherwise the
//     pair cannot be adjacent and last. (A direct a →SR b edge can only be
//     the pair's own reads-from edge, which adjacency satisfies.)
//   - Per lock, the included critical sections (those intersecting S) must
//     serialize: sections completely inside S replay in trace order; at
//     most one section per lock may remain incomplete ("open", holding the
//     lock at the end of the prefix). An open section that is not the
//     last-starting included section of its lock would deadlock the trace-
//     order replay, so the check either completes it — adding its release
//     (and the release's own SR closure) to S, growing the closure to a
//     fixpoint — or, when completion is impossible because the release is
//     SR-after the racing pair (the section encloses a or b, the paper's
//     Figure 1 shape), postpones its acquire: the acquire alone is moved
//     to the very end of the prefix, just before a and b. The swap is
//     valid only if no member besides a and b is SR-after that acquire
//     (the moved acquire must not drag anything with it), and at most one
//     swap is allowed in total — every multi-swap schedule this check
//     could build is also reachable through completions, and the single-
//     swap restriction keeps the feasibility argument airtight.
//
// The resulting schedule — trace order over S minus the swapped acquire,
// then the swapped acquire, then a, then b — is a feasible reordered
// prefix with the pair adjacent (Definition 4 of the source paper): value
// consistency holds because reads keep their justifying writes, mutual
// exclusion holds by the section discipline above, and the control-flow
// obligations of the maximal-causality encoding are satisfied a fortiori
// (they constrain only branch-feeding reads, which the witness keeps
// fully consistent). The check therefore under-approximates the SMT
// verdict and never confirms an unsatisfiable query.
//
// The name is an homage, not an equivalence claim: the acquire-postponing
// swap deliberately relaxes the literature's strict same-lock
// serialization order (sync-preservation), which is what lets the check
// confirm the CP-style races of the paper's Figure 1 family.
package syncp

import (
	"sort"
	"time"

	"repro/internal/hb"
	"repro/internal/lockset"
	"repro/internal/race"
	"repro/internal/vc"
	"repro/trace"
)

// section is one critical section of the indexed window, with -1 for
// endpoints truncated by windowing (see trace.CriticalSections).
type section struct {
	lock     trace.Addr
	tid      trace.TID
	acq, rel int
}

// Index answers witness-check queries for one (windowed) trace. The SR
// clocks are borrowed, not owned — the caller (typically the triage tier)
// keeps them on the vc slab pool and releases them after the window; the
// Index itself holds only the section table. An Index is not safe for
// concurrent use: Check reuses internal scratch space, matching the
// canonical-order classification discipline of the triage tier.
type Index struct {
	tr     *trace.Trace
	sr     *hb.EventClocks
	secs   []section
	byLock [][]int // section indices per lock, trace order, sorted by lock
	first  map[trace.TID]int

	// scratch reused across Check calls.
	roots []vc.Clock
	relIn []bool // per section: release already added to the closure
}

// NewIndex builds the section table of tr over the caller's SR clocks
// (hb.SRClocks(tr); any sound strengthening of SR only shrinks the set of
// confirmable pairs, the conservative direction).
func NewIndex(tr *trace.Trace, sr *hb.EventClocks) *Index {
	x := &Index{tr: tr, sr: sr, first: make(map[trace.TID]int)}
	for i := 0; i < tr.Len(); i++ {
		t := tr.Event(i).Tid
		if _, ok := x.first[t]; !ok {
			x.first[t] = i
		}
	}
	perLock := make(map[trace.Addr][]int)
	for _, cs := range tr.CriticalSections() {
		perLock[cs.Lock] = append(perLock[cs.Lock], len(x.secs))
		x.secs = append(x.secs, section{lock: cs.Lock, tid: cs.Tid, acq: cs.Acquire, rel: cs.Release})
	}
	locks := make([]trace.Addr, 0, len(perLock))
	for l := range perLock {
		locks = append(locks, l)
	}
	// Sorted lock order keeps the closure construction deterministic (the
	// verdict feeds bit-identity-checked telemetry and provenance).
	sort.Slice(locks, func(i, j int) bool { return locks[i] < locks[j] })
	for _, l := range locks {
		x.byLock = append(x.byLock, perLock[l])
	}
	x.relIn = make([]bool, len(x.secs))
	return x
}

// member reports whether event f is in the closure spanned by roots.
func (x *Index) member(f int, roots []vc.Clock) bool {
	e := x.sr.Epoch(f)
	for _, c := range roots {
		if e.LessEqClock(c) {
			return true
		}
	}
	return false
}

// classify reports whether section s intersects the closure and whether
// its release is inside it. A truncated-acquire section is included as
// soon as its thread has any member (the thread's window prefix lies
// inside the section).
func (x *Index) classify(s *section, roots []vc.Clock) (included, complete bool) {
	if s.acq >= 0 {
		included = x.member(s.acq, roots)
	} else if f0, ok := x.first[s.tid]; ok {
		included = x.member(f0, roots)
	}
	if !included {
		return false, false
	}
	return true, s.rel >= 0 && x.member(s.rel, roots)
}

// Check reports whether the COP (a, b) has a reads-from-preserving witness
// prefix with the pair adjacent — a sound confirmation that the pair's
// maximal-causality race query is satisfiable. It never errs on the
// confirming side; a false return only means the cheap argument failed
// (the pair may still race, by value-abstracting reorderings only the
// solver can justify).
func (x *Index) Check(a, b int) bool {
	if a > b {
		a, b = b, a
	}
	sr := x.sr
	ea, eb := sr.Epoch(a), sr.Epoch(b)
	ca, cb := sr.Clock(a), sr.Clock(b)

	roots := append(x.roots[:0], ca, cb)
	for i := range x.relIn {
		x.relIn[i] = false
	}
	maxIdx := b

	swapped := -1 // section index whose acquire is postponed past the pair
	swappedLock := trace.Addr(0)

	// Grow the closure to a fixpoint: every open included section that is
	// not entitled to stay open is completed (its release joins the
	// closure) or its acquire is postponed; a section whose release is
	// SR-after the pair and whose acquire cannot move fails the check.
	for round := 0; ; round++ {
		if round > len(x.secs)+2 {
			return false // defensive: the loop adds one release per round
		}
		changed := false
		for _, idxs := range x.byLock {
			// The last-starting included section of the lock may stay open
			// (trace-order replay leaves it holding the lock at the end) —
			// unless a swapped acquire of the same lock already claims that
			// slot.
			last, lastStart := -1, -2
			for _, si := range idxs {
				s := &x.secs[si]
				if inc, _ := x.classify(s, roots); inc && s.acq > lastStart {
					last, lastStart = si, s.acq
				}
			}
			for _, si := range idxs {
				s := &x.secs[si]
				inc, comp := x.classify(s, roots)
				if !inc || comp || si == swapped {
					continue
				}
				if si == last && (swapped < 0 || swappedLock != s.lock) {
					continue // entitled to stay open
				}
				// Complete the section when its release is a real event not
				// SR-after the racing pair; this is exact — a release whose
				// closure would re-trip the pair-last condition is exactly
				// one with the pair SR-before it.
				if s.rel >= 0 && !x.relIn[si] &&
					!ea.LessEqClock(sr.Clock(s.rel)) && !eb.LessEqClock(sr.Clock(s.rel)) {
					x.relIn[si] = true
					roots = append(roots, sr.Clock(s.rel))
					if s.rel > maxIdx {
						maxIdx = s.rel
					}
					changed = true
					continue
				}
				// Postpone the acquire past the pair (at most once, real
				// acquires only); validity is re-verified at the fixpoint.
				if swapped < 0 && s.acq >= 0 {
					swapped, swappedLock = si, s.lock
					changed = true
					continue
				}
				return false
			}
		}
		if !changed {
			break
		}
	}
	x.roots = roots // retain scratch capacity

	// Verify the fixpoint. No member besides the pair may be SR-after a or
	// b (members live in [0, maxIdx]; SR ⊆ trace order confines
	// SR-successors of a to (a, maxIdx]).
	for f := a + 1; f <= maxIdx; f++ {
		if f == b || !x.member(f, roots) {
			continue
		}
		if ea.LessEqClock(sr.Clock(f)) || eb.LessEqClock(sr.Clock(f)) {
			return false
		}
	}
	// Per lock: at most one open included section, and it must be either
	// the last-starting included section or the swapped one.
	for _, idxs := range x.byLock {
		open, last, lastStart := -1, -1, -2
		for _, si := range idxs {
			s := &x.secs[si]
			inc, comp := x.classify(s, roots)
			if !inc {
				continue
			}
			if s.acq > lastStart {
				last, lastStart = si, s.acq
			}
			if !comp {
				if open >= 0 {
					return false
				}
				open = si
			}
		}
		if open >= 0 && open != swapped && open != last {
			return false
		}
	}
	if swapped >= 0 {
		// The swapped lock may not also keep a trace-order open section.
		for _, idxs := range x.byLock {
			if x.secs[idxs[0]].lock != swappedLock {
				continue
			}
			for _, si := range idxs {
				if si == swapped {
					continue
				}
				if inc, comp := x.classify(&x.secs[si], roots); inc && !comp {
					return false
				}
			}
		}
		// The postponed acquire must drag nothing with it: no member other
		// than the pair may be SR-after it.
		eo := sr.Epoch(x.secs[swapped].acq)
		for f := x.secs[swapped].acq + 1; f <= maxIdx; f++ {
			if f == a || f == b || !x.member(f, roots) {
				continue
			}
			if eo.LessEqClock(sr.Clock(f)) {
				return false
			}
		}
	}
	return true
}

// Options configures the standalone detector.
type Options struct {
	// WindowSize splits the trace into fixed-size windows; ≤ 0 analyses the
	// whole trace at once. The paper's default is 10000.
	WindowSize int
}

// Detector is the standalone cumulative sync-preserving detector: it
// reports every COP the SHB tier or the witness check confirms, one per
// signature. By construction its race set contains the SHB tier's and
// is contained in the maximal detector's — the inclusion chain the
// oracle test enforces.
type Detector struct {
	opt Options
}

// New returns a standalone SyncP detector.
func New(opt Options) *Detector { return &Detector{opt: opt} }

// Name implements race.Detector.
func (*Detector) Name() string { return "SyncP" }

// Detect reports all COPs confirmed by the SHB-or-witness chain.
func (d *Detector) Detect(tr *trace.Trace) race.Result {
	start := time.Now()
	var res race.Result
	seen := make(map[race.Signature]bool)
	res.Windows = race.Windows(tr, d.opt.WindowSize, func(w *trace.Trace, offset int) {
		mhb := vc.ComputeMHB(w)
		sets := lockset.ComputeWith(w, mhb)
		shb := hb.SHBClocks(w)
		sr := hb.SRClocks(w)
		idx := NewIndex(w, sr)
		race.EachCOP(w, func(cop race.COP) {
			sig := race.SigOf(w, cop.A, cop.B)
			if seen[sig] {
				return
			}
			res.COPsChecked++
			if !sets.Pass(cop.A, cop.B) {
				return
			}
			if ConfirmSHB(shb, cop.A, cop.B) || idx.Check(cop.A, cop.B) {
				seen[sig] = true
				res.Races = append(res.Races, race.Race{
					COP: race.COP{A: cop.A + offset, B: cop.B + offset},
					Sig: sig,
					Prov: race.Provenance{
						Tier: race.TierSyncP, Window: res.Windows,
					},
				})
			}
		})
		sr.Release()
		shb.Release()
		mhb.Release()
	})
	res.Elapsed = time.Since(start)
	return res
}

// ConfirmSHB is the first rung of the confirmation ladder, shared by the
// standalone detectors and mirrored by the core triage tier: the pair is
// SHB-concurrent, or is a write–read pair ordered only by its own
// reads-from edge (the pre-join check, hb.RFRaceable). Callers guarantee
// disjoint locksets.
func ConfirmSHB(shb *hb.EventClocks, a, b int) bool {
	if !shb.Epoch(a).LessEqClock(shb.Clock(b)) && !shb.Epoch(b).LessEqClock(shb.Clock(a)) {
		return true
	}
	return shb.RFRaceable(a, b)
}
