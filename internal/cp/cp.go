// Package cp implements the causally-precedes (CP) race detector of
// Smaragdakis et al. (POPL 2012), the second sound baseline of the paper's
// evaluation (Table 1, column "CP").
//
// CP soundly relaxes happens-before by keeping a release→acquire edge
// between two critical sections of the same lock only when the sections
// must not be commuted:
//
//	(i)   rel(S1) CP acq(S2) if S1 and S2 are critical sections over the
//	      same lock (S1 first in the lock's serialisation) containing
//	      conflicting accesses;
//	(ii)  rel(S1) CP acq(S2) if the sections contain events x ∈ S1, y ∈ S2
//	      with x CP y;
//	(iii) CP is closed under composition with HB on either side.
//
// A COP (a, b) is reported as a race when a does not causally-precede b and
// the pair is not ordered by the hard happens-before edges (program order,
// fork/join, wait/notify, volatile write→read), which no sound detector may
// relax without value reasoning — only lock edges are relaxable. This matches
// the paper's Figure 1 discussion: the write at line 3 causally-precedes
// the read at line 10 only because the two lock regions conflict on y, so
// CP misses that race while the control-flow-aware technique finds it.
//
// Because CP ⊆ HB as a relation, every HB race is also a CP race; the
// converse fails exactly on the dropped lock edges.
package cp

import (
	"sort"
	"time"

	"repro/internal/hb"
	"repro/internal/race"
	"repro/trace"
)

// Options configures the detector.
type Options struct {
	// WindowSize splits the trace into fixed-size windows; ≤ 0 analyses the
	// whole trace at once. The paper's default is 10000.
	WindowSize int
}

// Detector is the causally-precedes baseline.
type Detector struct {
	opt Options
}

// New returns a CP detector.
func New(opt Options) *Detector { return &Detector{opt: opt} }

// Name implements race.Detector.
func (*Detector) Name() string { return "CP" }

// Detect reports all COPs not CP-ordered, one per signature.
func (d *Detector) Detect(tr *trace.Trace) race.Result {
	start := time.Now()
	var res race.Result
	seen := make(map[race.Signature]bool)
	res.Windows = race.Windows(tr, d.opt.WindowSize, func(w *trace.Trace, offset int) {
		rel := Compute(w)
		race.EachCOP(w, func(cop race.COP) {
			sig := race.SigOf(w, cop.A, cop.B)
			if seen[sig] {
				return
			}
			res.COPsChecked++
			if !rel.Ordered(cop.A, cop.B) {
				seen[sig] = true
				res.Races = append(res.Races, race.Race{
					COP: race.COP{A: cop.A + offset, B: cop.B + offset},
					Sig: sig,
				})
			}
		})
	})
	res.Elapsed = time.Since(start)
	return res
}

// corePair is a CP edge between a release and a later acquire of one lock,
// from rules (i)/(ii); full CP is its composition closure with HB.
// Sections truncated by the analysis window use sentinel endpoints: a
// release outside the window acts as +∞ (everything in the window precedes
// it) and an acquire outside as −∞, which only ever adds CP ordering —
// the sound direction for a no-false-positive detector.
type corePair struct {
	rel, acq int
}

const (
	relInf = -2 // release beyond the window end
	acqInf = -3 // acquire before the window start
)

// Relation answers CP-ordering queries for one (windowed) trace.
type Relation struct {
	hb   *hb.EventClocks // full happens-before, for rule (iii) composition
	hard *hb.EventClocks // non-relaxable order: HB minus lock edges
	core []corePair
}

// section is a critical section restricted to its own thread's events.
type section struct {
	cs       trace.CriticalSection
	acc      map[trace.Addr]uint8 // 1 = read, 2 = write bits
	acqIdx   int                  // acquire event index (window-clamped)
	relIdx   int                  // release event index (window-clamped)
	complete bool                 // both endpoints inside the window
}

// Compute builds the CP relation of tr: critical-section contents, the
// rule (i) seed pairs, and the rule (ii) fixpoint.
func Compute(tr *trace.Trace) *Relation {
	r := &Relation{hb: hb.Clocks(tr), hard: hb.ClocksOpt(tr, false)}

	// Gather critical sections per lock, with per-section access summaries
	// (only the owning thread's accesses between the endpoints).
	all := tr.CriticalSections()
	byLock := make(map[trace.Addr][]*section)
	for _, cs := range all {
		s := &section{cs: cs, acc: make(map[trace.Addr]uint8)}
		s.acqIdx, s.relIdx = cs.Acquire, cs.Release
		if s.acqIdx < 0 {
			s.acqIdx = acqInf
		}
		if s.relIdx < 0 {
			s.relIdx = relInf
		}
		s.complete = cs.Acquire >= 0 && cs.Release >= 0
		lo, hi := cs.Acquire, cs.Release
		if lo < 0 {
			lo = 0
		}
		if hi < 0 {
			hi = tr.Len() - 1
		}
		for i := lo; i <= hi; i++ {
			e := tr.Event(i)
			if e.Tid != cs.Tid || !e.Op.IsAccess() {
				continue
			}
			if e.Op == trace.OpRead {
				s.acc[e.Addr] |= 1
			} else {
				s.acc[e.Addr] |= 2
			}
		}
		byLock[cs.Lock] = append(byLock[cs.Lock], s)
	}
	locks := make([]trace.Addr, 0, len(byLock))
	for l := range byLock {
		locks = append(locks, l)
	}
	sort.Slice(locks, func(i, j int) bool { return locks[i] < locks[j] })

	// Rule (i): seed core pairs from conflicting section contents.
	type candidate struct{ s1, s2 *section }
	var candidates []candidate
	for _, l := range locks {
		secs := byLock[l]
		for i := 0; i < len(secs); i++ {
			for j := i + 1; j < len(secs); j++ {
				s1, s2 := secs[i], secs[j]
				if s1.cs.Tid == s2.cs.Tid {
					continue
				}
				if sectionsConflict(s1, s2) {
					r.core = append(r.core, corePair{rel: s1.relIdx, acq: s2.acqIdx})
				} else {
					candidates = append(candidates, candidate{s1, s2})
				}
			}
		}
	}

	// Rule (ii) fixpoint: promote candidate pairs whose sections contain
	// CP-ordered events. ∃x∈S1: x ⊑HB rel ⟺ acq1 ⊑HB rel, and
	// ∃y∈S2: acq ⊑HB y ⟺ acq ⊑HB rel2, so the membership tests reduce to
	// endpoint comparisons against existing core pairs.
	for changed := true; changed; {
		changed = false
		kept := candidates[:0]
		for _, c := range candidates {
			if r.cpBetween(c.s1.acqIdx, c.s2.relIdx) {
				r.core = append(r.core, corePair{rel: c.s1.relIdx, acq: c.s2.acqIdx})
				changed = true
			} else {
				kept = append(kept, c)
			}
		}
		candidates = kept
	}
	return r
}

func sectionsConflict(s1, s2 *section) bool {
	a, b := s1.acc, s2.acc
	if len(b) < len(a) {
		a, b = b, a
	}
	for addr, bits := range a {
		other, ok := b[addr]
		if !ok {
			continue
		}
		if bits&2 != 0 || other&2 != 0 {
			return true
		}
	}
	return false
}

// hbLE reports i ⊑HB j (happens-before or equal), treating the window
// sentinels as −∞ (acqInf, before everything) and +∞ (relInf, after
// everything).
func (r *Relation) hbLE(i, j int) bool {
	if i == acqInf || j == relInf {
		return true
	}
	if i == relInf || j == acqInf {
		return false
	}
	return i == j || r.hb.Before(i, j)
}

// cpBetween reports whether some event HB-after-or-equal i CP-precedes some
// event HB-before-or-equal j, i.e. whether i CP j holds through the core
// pairs and HB composition (rule iii).
func (r *Relation) cpBetween(i, j int) bool {
	for _, p := range r.core {
		if r.hbLE(i, p.rel) && r.hbLE(p.acq, j) {
			return true
		}
	}
	return false
}

// CP reports whether event i causally-precedes event j.
func (r *Relation) CP(i, j int) bool { return r.cpBetween(i, j) }

// Ordered reports whether the COP (a, b) (a before b in the trace) is
// ordered for race purposes: either a CP b, or the pair is ordered by the
// hard (non-lock) happens-before edges — program order, fork/join,
// wait/notify and volatile write→read — which CP never relaxes.
func (r *Relation) Ordered(a, b int) bool {
	return r.hard.Before(a, b) || r.hard.Before(b, a) || r.cpBetween(a, b)
}
