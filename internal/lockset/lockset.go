// Package lockset implements the unsound hybrid "quick check" of Section 4:
// Eraser-style locksets combined with a weaker happens-before (must-happen-
// before only, ignoring lock edges — in the spirit of PECAN, which the
// paper cites as its quick-check). A COP passes the check when the two
// accesses hold no common lock and are not must-ordered.
//
// The pass is a strict over-approximation of the real races derivable from
// the trace: every true predictable race passes it (locksets of racing
// accesses are disjoint and MHB never orders a race), but passing pairs may
// still be infeasible. The paper reports the number of passing signatures
// as Table 1's "QC" column and uses the check to avoid building constraints
// for hopeless COPs.
package lockset

import (
	"encoding/binary"
	"slices"
	"time"

	"repro/internal/race"
	"repro/internal/vc"
	"repro/trace"
)

// Sets holds the lockset of every access event of one trace, plus the
// must-happen-before clocks used for the weak-HB part of the check.
// Locksets are interned: every event carries the id of the lock set it
// holds, and equal sets share one id, so accesses holding the same locks
// compare in O(1) and the sweep (Survivors) can bucket them by id.
type Sets struct {
	id    []int32        // event index -> lockset id (0: no lock held, or not an access)
	locks [][]trace.Addr // lockset id -> sorted locks; locks[0] is nil
	mhb   *vc.MHB
}

// Compute scans tr once, recording the set of locks held at every shared
// access, and computes the MHB clocks.
//
// Windowed traces can begin inside a critical section; the owning thread's
// membership is inferred from releases that have no matching in-window
// acquire, so accesses before such a release still carry the lock (without
// this, window boundaries leak spurious quick-check positives).
func Compute(tr *trace.Trace) *Sets {
	return ComputeWith(tr, vc.ComputeMHB(tr))
}

// ComputeWith is Compute with caller-supplied MHB clocks for the weak-HB
// part of the check, for pipelines that already computed the window's MHB
// (the detection driver shares one MHB pass between the quick check, the
// triage tier and the constraint encoder).
func ComputeWith(tr *trace.Trace, mhb *vc.MHB) *Sets {
	s := &Sets{id: make([]int32, tr.Len()), locks: [][]trace.Addr{nil}, mhb: mhb}
	cur := make(map[trace.TID]map[trace.Addr]bool)
	// curID is each thread's current lockset id, re-interned only when an
	// acquire or release changes its set; ids maps a sorted lockset's
	// little-endian encoding to its id.
	curID := make(map[trace.TID]int32)
	ids := map[string]int32{"": 0}
	var (
		ls  []trace.Addr
		key []byte
	)
	toggle := func(t trace.TID, l trace.Addr, held bool) {
		m := cur[t]
		if m == nil {
			m = make(map[trace.Addr]bool)
			cur[t] = m
		}
		if held {
			m[l] = true
		} else {
			delete(m, l)
		}
		ls, key = ls[:0], key[:0]
		for l := range m {
			ls = append(ls, l)
		}
		slices.Sort(ls)
		for _, l := range ls {
			key = binary.LittleEndian.AppendUint64(key, uint64(l))
		}
		id, ok := ids[string(key)]
		if !ok {
			id = int32(len(s.locks))
			ids[string(key)] = id
			s.locks = append(s.locks, slices.Clone(ls))
		}
		curID[t] = id
	}
	// Pre-scan: locks released without an in-window acquire were held from
	// the window start.
	acquired := make(map[trace.TID]map[trace.Addr]bool)
	for i := 0; i < tr.Len(); i++ {
		e := tr.Event(i)
		switch e.Op {
		case trace.OpAcquire:
			if acquired[e.Tid] == nil {
				acquired[e.Tid] = make(map[trace.Addr]bool)
			}
			acquired[e.Tid][e.Addr] = true
		case trace.OpRelease:
			if !acquired[e.Tid][e.Addr] {
				toggle(e.Tid, e.Addr, true)
			}
		}
	}
	for i := 0; i < tr.Len(); i++ {
		e := tr.Event(i)
		switch e.Op {
		case trace.OpAcquire:
			toggle(e.Tid, e.Addr, true)
		case trace.OpRelease:
			toggle(e.Tid, e.Addr, false)
		case trace.OpRead, trace.OpWrite:
			s.id[i] = curID[e.Tid]
		}
	}
	return s
}

// Held returns the sorted locks held at access event i (nil if none).
func (s *Sets) Held(i int) []trace.Addr { return s.locks[s.id[i]] }

// Disjoint reports whether the locksets of events i and j share no lock.
func (s *Sets) Disjoint(i, j int) bool { return s.disjointIDs(s.id[i], s.id[j]) }

func (s *Sets) disjointIDs(x, y int32) bool {
	if x == 0 || y == 0 {
		return true
	}
	if x == y {
		return false
	}
	a, b := s.locks[x], s.locks[y]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return false
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return true
}

// Pass reports whether the COP (a, b) passes the quick check: disjoint
// locksets and MHB-concurrent.
func (s *Sets) Pass(a, b int) bool {
	return s.Disjoint(a, b) && !s.mhb.Ordered(a, b)
}

// Options configures the quick-check detector.
type Options struct {
	// WindowSize splits the trace into fixed-size windows; ≤ 0 analyses
	// the whole trace at once.
	WindowSize int
}

// Detector reports every COP signature passing the hybrid quick check.
// It is unsound (may report false positives) and exists to regenerate the
// QC column of Table 1 and to pre-filter the SMT pipeline.
type Detector struct {
	opt Options
}

// New returns a quick-check detector.
func New(opt Options) *Detector { return &Detector{opt: opt} }

// Name implements race.Detector.
func (*Detector) Name() string { return "QC" }

// Detect reports all COPs passing the quick check, one per signature.
func (d *Detector) Detect(tr *trace.Trace) race.Result {
	start := time.Now()
	var res race.Result
	seen := make(map[race.Signature]bool)
	res.Windows = race.Windows(tr, d.opt.WindowSize, func(w *trace.Trace, offset int) {
		sets := Compute(w)
		race.EachCOP(w, func(cop race.COP) {
			sig := race.SigOf(w, cop.A, cop.B)
			if seen[sig] {
				return
			}
			res.COPsChecked++
			if sets.Pass(cop.A, cop.B) {
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
