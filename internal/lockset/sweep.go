package lockset

import (
	"cmp"
	"slices"

	"repro/internal/race"
	"repro/trace"
)

// Survivors returns every conflicting pair of tr that passes the quick
// check (disjoint locksets, MHB-concurrent), in canonical order (by A,
// then B), without building any other pair. tr must be the trace s was
// computed on, and acc its race.GroupAccesses.
//
// The accesses to each address are bucketed by (thread, lockset id, read
// or write), each bucket in program order. Only compatible bucket pairs
// are walked: different threads, at least one write, disjoint locksets.
// MHB contains program order, so the accesses of one thread that an
// access a does not precede form a prefix of that thread's program
// order. Taking a as the pair's first event, its survivors in another
// bucket Q are therefore one contiguous run: from the first f after a in
// the trace to the first f with a ≺ f. Both boundaries only move forward
// as a advances through its own bucket, so one two-pointer merge per
// bucket pair finds every survivor. This is the per-variable,
// clock-indexed style of Kini, Mathur and Viswanathan's linear-time race
// prediction applied to the §4 quick check.
func (s *Sets) Survivors(tr *trace.Trace, acc race.Accesses) []race.COP {
	type bucket struct {
		ti    int // MHB thread index
		tid   trace.TID
		locks int32
		write bool
		ev    []int32
	}
	var (
		evs     []int32
		buckets []bucket
		out     []race.COP
	)
	for _, all := range acc {
		// Sorting by (thread, lockset, read or write) and then index
		// makes each bucket a run in program order.
		evs = append(evs[:0], all...)
		slices.SortFunc(evs, func(x, y int32) int {
			ex, ey := tr.Event(int(x)), tr.Event(int(y))
			return cmp.Or(cmp.Compare(ex.Tid, ey.Tid), cmp.Compare(s.id[x], s.id[y]),
				cmp.Compare(ex.Op, ey.Op), cmp.Compare(x, y))
		})
		buckets = buckets[:0]
		for k, i := range evs {
			e := tr.Event(int(i))
			write := e.Op == trace.OpWrite
			if n := len(buckets); n > 0 && buckets[n-1].tid == e.Tid && buckets[n-1].locks == s.id[i] && buckets[n-1].write == write {
				buckets[n-1].ev = evs[k-len(buckets[n-1].ev) : k+1]
				continue
			}
			buckets = append(buckets, bucket{ti: s.mhb.ThreadIndex(e.Tid), tid: e.Tid, locks: s.id[i], write: write, ev: evs[k : k+1]})
		}
		for p := range buckets {
			P := &buckets[p]
			for q := range buckets {
				Q := &buckets[q]
				if P.tid == Q.tid || !P.write && !Q.write || !s.disjointIDs(P.locks, Q.locks) {
					continue
				}
				// lo: first f in Q after a; hi: first f in Q with a ≺ f,
				// i.e. whose clock has caught up with a's own component.
				lo, hi := 0, 0
				for _, a := range P.ev {
					for lo < len(Q.ev) && Q.ev[lo] < a {
						lo++
					}
					if lo == len(Q.ev) {
						break
					}
					hi = max(hi, lo)
					ca := s.mhb.Clock(int(a))[P.ti]
					for hi < len(Q.ev) && s.mhb.Clock(int(Q.ev[hi]))[P.ti] < ca {
						hi++
					}
					for _, b := range Q.ev[lo:hi] {
						out = append(out, race.COP{A: int(a), B: int(b)})
					}
				}
			}
		}
	}
	slices.SortFunc(out, func(x, y race.COP) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	return out
}
