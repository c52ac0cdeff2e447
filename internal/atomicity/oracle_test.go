package atomicity

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workloads"
	"repro/trace"
)

// Brute-force differential check: on tiny random traces, the solver-based
// sandwich decision must match direct enumeration of all PO-respecting,
// lock-consistent prefixes that place the remote access strictly between
// the two region accesses with every branch concretely justified (the same
// Definition-4-style oracle as the race detector's, with the sandwich goal
// instead of adjacency).

func oracleSandwich(tr *trace.Trace, e1, e3, e2 int) bool {
	byThread := tr.ByThread()
	tids := tr.Threads()
	pos := make(map[trace.TID]int, len(tids))
	held := make(map[trace.Addr]trace.TID)
	var seq []int
	at := make(map[int]int)

	var dfs func() bool
	dfs = func() bool {
		if p2, ok := at[e2]; ok {
			p1, ok1 := at[e1]
			p3, ok3 := at[e3]
			if ok1 && ok3 && p1 < p3 && p3 < p2 && branchesConcreteSeq(tr, seq, byThread) {
				return true
			}
			_ = p2
			return false
		}
		for _, t := range tids {
			p := pos[t]
			if p >= len(byThread[t]) {
				continue
			}
			e := byThread[t][p]
			ev := tr.Event(e)
			switch ev.Op {
			case trace.OpAcquire:
				if _, h := held[ev.Addr]; h {
					continue
				}
			case trace.OpRelease:
				if held[ev.Addr] != ev.Tid {
					continue
				}
			}
			var undo func()
			switch ev.Op {
			case trace.OpAcquire:
				held[ev.Addr] = ev.Tid
				undo = func() { delete(held, ev.Addr) }
			case trace.OpRelease:
				old := held[ev.Addr]
				delete(held, ev.Addr)
				undo = func() { held[ev.Addr] = old }
			default:
				undo = func() {}
			}
			pos[t] = p + 1
			seq = append(seq, e)
			at[e] = len(seq) - 1
			if dfs() {
				return true
			}
			delete(at, e)
			seq = seq[:len(seq)-1]
			pos[t] = p
			undo()
		}
		return false
	}
	return dfs()
}

// branchesConcreteSeq mirrors the race oracle's feasibility check: every
// branch in the prefix needs its thread's earlier reads to observe their
// original values through concretely feasible writes.
func branchesConcreteSeq(tr *trace.Trace, seq []int, byThread map[trace.TID][]int) bool {
	at := make(map[int]int, len(seq))
	for p, e := range seq {
		at[e] = p
	}
	source := func(r int) (int, bool) {
		rp := at[r]
		addr := tr.Event(r).Addr
		for p := rp - 1; p >= 0; p-- {
			e := seq[p]
			if ev := tr.Event(e); ev.Op == trace.OpWrite && ev.Addr == addr {
				return e, true
			}
		}
		return 0, false
	}
	var concrete func(e int) bool
	var valueOK func(r int) bool
	concrete = func(e int) bool {
		t := tr.Event(e).Tid
		for _, x := range byThread[t] {
			if x == e {
				break
			}
			if _, in := at[x]; !in {
				break
			}
			if tr.Event(x).Op == trace.OpRead && !valueOK(x) {
				return false
			}
		}
		return true
	}
	valueOK = func(r int) bool {
		w, ok := source(r)
		if !ok {
			return tr.Event(r).Value == tr.Initial(tr.Event(r).Addr)
		}
		return tr.Event(w).Value == tr.Event(r).Value && concrete(w)
	}
	for _, e := range seq {
		if tr.Event(e).Op == trace.OpBranch && !concrete(e) {
			return false
		}
	}
	return true
}

// randomRegionTrace builds a tiny trace guaranteed to contain at least one
// critical section with two accesses to one variable, plus remote traffic.
func randomRegionTrace(rng *rand.Rand) *trace.Trace {
	b := trace.NewBuilder()
	const bal trace.Addr = 1
	l := trace.Addr(100 + rng.Intn(2))
	// Region thread.
	b.Acquire(1, l)
	if rng.Intn(2) == 0 {
		b.Read(1, bal)
	} else {
		b.Write(1, bal, int64(rng.Intn(3)))
	}
	if rng.Intn(3) == 0 {
		b.Branch(1)
	}
	if rng.Intn(2) == 0 {
		b.Read(1, bal)
	} else {
		b.Write(1, bal, int64(rng.Intn(3)))
	}
	b.Release(1, l)
	// Remote thread: 1–3 operations, possibly locked, possibly guarded.
	n := 1 + rng.Intn(3)
	lockRemote := rng.Intn(3) == 0
	if lockRemote {
		b.Acquire(2, trace.Addr(100+rng.Intn(2)))
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			b.Read(2, bal)
		case 1:
			b.Write(2, bal, int64(rng.Intn(3)))
		case 2:
			b.Branch(2)
		case 3:
			b.Read(2, trace.Addr(2))
		}
	}
	if lockRemote {
		for _, cs := range b.Trace().CriticalSections() {
			if cs.Tid == 2 && cs.Release < 0 {
				b.Release(2, cs.Lock)
			}
		}
	}
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		panic(err)
	}
	return tr
}

func TestAtomicityAgreesWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	checked := 0
	for iter := 0; iter < 400; iter++ {
		tr := randomRegionTrace(rng)
		for i := 0; i < tr.Len(); i++ {
			tr.Events()[i].Loc = trace.Loc(i + 1) // unique locs: no dedup
		}
		res := detect(t, tr, core.Options{SolveTimeout: 30 * time.Second, Witness: true})
		found := make(map[[3]int]bool)
		for _, v := range res.Races {
			found[[3]int{v.First, v.Remote, v.Second}] = true
		}
		cands, _ := candidates(tr, nil)
		for _, c := range cands {
			want := oracleSandwich(tr, c.e1, c.e3, c.e2)
			got := found[[3]int{c.e1, c.e3, c.e2}]
			if got != want {
				t.Fatalf("iter %d: triple (%d,%d,%d) detector=%v oracle=%v\n%s",
					iter, c.e1, c.e3, c.e2, got, want, dump(tr))
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("only %d candidates exercised", checked)
	}
	t.Logf("agreed on %d candidates", checked)
}

func dump(tr *trace.Trace) string {
	s := ""
	for i := 0; i < tr.Len(); i++ {
		s += tr.Event(i).String() + "\n"
	}
	return s
}

// TestCandidatesSkipSeen checks the enumeration's dedup: with a seen set,
// candidates builds exactly the triples of unseen signatures, in the
// order it builds them with none seen, and counts the rest.
func TestCandidatesSkipSeen(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	trs := []*trace.Trace{}
	for range 20 {
		trs = append(trs, randomRegionTrace(rng))
	}
	for _, spec := range workloads.Rows() {
		if spec.Name == "derby" {
			spec.Events = 10000
			tr, _ := workloads.Build(spec)
			trs = append(trs, tr)
		}
	}
	hits := 0
	for i, tr := range trs {
		all, deduped := candidates(tr, nil)
		if deduped != 0 {
			t.Fatalf("trace %d: %d dedup hits with nothing seen", i, deduped)
		}
		// Every other signature, in order of first appearance, is seen.
		seen := make(map[signature]bool)
		var order []signature
		for _, c := range all {
			if _, ok := seen[c.sig(tr)]; !ok {
				seen[c.sig(tr)] = len(order)%2 == 0
				order = append(order, c.sig(tr))
			}
		}
		var want []candidate
		for _, c := range all {
			if !seen[c.sig(tr)] {
				want = append(want, c)
			}
		}
		got, deduped := candidates(tr, seen)
		if !slices.Equal(got, want) || deduped != len(all)-len(want) {
			t.Fatalf("trace %d: %d candidates and %d dedup hits, want %d and %d",
				i, len(got), deduped, len(want), len(all)-len(want))
		}
		hits += deduped
	}
	if hits < 1000 {
		t.Fatalf("only %d dedup hits: fixtures too small", hits)
	}
}
