package encode

import (
	"testing"

	"repro/internal/fixtures"
	"repro/internal/race"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/vc"
	"repro/trace"
)

func newEnc(tr *trace.Trace) (*Encoder, *smt.Solver) {
	s := smt.NewSolver()
	return New(tr, s, vc.ComputeMHB(tr), -1, -1), s
}

func TestAssertMHBRespectsTraceOrder(t *testing.T) {
	b := trace.NewBuilder()
	b.Fork(1, 2)     // 0
	b.Write(1, 5, 1) // 1
	b.Begin(2)       // 2
	b.ReadV(2, 5, 1) // 3
	b.End(2)         // 4
	b.Join(1, 2)     // 5
	tr := b.Trace()
	enc, s := newEnc(tr)
	if err := enc.AssertMHB(); err != nil {
		t.Fatal(err)
	}
	if r := s.Solve(); r != sat.Sat {
		t.Fatalf("MHB alone must be satisfiable: %v", r)
	}
	// Program order and fork/join edges hold in the model.
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 5}} {
		if s.Value(enc.Var(pair[0])) >= s.Value(enc.Var(pair[1])) {
			t.Errorf("model violates MHB edge %d→%d", pair[0], pair[1])
		}
	}
}

func TestAssertLocksForcesSeparation(t *testing.T) {
	b := trace.NewBuilder()
	b.Acquire(1, 9)  // 0
	b.Write(1, 5, 1) // 1
	b.Release(1, 9)  // 2
	b.Acquire(2, 9)  // 3
	b.ReadV(2, 5, 1) // 4
	b.Release(2, 9)  // 5
	tr := b.Trace()
	enc, s := newEnc(tr)
	if err := enc.AssertMHB(); err != nil {
		t.Fatal(err)
	}
	if err := enc.AssertLocks(); err != nil {
		t.Fatal(err)
	}
	// Force t2's acquire before t1's release: combined with the lock
	// disjunction this must be unsatisfiable.
	s.Assert(smt.Less(enc.Var(3), enc.Var(2)))
	s.Assert(smt.Less(enc.Var(0), enc.Var(3)))
	if r := s.Solve(); r != sat.Unsat {
		t.Fatalf("interleaved sections must be unsat, got %v", r)
	}
}

func TestAssertAdjacentBothDirections(t *testing.T) {
	b := trace.NewBuilder()
	b.Write(1, 5, 1) // 0
	b.ReadV(2, 5, 1) // 1
	tr := b.Trace()

	// Direction forced to b-then-a by an extra constraint.
	enc, s := newEnc(tr)
	if err := enc.AssertAdjacent(0, 1); err != nil {
		t.Fatal(err)
	}
	s.Assert(smt.Less(enc.Var(1), enc.Var(0)))
	if r := s.Solve(); r != sat.Sat {
		t.Fatalf("reverse adjacency must be possible: %v", r)
	}
	if s.Value(enc.Var(0))-s.Value(enc.Var(1)) != 1 {
		t.Errorf("adjacency gap = %d, want 1", s.Value(enc.Var(0))-s.Value(enc.Var(1)))
	}
}

func TestReadConsistentUniqueWriter(t *testing.T) {
	b := trace.NewBuilder()
	b.Write(1, 5, 7) // 0
	b.ReadV(2, 5, 7) // 1
	tr := b.Trace()
	enc, s := newEnc(tr)
	feas := func(int) *smt.Formula { return smt.True() }
	if err := s.Assert(enc.ReadConsistent(1, feas)); err != nil {
		t.Fatal(err)
	}
	if r := s.Solve(); r != sat.Sat {
		t.Fatal("unique writer must satisfy the read")
	}
	if s.Value(enc.Var(0)) >= s.Value(enc.Var(1)) {
		t.Error("write must be ordered before the read")
	}
}

func TestReadConsistentInitialValue(t *testing.T) {
	b := trace.NewBuilder()
	b.ReadV(2, 5, 0) // 0: reads the initial value
	b.Write(1, 5, 7) // 1
	tr := b.Trace()
	enc, s := newEnc(tr)
	feas := func(int) *smt.Formula { return smt.True() }
	if err := s.Assert(enc.ReadConsistent(0, feas)); err != nil {
		t.Fatal(err)
	}
	if r := s.Solve(); r != sat.Sat {
		t.Fatal("initial-value read must be satisfiable")
	}
	if s.Value(enc.Var(0)) >= s.Value(enc.Var(1)) {
		t.Error("the read must stay before the only write")
	}
}

func TestReadConsistentNoSourceIsFalse(t *testing.T) {
	// Read of value 3 with no write of 3 anywhere and initial 0.
	b := trace.NewBuilder()
	b.Write(1, 5, 3) // 0 — changed below to a different location trick:
	tr := b.Trace()
	// Craft directly: read value 3 on location 6 (never written).
	tr.Append(trace.Event{Tid: 2, Op: trace.OpRead, Addr: 6, Value: 3})
	enc, _ := newEnc(tr)
	feas := func(int) *smt.Formula { return smt.True() }
	f := enc.ReadConsistent(1, feas)
	if !f.IsFalse() {
		t.Errorf("unsourceable read must encode to false, got %v", f)
	}
}

func TestReadConsistentInterference(t *testing.T) {
	// Two writes (7 then 9) and a read of 7 by another thread: the read
	// must be placed after w(7) but before w(9) (or with w(9) before w(7)).
	b := trace.NewBuilder()
	b.Write(1, 5, 7) // 0
	b.Write(1, 5, 9) // 1 (same thread: MHB-after 0)
	b.ReadV(2, 5, 7) // 2
	tr := b.Trace()
	enc, s := newEnc(tr)
	if err := enc.AssertMHB(); err != nil {
		t.Fatal(err)
	}
	feas := func(int) *smt.Formula { return smt.True() }
	if err := s.Assert(enc.ReadConsistent(2, feas)); err != nil {
		t.Fatal(err)
	}
	if r := s.Solve(); r != sat.Sat {
		t.Fatal("read of 7 must be satisfiable between the writes")
	}
	v0, v1, v2 := s.Value(enc.Var(0)), s.Value(enc.Var(1)), s.Value(enc.Var(2))
	if !(v0 < v2 && v2 < v1) {
		t.Errorf("model order w7=%d r=%d w9=%d, want w7 < r < w9", v0, v2, v1)
	}
}

func TestPruningShrinksFormula(t *testing.T) {
	// Same-thread writes before the read: pruning should drop shadowed
	// candidates and skip implied order atoms, producing a smaller
	// formula than the unpruned encoding.
	b := trace.NewBuilder()
	for i := 0; i < 5; i++ {
		b.Write(1, 5, 7) // several writes of the same value
	}
	b.ReadV(1, 5, 7) // same-thread read: all but the last write shadowed
	tr := b.Trace()

	feas := func(int) *smt.Formula { return smt.True() }

	encP, _ := newEnc(tr)
	fP := encP.ReadConsistent(5, feas)

	encU, _ := newEnc(tr)
	encU.Pruning = false
	fU := encU.ReadConsistent(5, feas)

	if fP.Size() >= fU.Size() {
		t.Errorf("pruned size %d must be smaller than unpruned %d", fP.Size(), fU.Size())
	}
}

func TestWitnessOrdering(t *testing.T) {
	b := trace.NewBuilder()
	b.Fork(1, 2)     // 0
	b.Write(1, 5, 1) // 1
	b.Begin(2)       // 2
	b.ReadV(2, 5, 1) // 3
	tr := b.Trace()
	enc, s := newEnc(tr)
	if err := enc.AssertMHB(); err != nil {
		t.Fatal(err)
	}
	if err := enc.AssertAdjacent(1, 3); err != nil {
		t.Fatal(err)
	}
	if r := s.Solve(); r != sat.Sat {
		t.Fatalf("expected sat, got %v", r)
	}
	w := enc.Witness(1, 3)
	if len(w) < 2 {
		t.Fatalf("witness too short: %v", w)
	}
	lastTwo := map[int]bool{w[len(w)-1]: true, w[len(w)-2]: true}
	if !lastTwo[1] || !lastTwo[3] {
		t.Errorf("witness must end with the pair, got %v", w)
	}
	// fork (0) must appear before begin (2).
	pos := map[int]int{}
	for i, idx := range w {
		pos[idx] = i
	}
	if p0, ok0 := pos[0], true; ok0 {
		if p2, ok2 := pos[2]; ok2 && p0 > p2 {
			t.Errorf("fork after begin in witness %v", w)
		}
	}
}

// verdict decides one COP of tr on a fresh solver: with merged set, the
// paper's variable-merging race encoding (O_a := O_b), otherwise explicit
// adjacency.
func verdict(tr *trace.Trace, a, b int, merged bool) bool {
	s := smt.NewSolver()
	mergeA, mergeB := -1, -1
	if merged {
		mergeA, mergeB = a, b
	}
	enc := New(tr, s, vc.ComputeMHB(tr), mergeA, mergeB)
	cf := NewCF(enc, s)
	if enc.AssertMHB() != nil || enc.AssertLocks() != nil {
		return false
	}
	if !merged && enc.AssertAdjacent(a, b) != nil {
		return false
	}
	if s.Assert(cf.ControlFlow(a)) != nil || s.Assert(cf.ControlFlow(b)) != nil {
		return false
	}
	return s.Solve() == sat.Sat
}

// TestMergedEncodingOnPaperExamples: the merged encoding agrees with
// explicit adjacency on every conflicting pair of the paper's examples
// (its known divergence needs a racing read justified by the racing
// write, which these examples do not require).
func TestMergedEncodingOnPaperExamples(t *testing.T) {
	for name, tr := range map[string]*trace.Trace{
		"figure1":          fixtures.Figure1(),
		"figure1-switched": fixtures.Figure1Switched(),
		"figure2-branch":   fixtures.Figure2(true),
	} {
		races := 0
		race.EachCOP(tr, func(cop race.COP) {
			adj, merged := verdict(tr, cop.A, cop.B, false), verdict(tr, cop.A, cop.B, true)
			if adj != merged {
				t.Errorf("%s: COP (%d,%d): adjacency %v, merged %v", name, cop.A, cop.B, adj, merged)
			}
			if adj {
				races++
			}
		})
		if name == "figure1" && races == 0 {
			t.Errorf("%s: no race found (fixture drifted)", name)
		}
	}
}
