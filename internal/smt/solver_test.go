package smt

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sat"
)

func TestSimpleOrderSat(t *testing.T) {
	s := NewSolver()
	x, y, z := s.IntVar(), s.IntVar(), s.IntVar()
	if err := s.Assert(And(Less(x, y), Less(y, z))); err != nil {
		t.Fatal(err)
	}
	if r := s.Solve(); r != sat.Sat {
		t.Fatalf("Solve = %v, want sat", r)
	}
	if !(s.Value(x) < s.Value(y) && s.Value(y) < s.Value(z)) {
		t.Errorf("model %d %d %d violates x<y<z", s.Value(x), s.Value(y), s.Value(z))
	}
}

// TestCycleUnsat asserts a cycle of root facts: the closing fact makes
// the solver unsatisfiable at the root, under any assumptions.
func TestCycleUnsat(t *testing.T) {
	s := NewSolver()
	x, y, z := s.IntVar(), s.IntVar(), s.IntVar()
	g := s.NewBoolLit()
	if err := s.Implies(g, Less(x, z)); err != nil {
		t.Fatal(err)
	}
	s.Assert(Less(x, y))
	s.Assert(Less(y, z))
	if err := s.Assert(Less(z, x)); !errors.Is(err, sat.ErrUnsat) {
		t.Errorf("asserting the closing fact: err %v, want sat.ErrUnsat", err)
	}
	if r := s.Solve(); r != sat.Unsat {
		t.Fatalf("Solve = %v, want unsat", r)
	}
	if r := s.SolveAssuming(g); r != sat.Unsat {
		t.Errorf("SolveAssuming = %v, want unsat", r)
	}
}

func TestDisjunctionChoosesFeasibleBranch(t *testing.T) {
	// x < y forced; then (y < x) ∨ (x − y ≤ −5): only the second branch
	// works, forcing a gap of 5.
	s := NewSolver()
	x, y := s.IntVar(), s.IntVar()
	s.Assert(Less(x, y))
	s.Assert(Or(Less(y, x), Diff(x, y, -5)))
	if r := s.Solve(); r != sat.Sat {
		t.Fatalf("Solve = %v, want sat", r)
	}
	if s.Value(y)-s.Value(x) < 5 {
		t.Errorf("model gap = %d, want ≥ 5", s.Value(y)-s.Value(x))
	}
}

func TestLockLikeDisjunctions(t *testing.T) {
	// Two critical sections (a1..r1), (a2..r2) on one lock:
	// (r1 < a2) ∨ (r2 < a1), with a1<r1 and a2<r2 and a cross constraint
	// a2 < r1 making the second branch the only option... actually a2 < r1
	// with r1 < a2 impossible, so r2 < a1 must hold.
	s := NewSolver()
	a1, r1 := s.IntVar(), s.IntVar()
	a2, r2 := s.IntVar(), s.IntVar()
	s.Assert(Less(a1, r1))
	s.Assert(Less(a2, r2))
	s.Assert(Or(Less(r1, a2), Less(r2, a1)))
	s.Assert(Less(a2, r1))
	if r := s.Solve(); r != sat.Sat {
		t.Fatalf("Solve = %v, want sat", r)
	}
	if !(s.Value(r2) < s.Value(a1)) {
		t.Error("solver must pick the r2 < a1 branch")
	}
}

func TestDeepSharedDag(t *testing.T) {
	// Chain of shared conjunctions; ensures DAG encoding terminates and is
	// satisfiable with consistent semantics.
	s := NewSolver()
	n := 40
	vars := make([]IntVar, n)
	for i := range vars {
		vars[i] = s.IntVar()
	}
	f := True()
	for i := 0; i+1 < n; i++ {
		f = And(f, Less(vars[i], vars[i+1]))
		// Alternate disjunctive wrappers referencing the shared prefix.
		if i%3 == 0 {
			f = Or(f, And(f, LessEq(vars[0], vars[i])))
		}
	}
	if err := s.Assert(f); err != nil {
		t.Fatal(err)
	}
	if r := s.Solve(); r != sat.Sat {
		t.Fatalf("Solve = %v, want sat", r)
	}
}

func TestAssertFalse(t *testing.T) {
	s := NewSolver()
	if err := s.Assert(False()); err == nil {
		t.Fatal("Assert(False) must error")
	}
	if r := s.Solve(); r != sat.Unsat {
		t.Fatalf("Solve = %v, want unsat", r)
	}
}

func TestAssertTrueEmptyModel(t *testing.T) {
	s := NewSolver()
	x := s.IntVar()
	if err := s.Assert(True()); err != nil {
		t.Fatal(err)
	}
	if r := s.Solve(); r != sat.Sat {
		t.Fatalf("Solve = %v, want sat", r)
	}
	_ = s.Value(x) // must not panic
}

func TestIncrementalAssert(t *testing.T) {
	s := NewSolver()
	x, y := s.IntVar(), s.IntVar()
	s.Assert(Less(x, y))
	if s.Solve() != sat.Sat {
		t.Fatal("x<y sat")
	}
	s.Assert(Less(y, x))
	if s.Solve() != sat.Unsat {
		t.Fatal("x<y ∧ y<x unsat")
	}
}

func TestEqualityViaSharedVar(t *testing.T) {
	// The encoder models O_b = O_a + something by merging variables; here
	// we exercise Diff-based equality: x = y via x−y≤0 ∧ y−x≤0.
	s := NewSolver()
	x, y, z := s.IntVar(), s.IntVar(), s.IntVar()
	s.Assert(And(Diff(x, y, 0), Diff(y, x, 0)))
	s.Assert(Less(x, z))
	if r := s.Solve(); r != sat.Sat {
		t.Fatal("want sat")
	}
	if s.Value(x) != s.Value(y) {
		t.Errorf("x=%d y=%d, want equal", s.Value(x), s.Value(y))
	}
	if s.Value(y) >= s.Value(z) {
		t.Error("equality must propagate ordering to y")
	}
}

// randomOrderFormula builds a random positive formula over n order vars and
// also evaluates it against a brute-force search over all permutations.
func permutationSatisfies(perm []int, f *Formula) bool {
	switch f.kind {
	case kTrue:
		return true
	case kFalse:
		return false
	case kAtom:
		return int64(perm[f.atom.X])-int64(perm[f.atom.Y]) <= f.atom.C
	case kAnd:
		for _, k := range f.kids {
			if !permutationSatisfies(perm, k) {
				return false
			}
		}
		return true
	case kOr:
		for _, k := range f.kids {
			if permutationSatisfies(perm, k) {
				return true
			}
		}
		return false
	}
	panic("unreachable")
}

func permutations(n int) [][]int {
	var out [][]int
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return out
}

func TestRandomOrderFormulasAgainstPermutations(t *testing.T) {
	// For strict-order-only formulas (all atoms x < y), satisfiability
	// over the integers coincides with satisfiability by a permutation of
	// the variables, so brute-force over permutations is a sound oracle.
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		n := 3 + rng.Intn(3) // 3..5 vars
		s := NewSolver()
		vars := make([]IntVar, n)
		for i := range vars {
			vars[i] = s.IntVar()
		}
		var build func(depth int) *Formula
		build = func(depth int) *Formula {
			if depth == 0 || rng.Intn(3) == 0 {
				return Less(vars[rng.Intn(n)], vars[rng.Intn(n)])
			}
			k := 2 + rng.Intn(2)
			kids := make([]*Formula, k)
			for i := range kids {
				kids[i] = build(depth - 1)
			}
			if rng.Intn(2) == 0 {
				return And(kids...)
			}
			return Or(kids...)
		}
		f := build(3)
		want := false
		for _, p := range permutations(n) {
			if permutationSatisfies(p, f) {
				want = true
				break
			}
		}
		err := s.Assert(f)
		got := err == nil && s.Solve() == sat.Sat
		if got != want {
			t.Fatalf("iter %d: solver=%v oracle=%v formula=%v", iter, got, want, f)
		}
		if got && !f.IsTrue() {
			// Check the model satisfies f.
			perm := make([]int, n)
			for i, v := range vars {
				perm[i] = int(s.Value(v))
			}
			if !permutationSatisfies(perm, f) {
				t.Fatalf("iter %d: model %v does not satisfy %v", iter, perm, f)
			}
		}
	}
}

func TestDeadlineAborts(t *testing.T) {
	s := NewSolver()
	s.SetDeadline(time.Now().Add(-time.Second))
	// Build something with search: pigeonhole-ish ordering contradiction
	// large enough to need conflicts.
	n := 9
	vars := make([]IntVar, n)
	for i := range vars {
		vars[i] = s.IntVar()
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s.Assert(Or(Less(vars[i], vars[j]), Less(vars[j], vars[i])))
		}
	}
	// Force an eventual contradiction: a cycle among three vars hidden
	// behind disjunctions.
	s.Assert(Less(vars[0], vars[1]))
	s.Assert(Less(vars[1], vars[2]))
	s.Assert(Less(vars[2], vars[0]))
	r := s.Solve()
	if r != sat.Aborted && r != sat.Unsat {
		t.Fatalf("Solve = %v, want aborted or unsat", r)
	}
}
