package smt

import (
	"testing"

	"repro/internal/sat"
)

// TestCheckpointCanonicalModels checks the full-stack (SAT + IDL + encoder
// caches) replay property: a query solved from a checkpointed base yields
// the same verdict and the same integer model every time, regardless of
// what other queries ran in between. The race detector's pair scheduler
// depends on this to make witnesses canonical under any worker assignment.
func TestCheckpointCanonicalModels(t *testing.T) {
	s := NewSolver()
	const n = 8
	xs := make([]IntVar, n)
	for i := range xs {
		xs[i] = s.IntVarAt(int64(i))
	}
	for i := 0; i+1 < n; i++ {
		if err := s.Assert(Less(xs[i], xs[i+1])); err != nil {
			t.Fatal(err)
		}
	}
	// A disjunction so the base has real boolean structure.
	if err := s.Assert(Or(Diff(xs[0], xs[3], -5), Diff(xs[2], xs[5], -4))); err != nil {
		t.Fatal(err)
	}

	ck := s.Checkpoint()
	baseInts := s.NumIntVars()
	baseVars, baseClauses, _ := s.Size()

	// query asserts xs[b] − xs[a] ≥ gap behind a fresh guard literal, the
	// same shape the detector uses for per-pair race constraints.
	query := func(a, b int, gap int64) (sat.Result, []int64) {
		g := s.NewBoolLit()
		if err := s.Implies(g, Diff(xs[a], xs[b], -gap)); err != nil {
			t.Fatal(err)
		}
		r := s.SolveAssuming(g)
		m := make([]int64, n)
		if r == sat.Sat {
			for i := range xs {
				m[i] = s.Value(xs[i])
			}
		}
		return r, m
	}

	r1, m1 := query(0, 7, 40)
	if r1 != sat.Sat {
		t.Fatalf("query verdict = %v, want sat", r1)
	}
	s.Rollback(ck)

	if s.NumIntVars() != baseInts {
		t.Errorf("NumIntVars after rollback = %d, want %d", s.NumIntVars(), baseInts)
	}
	if v, c, l := s.Size(); v != baseVars || c != baseClauses || l != 0 {
		t.Errorf("Size after rollback = (%d,%d,%d), want (%d,%d,0)", v, c, l, baseVars, baseClauses)
	}

	// Unrelated intervening query, then replay the first one twice.
	query(1, 6, 9)
	s.Rollback(ck)
	r2, m2 := query(0, 7, 40)
	s.Rollback(ck)
	r3, m3 := query(0, 7, 40)

	if r1 != r2 || r1 != r3 {
		t.Fatalf("verdicts differ across replays: %v %v %v", r1, r2, r3)
	}
	for i := range m1 {
		if m1[i] != m2[i] || m1[i] != m3[i] {
			t.Fatalf("model value for x%d differs across replays: %d %d %d", i, m1[i], m2[i], m3[i])
		}
	}

	// An unsat query must also be reproducible and leave the base intact.
	s.Rollback(ck)
	ru, _ := query(7, 0, 1) // xs[0] − xs[7] ≥ 1 contradicts the chain
	if ru != sat.Unsat {
		t.Fatalf("contradictory query verdict = %v, want unsat", ru)
	}
	s.Rollback(ck)
	r4, m4 := query(0, 7, 40)
	if r4 != r1 {
		t.Fatalf("verdict after unsat interlude = %v, want %v", r4, r1)
	}
	for i := range m1 {
		if m1[i] != m4[i] {
			t.Fatalf("model value for x%d differs after unsat interlude: %d %d", i, m1[i], m4[i])
		}
	}
}

// TestCheckpointAssertsRootTheory checks that the root facts stay in the
// theory across Rollback, and that a query asserts nothing it does not
// need: after every Rollback, a guard-only query puts exactly its own
// atoms into IDL — not the base chain again, and not the atoms of a
// guard defined in the base that the query never assumes.
func TestCheckpointAssertsRootTheory(t *testing.T) {
	s := NewSolver()
	const n = 8
	xs := make([]IntVar, n)
	for i := range xs {
		xs[i] = s.IntVarAt(int64(i))
	}
	for i := 0; i+1 < n; i++ {
		if err := s.Assert(Less(xs[i], xs[i+1])); err != nil {
			t.Fatal(err)
		}
	}
	unused := s.NewBoolLit()
	if err := s.Implies(unused, And(Diff(xs[0], xs[2], -3), Or(Less(xs[5], xs[1]), Less(xs[6], xs[1])))); err != nil {
		t.Fatal(err)
	}
	ck := s.Checkpoint()
	for i := 0; i < 3; i++ {
		g := s.NewBoolLit()
		if err := s.Implies(g, And(Diff(xs[0], xs[7], -20), Diff(xs[1], xs[4], -6))); err != nil {
			t.Fatal(err)
		}
		before := s.TheoryStats().Asserts
		if r := s.SolveAssuming(g); r != sat.Sat {
			t.Fatalf("query %d verdict = %v, want sat", i, r)
		}
		if got := s.TheoryStats().Asserts - before; got != 2 {
			t.Errorf("query %d asserted %d atoms into the theory, want its own 2", i, got)
		}
		if s.Value(xs[7])-s.Value(xs[0]) < 20 || s.Value(xs[4])-s.Value(xs[1]) < 6 {
			t.Errorf("query %d model violates its constraints", i)
		}
		s.Rollback(ck)
	}
}
