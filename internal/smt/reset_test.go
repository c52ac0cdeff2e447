package smt

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/sat"
)

// resetWorkload asserts a random order formula over n integer variables
// on s, checkpoints it, and solves nq guarded
// queries with a rollback after each. It returns each query's verdict and
// model.
func resetWorkload(t *testing.T, s *Solver, seed int64, n, nq int) (verdicts []sat.Result, models [][]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	xs := make([]IntVar, n)
	for i := range xs {
		xs[i] = s.IntVarAt(int64(rng.Intn(n))) // a poor hint, so asserts repair potentials
	}
	atom := func() *Formula {
		x := rng.Intn(n)
		y := (x + 1 + rng.Intn(n-1)) % n
		return Diff(xs[x], xs[y], int64(rng.Intn(9)-4))
	}
	for i := 0; i+1 < n; i += 2 {
		if err := s.Assert(Less(xs[i], xs[i+1])); err != nil {
			t.Fatal(err)
		}
	}
	for range n {
		if err := s.Assert(Or(atom(), And(atom(), atom()), atom())); err != nil {
			t.Fatal(err)
		}
	}
	ck := s.Checkpoint()
	for range nq {
		g := s.NewBoolLit()
		if err := s.Implies(g, And(Or(atom(), atom(), atom()), atom(), atom(), atom(), atom())); err != nil {
			t.Fatal(err)
		}
		r := s.SolveAssuming(g)
		var m []int64
		if r == sat.Sat {
			for _, x := range xs {
				m = append(m, s.Value(x))
			}
		}
		verdicts, models = append(verdicts, r), append(models, m)
		s.Rollback(ck)
	}
	return verdicts, models
}

// TestResetMatchesFresh checks that a Reset solver is a new one: after
// deciding a larger formula and a Reset, the same formula, checkpoint and
// queries give the same verdicts, models, search, theory and encoding
// counters, sizes and interned atoms as on a solver from NewSolver.
func TestResetMatchesFresh(t *testing.T) {
	const seed, n, nq = 3, 14, 24
	fresh := NewSolver()
	fv, fm := resetWorkload(t, fresh, seed, n, nq)

	reused := NewSolver()
	resetWorkload(t, reused, 8, 3*n, nq)
	reused.SetDeadline(time.Now())
	reused.Reset()
	rv, rm := resetWorkload(t, reused, seed, n, nq)

	if !slices.Equal(fv, rv) {
		t.Fatalf("verdicts %v, want %v", rv, fv)
	}
	for i := range fm {
		if !slices.Equal(fm[i], rm[i]) {
			t.Fatalf("query %d: model %v, want %v", i, rm[i], fm[i])
		}
	}
	if fresh.Stats() != reused.Stats() || fresh.TheoryStats() != reused.TheoryStats() || fresh.EncStats() != reused.EncStats() {
		t.Fatalf("counters %+v %+v %+v, want %+v %+v %+v", reused.Stats(), reused.TheoryStats(), reused.EncStats(),
			fresh.Stats(), fresh.TheoryStats(), fresh.EncStats())
	}
	fvars, fcl, _ := fresh.Size()
	rvars, rcl, _ := reused.Size()
	if fvars != rvars || fcl != rcl || fresh.NumIntVars() != reused.NumIntVars() {
		t.Fatalf("sizes differ: %d vars %d clauses %d ints, want %d %d %d",
			rvars, rcl, reused.NumIntVars(), fvars, fcl, fresh.NumIntVars())
	}
	if !maps.Equal(interned(t, fresh), interned(t, reused)) || len(reused.enc) != len(fresh.enc) {
		t.Fatal("interned atoms or Tseitin nodes differ")
	}
}
