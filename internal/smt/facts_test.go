package smt

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/sat"
)

// TestFactConflictOmitsFacts checks that a theory conflict whose cycle runs
// through root facts explains itself with the SAT literals on the cycle
// alone: the facts hold unconditionally, so the learned clause must not
// mention them (they have no literal to mention).
func TestFactConflictOmitsFacts(t *testing.T) {
	s := NewSolver()
	x, y, z := s.IntVar(), s.IntVar(), s.IntVar()
	for _, f := range []*Formula{Less(x, y), Less(y, z)} {
		if err := s.Assert(f); err != nil {
			t.Fatal(err)
		}
	}
	// z < x closes x < y < z < x: two facts and the literal.
	zx := sat.MkLit(s.atomVar(Atom{X: z, Y: x, C: -1}), true)
	if c := s.th.Assert(zx); len(c) != 1 || c[0] != zx {
		t.Errorf("conflict %v, want just %v", c, zx)
	}

	// x < y is a fact, y < z a literal: z < x conflicts with the literals.
	s = NewSolver()
	x, y, z = s.IntVar(), s.IntVar(), s.IntVar()
	if err := s.Assert(Less(x, y)); err != nil {
		t.Fatal(err)
	}
	yz := sat.MkLit(s.atomVar(Atom{X: y, Y: z, C: -1}), true)
	zx = sat.MkLit(s.atomVar(Atom{X: z, Y: x, C: -1}), true)
	if c := s.th.Assert(yz); c != nil {
		t.Fatalf("asserting y < z: conflict %v, want none", c)
	}
	if c := s.th.Assert(zx); len(c) != 2 || !slices.Contains(c, yz) || !slices.Contains(c, zx) {
		t.Errorf("conflict %v, want {%v, %v}", c, yz, zx)
	}

	// End to end: the search learns from such conflicts and finds the
	// branch the facts allow.
	s = NewSolver()
	x, y, z = s.IntVar(), s.IntVar(), s.IntVar()
	w := s.IntVar()
	for _, f := range []*Formula{Less(x, y), Less(y, z), Or(Less(z, x), Less(w, x))} {
		if err := s.Assert(f); err != nil {
			t.Fatal(err)
		}
	}
	if r := s.Solve(); r != sat.Sat {
		t.Fatalf("Solve = %v, want sat", r)
	}
	if !(s.Value(x) < s.Value(y) && s.Value(y) < s.Value(z) && s.Value(w) < s.Value(x)) {
		t.Errorf("model x=%d y=%d z=%d w=%d, want w < x < y < z", s.Value(x), s.Value(y), s.Value(z), s.Value(w))
	}
}

// TestFactsFollowRollback checks that facts asserted before a Checkpoint
// survive Rollback and facts asserted after it are removed with it,
// including a fact that made the solver root-unsat.
func TestFactsFollowRollback(t *testing.T) {
	s := NewSolver()
	x, y, z := s.IntVarAt(0), s.IntVarAt(1), s.IntVarAt(2)
	if err := s.Assert(Less(x, y)); err != nil {
		t.Fatal(err)
	}
	ck := s.Checkpoint()
	// query solves under a fresh guard that implies f.
	query := func(f *Formula) sat.Result {
		g := s.NewBoolLit()
		if err := s.Implies(g, f); err != nil {
			t.Fatal(err)
		}
		return s.SolveAssuming(g)
	}

	if err := s.Assert(Less(y, z)); err != nil {
		t.Fatal(err)
	}
	if r := query(Less(z, x)); r != sat.Unsat {
		t.Fatalf("z < x under the facts x < y < z: %v, want unsat", r)
	}
	s.Rollback(ck)
	if r := query(Less(z, x)); r != sat.Sat {
		t.Errorf("z < x after Rollback dropped y < z: %v, want sat", r)
	}
	s.Rollback(ck)
	if r := query(Less(y, x)); r != sat.Unsat {
		t.Errorf("y < x against the checkpointed fact x < y: %v, want unsat", r)
	}
	s.Rollback(ck)

	if err := s.Assert(Less(y, x)); !errors.Is(err, sat.ErrUnsat) {
		t.Fatalf("fact y < x against x < y: err %v, want sat.ErrUnsat", err)
	}
	s.Rollback(ck)
	if r := query(Less(x, z)); r != sat.Sat {
		t.Errorf("x < z after Rollback dropped the conflicting fact: %v, want sat", r)
	}
	if s.Value(x) >= s.Value(y) || s.Value(x) >= s.Value(z) {
		t.Errorf("model x=%d y=%d z=%d violates x < y and x < z", s.Value(x), s.Value(y), s.Value(z))
	}
}
