package smt

import (
	"testing"

	"repro/internal/sat"
)

// TestEncodeStatsCountAtomsAndTseitin checks the encoder counters: one
// theory fact per asserted bare atom, one interned variable per distinct
// atom under a disjunction, and Tseitin auxiliaries only for composite
// subformulas that cannot be flattened into the parent.
func TestEncodeStatsCountAtomsAndTseitin(t *testing.T) {
	s := NewSolver()
	x, y, z := s.IntVar(), s.IntVar(), s.IntVar()

	// A flat conjunction of atoms, one repeated, asserts four root facts
	// and gives none of them a SAT variable.
	if err := s.Assert(And(Less(x, y), Less(y, z), Less(x, y), Less(x, z))); err != nil {
		t.Fatal(err)
	}
	es := s.EncStats()
	if es.TheoryFacts != 4 || es.InternedAtoms != 0 {
		t.Errorf("TheoryFacts, InternedAtoms = %d, %d, want 4, 0", es.TheoryFacts, es.InternedAtoms)
	}
	if vars, _, _ := s.Size(); vars != 0 {
		t.Errorf("bool vars = %d, want 0 for a conjunction of facts", vars)
	}
	if es.TseitinVars != 0 {
		t.Errorf("TseitinVars = %d, want 0 for a flat conjunction", es.TseitinVars)
	}

	// An Or of Ands needs one auxiliary per And child, with definition
	// clauses.
	f := Or(
		And(Less(x, y), Less(y, z)),
		And(Less(z, y), Less(y, x)))
	if err := s.Assert(f); err != nil {
		t.Fatal(err)
	}
	es = s.EncStats()
	if es.TseitinVars != 2 {
		t.Errorf("TseitinVars = %d, want 2 (one per And child)", es.TseitinVars)
	}
	if es.TseitinClauses == 0 {
		t.Error("TseitinClauses = 0, want definition clauses for the auxiliaries")
	}
	// The four atoms under the disjunction intern on first sight.
	if es.InternedAtoms != 4 {
		t.Errorf("InternedAtoms = %d, want 4", es.InternedAtoms)
	}

	// Re-asserting the same formula DAG node hits the encoding cache
	// (keyed on node identity): no new auxiliaries, no new atoms.
	before := s.EncStats()
	if err := s.Assert(f); err != nil {
		t.Fatal(err)
	}
	if got := s.EncStats(); got.TseitinVars != before.TseitinVars || got.InternedAtoms != before.InternedAtoms {
		t.Errorf("cache miss on re-assert: %+v → %+v", before, got)
	}

	// The facts force x < y < z, so the disjunction needs its first
	// branch.
	if r := s.Solve(); r != sat.Sat {
		t.Fatalf("Solve = %v, want sat", r)
	}
	if !(s.Value(x) < s.Value(y) && s.Value(y) < s.Value(z)) {
		t.Errorf("model x=%d y=%d z=%d violates the facts", s.Value(x), s.Value(y), s.Value(z))
	}
}

// TestEncodeStatsAdd checks the Add helper sums fieldwise.
func TestEncodeStatsAdd(t *testing.T) {
	a := EncodeStats{TheoryFacts: 4, InternedAtoms: 1, TseitinVars: 2, TseitinClauses: 3}
	a.Add(EncodeStats{TheoryFacts: 40, InternedAtoms: 10, TseitinVars: 20, TseitinClauses: 30})
	if a != (EncodeStats{TheoryFacts: 44, InternedAtoms: 11, TseitinVars: 22, TseitinClauses: 33}) {
		t.Errorf("Add = %+v", a)
	}
}

// TestTheoryStatsExposed checks the IDL counters are reachable through the
// solver facade.
func TestTheoryStatsExposed(t *testing.T) {
	s := NewSolver()
	x, y := s.IntVar(), s.IntVar()
	s.Assert(Less(x, y))
	if r := s.Solve(); r != sat.Sat {
		t.Fatalf("Solve = %v, want sat", r)
	}
	if s.TheoryStats().Asserts == 0 {
		t.Error("TheoryStats().Asserts = 0, want > 0 after solving with one atom")
	}
}
