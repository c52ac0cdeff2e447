package telemetry

import (
	"testing"
	"time"

	"repro/internal/sat"
	"repro/internal/smt"
)

// TestAddSolverRollsUpAllLayers solves a small mixed formula and checks
// every layer's counters reach the snapshot through AddSolver.
func TestAddSolverRollsUpAllLayers(t *testing.T) {
	s := smt.NewSolver()
	x, y, z := s.IntVar(), s.IntVar(), s.IntVar()
	// Nested And under Or forces Tseitin auxiliaries, not just a clause.
	if err := s.Assert(smt.Or(
		smt.And(smt.Less(x, y), smt.Less(y, z)),
		smt.And(smt.Less(z, y), smt.Less(y, x)))); err != nil {
		t.Fatal(err)
	}
	if r := s.Solve(); r != sat.Sat {
		t.Fatalf("Solve = %v, want sat", r)
	}

	c := NewCollector()
	c.AddSolver(s)
	m := c.Snapshot()
	if m.Solver.Solvers != 1 {
		t.Errorf("solvers = %d, want 1", m.Solver.Solvers)
	}
	if m.Solver.IDLAsserts == 0 {
		t.Error("IDL assert counter did not roll up")
	}
	if m.Solver.InternedAtoms == 0 || m.Solver.TseitinClauses == 0 {
		t.Errorf("encoder counters did not roll up: %+v", m.Solver)
	}
	if m.Solver.BoolVars == 0 || m.Solver.IntVars != 3 {
		t.Errorf("sizes did not roll up: %+v", m.Solver)
	}

	// AddSolver on a nil collector must be a no-op.
	var nc *Collector
	nc.AddSolver(s)
}

// TestOutcomeOf maps solver end states to outcomes, including the
// timeout / cancellation split via sat.AbortCause.
func TestOutcomeOf(t *testing.T) {
	fresh := func() *smt.Solver {
		s := smt.NewSolver()
		x, y := s.IntVar(), s.IntVar()
		s.Assert(smt.Less(x, y))
		return s
	}

	if got := OutcomeOf(fresh(), true, false); got != OutcomeSat {
		t.Errorf("sat case = %v", got)
	}
	if got := OutcomeOf(fresh(), false, false); got != OutcomeUnsat {
		t.Errorf("unsat case = %v", got)
	}

	// Deadline in the past → Aborted with cause AbortDeadline. The
	// deadline is only polled at conflicts, so force one: x < y is
	// asserted, and both Or branches contradict it at decision level ≥ 1.
	s := smt.NewSolver()
	x, y := s.IntVar(), s.IntVar()
	s.Assert(smt.Less(x, y))
	s.Assert(smt.Or(smt.Diff(y, x, -5), smt.Diff(y, x, -6)))
	s.SetDeadline(time.Now().Add(-time.Second))
	if r := s.Solve(); r != sat.Aborted {
		t.Fatalf("Solve with expired deadline = %v, want aborted", r)
	}
	if got := OutcomeOf(s, false, true); got != OutcomeTimeout {
		t.Errorf("deadline abort = %v, want timeout", got)
	}

	// A cancel poll that fires is checked on Solve entry → Aborted with
	// cause AbortCancelled.
	s2 := fresh()
	s2.SetCancel(func() bool { return true })
	if r := s2.Solve(); r != sat.Aborted {
		t.Fatalf("Solve with cancel = %v, want aborted", r)
	}
	if got := OutcomeOf(s2, false, true); got != OutcomeCancelled {
		t.Errorf("cancel abort = %v, want cancelled", got)
	}
}
