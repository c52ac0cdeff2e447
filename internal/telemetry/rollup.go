package telemetry

import (
	"repro/internal/sat"
	"repro/internal/smt"
)

// AddSolver rolls every counter of one DPLL(T) solver into the collector:
// the CDCL search stats, the IDL theory stats, the encoding stats and the
// final encoding sizes. Call it exactly once per solver, after its last
// Solve — the underlying counters are cumulative, so rolling up a solver
// that will keep searching undercounts, and rolling it up twice
// double-counts.
func (c *Collector) AddSolver(s *smt.Solver) {
	if c == nil {
		return
	}
	st, ts, es := s.Stats(), s.TheoryStats(), s.EncStats()
	vars, clauses, _ := s.Size()
	c.counters[Decisions].Add(st.Decisions)
	c.counters[Propagations].Add(st.Propagations)
	c.counters[Conflicts].Add(st.Conflicts)
	c.counters[Restarts].Add(st.Restarts)
	c.counters[Learned].Add(st.Learned)
	c.counters[TheoryProps].Add(st.TheoryProps)
	c.counters[TheoryConflicts].Add(st.TheoryConfl)
	c.counters[WatchMoves].Add(st.WatchMoves)
	c.counters[UndoLogEntries].Add(st.UndoLogEntries)
	c.counters[IDLAsserts].Add(ts.Asserts)
	c.counters[IDLNegativeCycles].Add(ts.NegativeCycles)
	c.counters[IDLRepairSteps].Add(ts.RepairSteps)
	c.counters[TheoryFacts].Add(es.TheoryFacts)
	c.counters[InternedAtoms].Add(es.InternedAtoms)
	c.counters[TseitinVars].Add(es.TseitinVars)
	c.counters[TseitinClauses].Add(es.TseitinClauses)
	c.counters[BoolVars].Add(int64(vars))
	c.counters[Clauses].Add(int64(clauses))
	c.counters[IntVars].Add(int64(s.NumIntVars()))
	c.counters[Solvers].Add(1)
}

// OutcomeOf translates a solver verdict into the telemetry outcome
// vocabulary, splitting aborts by their cause (deadline or cooperative
// cancellation).
func OutcomeOf(s *smt.Solver, isSat, aborted bool) Outcome {
	switch {
	case isSat:
		return OutcomeSat
	case aborted && s.LastAbortCause() == sat.AbortCancelled:
		return OutcomeCancelled
	case aborted:
		return OutcomeTimeout
	}
	return OutcomeUnsat
}
