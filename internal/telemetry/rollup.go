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
	c.AddSAT(s.Stats())
	ts := s.TheoryStats()
	c.AddIDL(ts.Asserts, ts.NegativeCycles, ts.RepairSteps)
	es := s.EncStats()
	vars, clauses, _ := s.Size()
	c.AddEncoding(es.TheoryFacts, es.InternedAtoms, es.TseitinVars, es.TseitinClauses,
		int64(vars), int64(clauses), int64(s.NumIntVars()))
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
