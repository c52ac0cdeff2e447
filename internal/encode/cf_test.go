package encode

import (
	"testing"

	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/vc"
	"repro/trace"
)

func solverFor(tr *trace.Trace) (*Encoder, *smt.Solver, *CF) {
	s := smt.NewSolver()
	enc := New(tr, s, vc.ComputeMHB(tr), -1, -1)
	return enc, s, NewCF(enc, s)
}

func TestControlFlowEmptyWithoutBranches(t *testing.T) {
	b := trace.NewBuilder()
	b.Write(1, 5, 1)
	b.ReadV(2, 5, 1)
	enc, _, cf := solverFor(b.Trace())
	_ = enc
	f := cf.ControlFlow(1)
	if !f.IsTrue() {
		t.Errorf("no branches: ⟨cf⟩ must be true, got %v", f)
	}
}

func TestControlFlowPicksLastBranchPerThread(t *testing.T) {
	// Thread 2 has two branches before its read; only the last one's cf is
	// asserted (its definition recursively covers the earlier reads).
	b := trace.NewBuilder()
	b.Write(1, 5, 1) // 0
	b.ReadV(2, 5, 1) // 1
	b.Branch(2)      // 2
	b.ReadV(2, 5, 1) // 3
	b.Branch(2)      // 4
	b.ReadV(2, 5, 1) // 5: the query event
	tr := b.Trace()
	enc, s, cf := solverFor(tr)
	if err := enc.AssertMHB(); err != nil {
		t.Fatal(err)
	}
	if err := s.Assert(cf.ControlFlow(5)); err != nil {
		t.Fatal(err)
	}
	// Satisfiable: the original order satisfies both branch guards.
	if r := s.Solve(); r != sat.Sat {
		t.Fatalf("Solve = %v, want sat", r)
	}
	// Both reads must come after the write in any model (their value is 1).
	if !(s.Value(enc.Var(0)) < s.Value(enc.Var(1))) {
		t.Error("guarded read at 1 must follow the write")
	}
	if !(s.Value(enc.Var(0)) < s.Value(enc.Var(3))) {
		t.Error("guarded read at 3 must follow the write")
	}
}

func TestControlFlowUnsatisfiableGuard(t *testing.T) {
	// The branch needs a read of value 2, which no write ever produces
	// (the observed value came from a write of 2? No — craft the trace so
	// the read's only source is MHB-after it, making cf false).
	tr := trace.New(0)
	tr.Append(trace.Event{Tid: 2, Op: trace.OpRead, Addr: 5, Value: 2})  // 0: reads 2…
	tr.Append(trace.Event{Tid: 2, Op: trace.OpBranch})                   // 1
	tr.Append(trace.Event{Tid: 2, Op: trace.OpWrite, Addr: 6, Value: 1}) // 2: query
	// (No write of 2 exists anywhere: the trace is not even consistent,
	// standing in for a window whose producer write fell outside and was
	// not carried — cf must simply be unsatisfiable, not crash.)
	enc, s, cf := solverFor(tr)
	if err := enc.AssertMHB(); err != nil {
		t.Fatal(err)
	}
	if err := s.Assert(cf.ControlFlow(2)); err != nil && err != sat.ErrUnsat {
		t.Fatal(err)
	}
	if r := s.Solve(); r != sat.Unsat {
		t.Fatalf("Solve = %v, want unsat (unsatisfiable guard)", r)
	}
}

func TestAssertLocksCutAllowsPrefixOverlapAfterCut(t *testing.T) {
	// Two sections on one lock; with the cut before both acquires the
	// sections are unconstrained, so an "overlap" after the cut is fine.
	b := trace.NewBuilder()
	b.Acquire(1, 9) // 0
	b.Release(1, 9) // 1
	b.Acquire(2, 9) // 2
	b.Release(2, 9) // 3
	tr := b.Trace()
	s := smt.NewSolver()
	enc := New(tr, s, vc.ComputeMHB(tr), -1, -1)
	if err := enc.AssertMHB(); err != nil {
		t.Fatal(err)
	}
	cut := s.IntVar()
	if err := enc.AssertLocksCut(cut); err != nil {
		t.Fatal(err)
	}
	// Force interleaved acquires (illegal under full lock constraints)…
	s.Assert(smt.Less(enc.Var(0), enc.Var(2)))
	s.Assert(smt.Less(enc.Var(2), enc.Var(1)))
	// …and the cut before everything.
	s.Assert(smt.Less(cut, enc.Var(0)))
	if r := s.Solve(); r != sat.Sat {
		t.Fatalf("post-cut events must be lock-unconstrained: %v", r)
	}

	// Control: with the cut after both acquires, the overlap must be
	// rejected.
	s2 := smt.NewSolver()
	enc2 := New(tr, s2, vc.ComputeMHB(tr), -1, -1)
	enc2.AssertMHB()
	cut2 := s2.IntVar()
	enc2.AssertLocksCut(cut2)
	s2.Assert(smt.Less(enc2.Var(0), enc2.Var(2)))
	s2.Assert(smt.Less(enc2.Var(2), enc2.Var(1)))
	s2.Assert(smt.Less(enc2.Var(2), cut2))
	if r := s2.Solve(); r != sat.Unsat {
		t.Fatalf("in-prefix overlap must be rejected: %v", r)
	}
}

// TestTruncateForgetsLaterDefinitions: Truncate drops exactly the cf
// definitions memoised since Mark, so after a solver rollback to a
// checkpoint taken at the mark, the next query defines them again on the
// rolled-back solver instead of referencing discarded literals.
func TestTruncateForgetsLaterDefinitions(t *testing.T) {
	b := trace.NewBuilder()
	b.Write(1, 5, 1) // 0
	b.ReadV(2, 5, 1) // 1
	b.Branch(2)      // 2
	b.ReadV(3, 5, 1) // 3
	b.Branch(3)      // 4
	b.Write(2, 6, 1) // 5
	b.Write(3, 6, 2) // 6
	tr := b.Trace()
	_, s, cf := solverFor(tr)
	cf.ControlFlow(5)
	cf.Mark()
	ck := s.Checkpoint()
	cf.ControlFlow(6)
	if _, ok := cf.Defined(3); !ok {
		t.Fatal("cf(6) defined no literal for read 3")
	}
	s.Rollback(ck)
	cf.Truncate()
	if _, ok := cf.Defined(1); !ok {
		t.Error("Truncate dropped read 1, defined before the mark")
	}
	if _, ok := cf.Defined(3); ok {
		t.Error("Truncate kept read 3, defined after the mark")
	}
	// A second round after the rollback truncates the same way.
	cf.ControlFlow(6)
	s.Rollback(ck)
	cf.Truncate()
	if _, ok := cf.Defined(3); ok {
		t.Error("second Truncate kept read 3")
	}
}
