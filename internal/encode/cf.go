package encode

import (
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/trace"
)

// CF builds the memoised cf(e) control-flow feasibility definitions of
// Section 3.2 on top of an Encoder:
//
//   - cf of a read is the disjunction over candidate writes of the same
//     value (ReadConsistent), each itself concretely feasible;
//   - cf of a write or branch conjoins cf of the thread's preceding reads
//     (local determinism, Section 2.3);
//   - ⟨cf⟩(e) asserts cf of the last branch of every thread that must
//     happen before e (the set B_e).
//
// The definitions are mutually recursive and may be cyclic across threads;
// CF allocates one definition literal per event and ties the knot with
// smt.Ref. Cyclic justifications are excluded automatically: a read-from
// cycle alternates O_w < O_r atoms with program-order atoms and is
// contradictory in the order theory.
type CF struct {
	enc *Encoder
	s   *smt.Solver
	tr  *trace.Trace

	// depWindow > 0 bounds how many of the thread's preceding reads a
	// branch or write depends on — the weaker-axiom variant of the paper's
	// Section 2.3 Discussion. 0 keeps the conservative full-history
	// semantics.
	depWindow int

	lits map[int]sat.Lit // event -> its cf definition literal
	// log records the events of lits in insertion order, so Reset can
	// forget exactly the definitions created since a Mark.
	log []int

	// threadEvents lists event indices per thread in program order;
	// lastBranchUpTo[t][k] is the index of the last branch among the first
	// k events of thread t (-1 if none). Both are built lazily.
	threadEvents   map[trace.TID][]int
	lastBranchUpTo map[trace.TID][]int
}

// NewCF returns a cf builder over enc and s. depWindow 0 uses the paper's
// conservative all-preceding-reads dependence.
func NewCF(enc *Encoder, s *smt.Solver, depWindow int) *CF {
	return &CF{enc: enc, s: s, tr: enc.Trace(),
		depWindow: depWindow, lits: make(map[int]sat.Lit)}
}

// Mark returns the memo's current position, to be taken together with an
// smt.Checkpoint on the same solver.
func (c *CF) Mark() int { return len(c.log) }

// Reset forgets every cf definition created since Mark returned m. Call
// it with Solver.Rollback to the checkpoint taken with that mark: the
// rollback discards those definitions' literals and clauses, and a memo
// entry that outlived them would hand later queries a dangling literal.
// Encoding the same events again after Reset recreates the identical
// literals and clauses.
func (c *CF) Reset(m int) {
	for _, e := range c.log[m:] {
		delete(c.lits, e)
	}
	c.log = c.log[:m]
}

func (c *CF) buildThreadIndex() {
	if c.threadEvents != nil {
		return
	}
	c.threadEvents = c.tr.ByThread()
	c.lastBranchUpTo = make(map[trace.TID][]int, len(c.threadEvents))
	for t, evs := range c.threadEvents {
		lb := make([]int, len(evs)+1)
		lb[0] = -1
		for k, ei := range evs {
			if c.tr.Event(ei).Op == trace.OpBranch {
				lb[k+1] = ei
			} else {
				lb[k+1] = lb[k]
			}
		}
		c.lastBranchUpTo[t] = lb
	}
}

// AssertControlFlow asserts ⟨cf⟩(e): the concrete feasibility of every
// branch in B_e — the last branch event of each thread that must happen
// before e.
func (c *CF) AssertControlFlow(e int) error {
	return c.s.Assert(c.ControlFlow(e))
}

// ControlFlow returns the formula ⟨cf⟩(e) — one cf reference per thread's
// last branch that must happen before e — for the caller to assert
// directly or behind a guard literal (Solver.Implies).
func (c *CF) ControlFlow(e int) *smt.Formula {
	c.buildThreadIndex()
	mhb := c.enc.MHB()
	clock := mhb.Clock(e)
	var refs []*smt.Formula
	for ti, t := range mhb.Threads() {
		// The first k events of thread t must happen before e (for e's own
		// thread the clock includes e itself, which is not a branch, and a
		// branch at e's own position cannot guard e anyway).
		k := int(clock.Get(ti))
		if t == c.tr.Event(e).Tid {
			k--
		}
		evs := c.threadEvents[t]
		if k > len(evs) {
			k = len(evs)
		}
		if k <= 0 {
			continue
		}
		br := c.lastBranchUpTo[t][k]
		if br < 0 {
			continue
		}
		refs = append(refs, smt.Ref(c.cfLit(br)))
	}
	return smt.And(refs...)
}

// cfLit returns the definition literal of cf(e), creating and defining it
// on first use. The literal is allocated before the definition is built so
// cyclic cf dependencies resolve to references.
func (c *CF) cfLit(e int) sat.Lit {
	if l, ok := c.lits[e]; ok {
		return l
	}
	l := c.s.NewBoolLit()
	c.lits[e] = l
	c.log = append(c.log, e)
	var def *smt.Formula
	ev := c.tr.Event(e)
	switch ev.Op {
	case trace.OpRead:
		def = c.enc.ReadConsistent(e, func(w int) *smt.Formula {
			return smt.Ref(c.cfLit(w))
		})
	case trace.OpWrite, trace.OpBranch:
		// cf(e) = ⋀ cf(r) over the reads of e's thread before e (or its
		// last depWindow reads under the weaker bounded-history axioms).
		c.buildThreadIndex()
		var reads []int
		for _, ei := range c.threadEvents[ev.Tid] {
			if ei >= e {
				break
			}
			if c.tr.Event(ei).Op == trace.OpRead {
				reads = append(reads, ei)
			}
		}
		if c.depWindow > 0 && len(reads) > c.depWindow {
			reads = reads[len(reads)-c.depWindow:]
		}
		refs := make([]*smt.Formula, len(reads))
		for i, ei := range reads {
			refs[i] = smt.Ref(c.cfLit(ei))
		}
		def = smt.And(refs...)
	default:
		def = smt.True()
	}
	// Ignore a root-level unsat signal here; Solve reports it.
	_ = c.s.Implies(l, def)
	return l
}
