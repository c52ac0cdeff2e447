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
// The conjunction over preceding reads is encoded as a chain, so the
// encoding stays linear in thread length: cf(r) implies ReadConsistent(r)
// and cf of the previous read of r's thread, and a write or branch takes
// the literal of its thread's last read before it (no literal of its own).
// A write or branch with no earlier read gets an unconstrained literal.
// The definitions are mutually recursive and may be cyclic across
// threads; CF allocates each literal before building its definition and
// ties the knot with smt.Ref. Cyclic justifications are excluded
// automatically: a read-from cycle alternates O_w < O_r atoms with
// program-order atoms and is contradictory in the order theory.
type CF struct {
	enc *Encoder
	s   *smt.Solver
	tr  *trace.Trace

	lits map[int]sat.Lit // event -> its cf literal; none for an alias (see owner)
	// since lists the keys added to lits since Mark (nil before the first
	// Mark), which a rollback to the checkpoint discards.
	since []int

	// threadEvents lists event indices per thread in program order;
	// lastBranchUpTo[t][k] is the index of the last branch among the first
	// k events of thread t (-1 if none); prevRead[e] is the last read of
	// e's thread before e (-1 if none). All are built lazily.
	threadEvents   map[trace.TID][]int
	lastBranchUpTo map[trace.TID][]int
	prevRead       []int32
}

// NewCF returns a cf builder over enc and s.
func NewCF(enc *Encoder, s *smt.Solver) *CF {
	return &CF{enc: enc, s: s, tr: enc.Trace(), lits: make(map[int]sat.Lit)}
}

func (c *CF) buildThreadIndex() {
	if c.threadEvents != nil {
		return
	}
	c.threadEvents = c.tr.ByThread()
	c.lastBranchUpTo = make(map[trace.TID][]int, len(c.threadEvents))
	c.prevRead = make([]int32, c.tr.Len())
	for t, evs := range c.threadEvents {
		lb := make([]int, len(evs)+1)
		lb[0] = -1
		pr := int32(-1)
		for k, ei := range evs {
			c.prevRead[ei] = pr
			switch c.tr.Event(ei).Op {
			case trace.OpBranch:
				lb[k+1] = ei
			case trace.OpRead:
				pr = int32(ei)
				lb[k+1] = lb[k]
			default:
				lb[k+1] = lb[k]
			}
		}
		c.lastBranchUpTo[t] = lb
	}
}

// ControlFlow returns the formula ⟨cf⟩(e): the concrete feasibility of
// every branch in B_e — one cf reference per thread's last branch that
// must happen before e — for the caller to assert directly or behind a
// guard literal (Solver.Implies).
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

// Defined reports whether cf(e) currently has a literal, and which.
func (c *CF) Defined(e int) (sat.Lit, bool) {
	l, ok := c.lits[c.owner(e)]
	return l, ok
}

// owner returns the event whose literal stands for cf(e): a write or
// branch after a read of its thread shares that read's literal, and so
// adds nothing to the memo or the solver.
func (c *CF) owner(e int) int {
	c.buildThreadIndex()
	if p := c.prevRead[e]; p >= 0 && c.tr.Event(e).Op != trace.OpRead {
		return int(p)
	}
	return e
}

// cfLit returns the literal of cf(e), creating and defining it on first
// use. A read's literal heads its thread's read chain; a write or branch
// that owns its literal has no earlier read, so its cf is the empty
// conjunction and the literal stays unconstrained.
func (c *CF) cfLit(e int) sat.Lit {
	e = c.owner(e)
	if l, ok := c.lits[e]; ok {
		return l
	}
	if c.tr.Event(e).Op == trace.OpRead {
		return c.readChain(e)
	}
	return c.newLit(e)
}

// readChain defines cf(r) := ReadConsistent(r) ∧ cf(prev(r)) for r and
// every read before it in its thread that has no literal yet, walking the
// chain iteratively rather than recursing once per read. All the chain's
// literals are allocated before any definition is built, so a definition
// that reaches back into the chain through another thread resolves to a
// reference.
func (c *CF) readChain(r int) sat.Lit {
	chain := []int{r} // newest first
	for p := c.prevRead[r]; p >= 0; p = c.prevRead[p] {
		if _, ok := c.lits[int(p)]; ok {
			break
		}
		chain = append(chain, int(p))
	}
	for i := len(chain) - 1; i >= 0; i-- {
		c.newLit(chain[i])
	}
	for i := len(chain) - 1; i >= 0; i-- {
		ri := chain[i]
		def := c.readConsistent(ri)
		if p := c.prevRead[ri]; p >= 0 {
			def = smt.And(def, smt.Ref(c.lits[int(p)]))
		}
		// Ignore a root-level unsat signal here; Solve reports it.
		_ = c.s.Implies(c.lits[ri], def)
	}
	return c.lits[r]
}

// readConsistent is ReadConsistent(r) with each candidate write's own cf.
func (c *CF) readConsistent(r int) *smt.Formula {
	return c.enc.ReadConsistent(r, func(w int) *smt.Formula {
		return smt.Ref(c.cfLit(w))
	})
}

// newLit allocates and memoises the literal of cf(e).
func (c *CF) newLit(e int) sat.Lit {
	l := c.s.NewBoolLit()
	c.lits[e] = l
	if c.since != nil {
		c.since = append(c.since, e)
	}
	return l
}

// Mark records the memo's current contents as the state Truncate
// restores. Call it when the solver is checkpointed.
func (c *CF) Mark() { c.since = []int{} }

// Truncate forgets every definition memoised since Mark. Call it when
// the solver is rolled back to the checkpoint taken at Mark, whose
// rollback discarded those definitions' literals.
func (c *CF) Truncate() {
	for _, e := range c.since {
		delete(c.lits, e)
	}
	c.since = c.since[:0]
}
