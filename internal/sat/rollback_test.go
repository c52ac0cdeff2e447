package sat

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// solverState is a deep copy of everything Rollback promises to restore.
// Clause references are kept as identities: a restored watcher or reason
// must refer to the very clause it referred to after Checkpoint.
type solverState struct {
	watches    [][]watcher
	clauses    []cref
	clauseLits [][]Lit
	nextDefs   []cref // clauses[i]'s nextDef
	roots      []cref
	firstDef   []cref
	nLearnts   int
	nHdr       int
	nArena     int
	assign     []Value
	level      []int32
	reason     []cref
	phase      []bool
	trail      []Lit
	trailLim   []int
	qhead      int
	thead      int
	clauseInc  float64
	rootUnsat  bool
}

func captureState(s *Solver) solverState {
	st := solverState{
		watches:   make([][]watcher, len(s.watches)),
		clauses:   slices.Clone(s.clauses),
		roots:     slices.Clone(s.roots),
		firstDef:  slices.Clone(s.firstDef),
		nLearnts:  len(s.learnts),
		nHdr:      len(s.hdr),
		nArena:    len(s.arena),
		assign:    slices.Clone(s.assign),
		level:     slices.Clone(s.level),
		reason:    slices.Clone(s.reason),
		phase:     slices.Clone(s.phase),
		trail:     slices.Clone(s.trail),
		trailLim:  slices.Clone(s.trailLim),
		qhead:     s.qhead,
		thead:     s.thead,
		clauseInc: s.clauseInc,
		rootUnsat: s.rootUnsat,
	}
	for i, wl := range s.watches {
		st.watches[i] = slices.Clone(s.wpool[wl.off : wl.off+wl.n])
	}
	for _, c := range s.clauses {
		st.clauseLits = append(st.clauseLits, slices.Clone(s.lits(c)))
		st.nextDefs = append(st.nextDefs, s.hdr[c].nextDef)
	}
	return st
}

// stateDiff describes the first difference between two captured states,
// or returns "" when they are identical.
func stateDiff(want, got solverState) string {
	if len(want.watches) != len(got.watches) {
		return fmt.Sprintf("%d watch lists, want %d", len(got.watches), len(want.watches))
	}
	for l := range want.watches {
		if !slices.Equal(want.watches[l], got.watches[l]) {
			return fmt.Sprintf("watch list %v = %v, want %v", Lit(l), got.watches[l], want.watches[l])
		}
	}
	if !slices.Equal(want.clauses, got.clauses) {
		return fmt.Sprintf("%d problem clauses (or different identities), want %d", len(got.clauses), len(want.clauses))
	}
	for i := range want.clauseLits {
		if !slices.Equal(want.clauseLits[i], got.clauseLits[i]) {
			return fmt.Sprintf("clause %d literals %v, want %v", i, got.clauseLits[i], want.clauseLits[i])
		}
	}
	switch {
	case !slices.Equal(want.nextDefs, got.nextDefs):
		return "definition links differ"
	case !slices.Equal(want.roots, got.roots):
		return fmt.Sprintf("%d root clauses (or different identities), want %d", len(got.roots), len(want.roots))
	case !slices.Equal(want.firstDef, got.firstDef):
		return "definition index differs"
	case want.nLearnts != got.nLearnts:
		return fmt.Sprintf("%d learned clauses, want %d", got.nLearnts, want.nLearnts)
	case want.nHdr != got.nHdr || want.nArena != got.nArena:
		return fmt.Sprintf("%d clause headers and %d arena literals, want %d and %d", got.nHdr, got.nArena, want.nHdr, want.nArena)
	case !slices.Equal(want.assign, got.assign):
		return "assign differs"
	case !slices.Equal(want.level, got.level):
		return "level differs"
	case !slices.Equal(want.reason, got.reason):
		return "reason differs"
	case !slices.Equal(want.phase, got.phase):
		return "phase differs"
	case !slices.Equal(want.trail, got.trail):
		return fmt.Sprintf("trail %v, want %v", got.trail, want.trail)
	case !slices.Equal(want.trailLim, got.trailLim):
		return "trailLim differs"
	case want.qhead != got.qhead || want.thead != got.thead:
		return fmt.Sprintf("qhead/thead %d/%d, want %d/%d", got.qhead, got.thead, want.qhead, want.thead)
	case want.clauseInc != got.clauseInc:
		return "clauseInc differs"
	case want.rootUnsat != got.rootUnsat:
		return "rootUnsat differs"
	}
	return ""
}

// amoTheory is a stub theory: among its relevant variables, those with the
// same value mod 4 form a group in which at most one may be true. It
// produces theory conflicts of two literals. Its model moves with every
// assertion: in a group with no variable asserted true, the first
// unasserted variable whose index has the parity of the number of
// assertions so far is true, and every other unasserted variable false.
// Check snapshots the true literals of the completed model.
type amoTheory struct {
	nRel  Var
	stack []Lit
	marks []int
	model []Lit
}

func (t *amoTheory) Relevant(v Var) bool { return v < t.nRel }

func (t *amoTheory) Assert(l Lit) []Lit {
	if l.Positive() {
		for _, p := range t.stack {
			if p.Positive() && p.Var()%4 == l.Var()%4 {
				return []Lit{p, l}
			}
		}
	}
	t.stack = append(t.stack, l)
	return nil
}

func (t *amoTheory) Push() { t.marks = append(t.marks, len(t.stack)) }

func (t *amoTheory) Pop(n int) {
	m := t.marks[len(t.marks)-n]
	t.marks = t.marks[:len(t.marks)-n]
	t.stack = t.stack[:m]
}

// Holds reads the model's value of an unasserted variable.
func (t *amoTheory) Holds(l Lit) bool {
	v := l.Var()
	if v >= t.nRel {
		return false
	}
	for u := v % 4; u < t.nRel; u += 4 {
		if slices.Contains(t.stack, MkLit(u, true)) {
			return !l.Positive()
		}
	}
	val := false
	for u := v % 4; u < t.nRel; u += 4 {
		if !slices.Contains(t.stack, MkLit(u, false)) && (int(u)+len(t.stack))%2 == 0 {
			val = u == v
			break
		}
	}
	return val == l.Positive()
}

func (t *amoTheory) Model(l Lit) bool {
	return slices.Contains(t.model, MkLit(l.Var(), true)) == l.Positive()
}

func (t *amoTheory) Check() []Lit {
	t.model = t.model[:0]
	for v := Var(0); v < t.nRel; v++ {
		p := MkLit(v, true)
		if slices.Contains(t.stack, p) ||
			!slices.Contains(t.stack, p.Neg()) && t.Holds(p) {
			t.model = append(t.model, p)
		}
	}
	return nil
}

// rollbackFixture is a random 3-SAT base formula, checkpointed, plus a
// generator of random queries against it.
type rollbackFixture struct {
	s     *Solver
	th    *amoTheory
	rng   *rand.Rand
	vars  []Var
	ck    *Checkpoint
	state solverState
	thLen int // the stub theory's assertions at the checkpoint
}

func newRollbackFixture(seed int64, nVars, nClauses int, theory bool) *rollbackFixture {
	f := &rollbackFixture{}
	if theory {
		f.th = &amoTheory{nRel: Var(min(nVars, 8))}
		f.s = New(f.th)
	} else {
		f.s = New(nil)
	}
	f.build(seed, nVars, nClauses)
	return f
}

// build encodes a random base formula on f's solver, which must be empty,
// solves it once and checkpoints it.
func (f *rollbackFixture) build(seed int64, nVars, nClauses int) {
	f.rng = rand.New(rand.NewSource(seed))
	f.vars = nil
	for i := 0; i < nVars; i++ {
		f.vars = append(f.vars, f.s.NewVar())
	}
	// A clause whose first literal is ¬h for a variable h the theory
	// does not watch is added as a definition of h, so the frontier has
	// chains to follow and queries can extend a checkpoint head's
	// definitions; the formula is the same either way.
	for i := 0; i < nClauses; i++ {
		a, b, c := f.randLit(), f.randLit(), f.randLit()
		if !a.Positive() && (f.th == nil || a.Var() >= f.th.nRel) {
			f.s.AddDef(a.Var(), b, c)
		} else {
			f.s.AddClause(a, b, c)
		}
	}
	// Some root-level facts, so the checkpoint has a non-empty trail.
	f.s.AddClause(f.randLit())
	f.s.Solve() // leaves learned clauses and a saved phase for Checkpoint to canonicalise
	f.checkpoint()
}

// checkpoint takes a new checkpoint and captures the state it leaves.
func (f *rollbackFixture) checkpoint() {
	f.ck = f.s.Checkpoint()
	f.state = captureState(f.s)
	if f.th != nil {
		f.thLen = len(f.th.stack)
	}
}

func (f *rollbackFixture) randLit() Lit {
	return MkLit(f.vars[f.rng.Intn(len(f.vars))], f.rng.Intn(2) == 0)
}

// randHead returns a base variable that may head definitions: one the
// stub theory does not watch. ok is false when there is none.
func (f *rollbackFixture) randHead() (Var, bool) {
	first := 0
	if f.th != nil {
		first = int(f.th.nRel)
	}
	if first >= len(f.vars) {
		return 0, false
	}
	return f.vars[first+f.rng.Intn(len(f.vars)-first)], true
}

// query is one random group: clauses over the base variables defining
// a fresh guard, optionally a root-level unit fact and a definition of a
// base head, solved under the guard.
type query struct {
	clauses [][3]Lit
	unit    Lit
	hasUnit bool
	head    Var
	headDef [2]Lit
	hasDef  bool
}

func (f *rollbackFixture) newQuery(n int) query {
	q := query{}
	for i := 0; i < n; i++ {
		q.clauses = append(q.clauses, [3]Lit{f.randLit(), f.randLit(), f.randLit()})
	}
	if f.rng.Intn(3) == 0 {
		q.unit, q.hasUnit = f.randLit(), true
	}
	if f.rng.Intn(2) == 0 {
		q.head, q.hasDef = f.randHead()
		q.headDef = [2]Lit{f.randLit(), f.randLit()}
	}
	return q
}

// run solves q from the current state and returns the verdict and the
// model over the base variables.
func (f *rollbackFixture) run(q query) (Result, []Value) {
	s := f.s
	g := s.NewVar()
	for _, c := range q.clauses {
		s.AddDef(g, c[0], c[1], c[2])
	}
	if q.hasUnit {
		s.AddClause(q.unit)
	}
	if q.hasDef {
		s.AddDef(q.head, q.headDef[0], q.headDef[1])
	}
	r := s.SolveAssuming([]Lit{MkLit(g, true)})
	m := make([]Value, len(f.vars))
	if r == Sat {
		for i, v := range f.vars {
			m[i] = s.ModelValue(v)
		}
	}
	return r, m
}

// rollback restores the checkpoint and checks the restored state is the
// one captured right after Checkpoint.
func (f *rollbackFixture) rollback(t testing.TB, what string) {
	t.Helper()
	f.s.Rollback(f.ck)
	if f.th != nil { // the theory rolls back alongside, as in smt
		f.th.stack = f.th.stack[:f.thLen]
	}
	if d := stateDiff(f.state, captureState(f.s)); d != "" {
		t.Fatalf("after %s: %s", what, d)
	}
}

// padLearnts fills the learned-clause database to maxLearnts with clauses
// implied by the base and runs reduceDB, the one change the undo log does
// not record. The clauses watch only two lists, so the lists the next
// search changes are left unlogged.
func (f *rollbackFixture) padLearnts() {
	s := f.s
	base := s.clauses[:f.ck.nClauses]
	for len(s.learnts) < maxLearnts {
		src := base[f.rng.Intn(len(base))]
		off := len(s.arena)
		s.arena = append(s.arena, MkLit(f.vars[0], true), MkLit(f.vars[1], true))
		s.arena = append(s.arena, s.lits(src)...)
		c := s.newClause(off, true)
		s.hdr[c].act = f.rng.Float64()
		s.learnts = append(s.learnts, c)
		s.watchClause(c)
	}
	s.reduceDB()
}

// TestRollbackRestoresExactState checks Rollback against a deep copy of
// the state Checkpoint left: every watch list element by element
// (blockers included), every base clause's literal order, the decision
// heap, the per-variable arrays, the trail and the activity increments.
// It covers learned clauses, root-level facts added after the checkpoint,
// theory conflicts, restarts and the reduceDB fallback.
func TestRollbackRestoresExactState(t *testing.T) {
	for _, tc := range []struct {
		name            string
		nVars, nClauses int
		theory          bool
	}{
		{"plain", 120, 470, false},
		{"theory", 120, 470, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A satisfiable base whose queries push it to the 3-SAT
			// threshold, so they need real search and restarts.
			f := newRollbackFixture(11, tc.nVars, tc.nClauses, tc.theory)
			if f.ck.rootUnsat {
				t.Fatal("base formula is unsatisfiable at the root")
			}
			before := f.s.Stats
			for i := 0; i < 12; i++ {
				// Hard and easy queries alternate.
				n := 40
				if i%2 == 1 {
					n = 12
				}
				f.run(f.newQuery(n))
				f.rollback(t, fmt.Sprintf("query %d", i))
				if i == 6 {
					f.padLearnts()
					if !f.s.watchLogStale {
						t.Fatal("reduceDB left the watch log live")
					}
					f.run(f.newQuery(40))
					f.rollback(t, "reduceDB fallback")
				}
			}
			learned := f.s.Stats.Learned - before.Learned
			restarts := f.s.Stats.Restarts - before.Restarts
			theoryConfl := f.s.Stats.TheoryConfl - before.TheoryConfl
			t.Logf("%d learned, %d restarts, %d theory conflicts", learned, restarts, theoryConfl)
			if learned == 0 || restarts == 0 {
				t.Errorf("queries too easy: %d learned clauses, %d restarts", learned, restarts)
			}
			if tc.theory && theoryConfl == 0 {
				t.Error("no theory conflicts")
			}
		})
	}
}

// FuzzCheckpointRollback checks, on random formulas and query sequences,
// that every Rollback restores the exact checkpointed state and that a
// query's verdict and model do not depend on the queries solved before it.
func FuzzCheckpointRollback(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(6), false)
	f.Add(int64(2), uint8(60), uint8(8), true)
	f.Add(int64(3), uint8(12), uint8(4), false)
	f.Add(int64(4), uint8(90), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed int64, n, nq uint8, theory bool) {
		nVars := 8 + int(n)%72
		fx := newRollbackFixture(seed, nVars, nVars*7/2, theory)
		queries := make([]query, 1+int(nq)%8)
		for i := range queries {
			queries[i] = fx.newQuery(1 + nVars/3)
		}
		type outcome struct {
			r Result
			m []Value
		}
		first := make([]outcome, len(queries))
		for i, q := range queries {
			first[i].r, first[i].m = fx.run(q)
			fx.rollback(t, fmt.Sprintf("query %d", i))
		}
		// Replay in reverse: each query must see the same state as before.
		for i := len(queries) - 1; i >= 0; i-- {
			r, m := fx.run(queries[i])
			fx.rollback(t, fmt.Sprintf("replay of query %d", i))
			if r != first[i].r || !slices.Equal(m, first[i].m) {
				t.Fatalf("query %d replayed as %v %v, first %v %v", i, r, m, first[i].r, first[i].m)
			}
		}
	})
}
