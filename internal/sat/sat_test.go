package sat

import (
	"math/rand"
	"slices"
	"testing"
)

func TestLitBasics(t *testing.T) {
	v := Var(3)
	p := MkLit(v, true)
	n := MkLit(v, false)
	if p.Var() != v || n.Var() != v {
		t.Error("Var roundtrip failed")
	}
	if !p.Positive() || n.Positive() {
		t.Error("polarity wrong")
	}
	if p.Neg() != n || n.Neg() != p {
		t.Error("Neg is not an involution between polarities")
	}
	if p.String() != "x3" || n.String() != "¬x3" {
		t.Errorf("String: %q %q", p, n)
	}
}

func TestTrivialSat(t *testing.T) {
	s := New(nil)
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, true), MkLit(b, true))
	s.AddClause(MkLit(a, false))
	if r := s.Solve(); r != Sat {
		t.Fatalf("Solve = %v, want sat", r)
	}
	if s.ModelValue(a) != False {
		t.Error("a must be false")
	}
	if s.ModelValue(b) != True {
		t.Error("b must be true")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New(nil)
	a := s.NewVar()
	s.AddClause(MkLit(a, true))
	if err := s.AddClause(MkLit(a, false)); err != ErrUnsat {
		t.Fatalf("AddClause err = %v, want ErrUnsat", err)
	}
	if r := s.Solve(); r != Unsat {
		t.Fatalf("Solve = %v, want unsat", r)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New(nil)
	if err := s.AddClause(); err != ErrUnsat {
		t.Fatalf("empty clause must be ErrUnsat, got %v", err)
	}
}

func TestTautologyDropped(t *testing.T) {
	s := New(nil)
	a := s.NewVar()
	if err := s.AddClause(MkLit(a, true), MkLit(a, false)); err != nil {
		t.Fatalf("tautology must be accepted: %v", err)
	}
	if r := s.Solve(); r != Sat {
		t.Fatal("empty problem is sat")
	}
}

func TestDuplicateLiteralsMerged(t *testing.T) {
	s := New(nil)
	a := s.NewVar()
	s.AddClause(MkLit(a, true), MkLit(a, true))
	if r := s.Solve(); r != Sat || s.ModelValue(a) != True {
		t.Fatal("duplicate unit must force a true")
	}
}

// TestAddClauseNormalisation checks AddClause's normalisation of short
// and long clauses: duplicates merged in first-occurrence order,
// root-false literals dropped, tautologies and root-satisfied clauses
// discarded — also after a Rollback has discarded variables the
// per-variable marks still cover.
func TestAddClauseNormalisation(t *testing.T) {
	s := New(nil)
	v := make([]Var, 20)
	for i := range v {
		v[i] = s.NewVar()
	}
	pos := func(i int) Lit { return MkLit(v[i], true) }
	neg := func(i int) Lit { return MkLit(v[i], false) }
	s.AddClause(neg(0)) // v0 false at the root
	ck := s.Checkpoint()
	for _, n := range []int{3, 12} {
		for round := 0; round < 2; round++ {
			if round == 0 {
				s.NewVar() // a variable the rollback discards again
			}
			var lits []Lit
			for i := 1; i <= n; i++ {
				lits = append(lits, pos(i), pos(i)) // every literal twice
			}
			lits = append(lits, pos(0)) // root-false: dropped
			if err := s.AddClause(lits...); err != nil {
				t.Fatal(err)
			}
			got := s.lits(s.clauses[len(s.clauses)-1])
			if len(got) != n {
				t.Fatalf("%d-literal clause normalised to %v", n, got)
			}
			for i, l := range got {
				if l != pos(i+1) {
					t.Fatalf("%d-literal clause normalised to %v", n, got)
				}
			}
			before := s.NumClauses()
			s.AddClause(append(lits[:len(lits):len(lits)], neg(n))...) // tautology
			s.AddClause(append(lits[:len(lits):len(lits)], neg(0))...) // satisfied at the root
			if s.NumClauses() != before {
				t.Fatalf("%d-literal tautology or satisfied clause was stored", n)
			}
			s.Rollback(ck)
		}
	}
}

func TestUnsatChain(t *testing.T) {
	// (a ∨ b) ∧ (¬a ∨ b) ∧ (a ∨ ¬b) ∧ (¬a ∨ ¬b) is unsat.
	s := New(nil)
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, true), MkLit(b, true))
	s.AddClause(MkLit(a, false), MkLit(b, true))
	s.AddClause(MkLit(a, true), MkLit(b, false))
	s.AddClause(MkLit(a, false), MkLit(b, false))
	if r := s.Solve(); r != Unsat {
		t.Fatalf("Solve = %v, want unsat", r)
	}
}

// pigeonhole encodes n+1 pigeons into n holes (unsat).
func pigeonhole(t *testing.T, n int) Result {
	t.Helper()
	s := New(nil)
	// vars[p][h]
	vars := make([][]Var, n+1)
	for p := range vars {
		vars[p] = make([]Var, n)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p <= n; p++ {
		lits := make([]Lit, n)
		for h := 0; h < n; h++ {
			lits[h] = MkLit(vars[p][h], true)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(MkLit(vars[p1][h], false), MkLit(vars[p2][h], false))
			}
		}
	}
	return s.Solve()
}

func TestPigeonhole(t *testing.T) {
	for n := 2; n <= 6; n++ {
		if r := pigeonhole(t, n); r != Unsat {
			t.Fatalf("PHP(%d) = %v, want unsat", n, r)
		}
	}
}

func TestGraphColouring(t *testing.T) {
	// 3-colour a 5-cycle (sat) and try to 2-colour it (unsat: odd cycle).
	colour := func(k int) Result {
		s := New(nil)
		const n = 5
		vars := make([][]Var, n)
		for i := range vars {
			vars[i] = make([]Var, k)
			lits := make([]Lit, k)
			for c := 0; c < k; c++ {
				vars[i][c] = s.NewVar()
				lits[c] = MkLit(vars[i][c], true)
			}
			s.AddClause(lits...)
		}
		for i := 0; i < n; i++ {
			j := (i + 1) % n
			for c := 0; c < k; c++ {
				s.AddClause(MkLit(vars[i][c], false), MkLit(vars[j][c], false))
			}
		}
		return s.Solve()
	}
	if colour(3) != Sat {
		t.Error("C5 is 3-colourable")
	}
	if colour(2) != Unsat {
		t.Error("C5 is not 2-colourable")
	}
}

// bruteForce decides a CNF over n vars exhaustively.
func bruteForce(n int, cnf [][]Lit) bool {
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				val := mask>>uint(l.Var())&1 == 1
				if val == l.Positive() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 400; iter++ {
		n := 3 + rng.Intn(8)
		m := 1 + rng.Intn(4*n)
		cnf := make([][]Lit, m)
		for i := range cnf {
			k := 1 + rng.Intn(3)
			cl := make([]Lit, k)
			for j := range cl {
				cl[j] = MkLit(Var(rng.Intn(n)), rng.Intn(2) == 0)
			}
			cnf[i] = cl
		}
		want := bruteForce(n, cnf)
		s := New(nil)
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		rootUnsat := false
		for _, cl := range cnf {
			if err := s.AddClause(cl...); err != nil {
				rootUnsat = true
				break
			}
		}
		got := !rootUnsat && s.Solve() == Sat
		if got != want {
			t.Fatalf("iter %d: solver=%v oracle=%v cnf=%v", iter, got, want, cnf)
		}
		if got {
			// Verify the model actually satisfies the formula.
			for _, cl := range cnf {
				sat := false
				for _, l := range cl {
					mv := s.ModelValue(l.Var())
					if (mv == True) == l.Positive() && mv != Unknown {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("iter %d: model does not satisfy clause %v", iter, cl)
				}
			}
		}
	}
}

func TestIncrementalSolving(t *testing.T) {
	s := New(nil)
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, true), MkLit(b, true))
	if s.Solve() != Sat {
		t.Fatal("first solve must be sat")
	}
	s.AddClause(MkLit(a, false))
	if s.Solve() != Sat {
		t.Fatal("second solve must be sat")
	}
	if s.ModelValue(b) != True {
		t.Error("b forced true after a is falsified")
	}
	s.AddClause(MkLit(b, false))
	if s.Solve() != Unsat {
		t.Fatal("third solve must be unsat")
	}
}

func TestStatsPopulated(t *testing.T) {
	s := New(nil)
	vars := make([]Var, 20)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		s.AddClause(
			MkLit(vars[rng.Intn(20)], rng.Intn(2) == 0),
			MkLit(vars[rng.Intn(20)], rng.Intn(2) == 0),
			MkLit(vars[rng.Intn(20)], rng.Intn(2) == 0))
	}
	s.Solve()
	if s.Stats.Decisions == 0 && s.Stats.Propagations == 0 {
		t.Error("expected some search activity to be recorded")
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

// pairTheory is a toy theory over its relevant vars that forbids each of
// its pairs of variables from being true together. It is assertion-local
// (its verdict depends on the asserted literals alone, so any unasserted
// relevant variable may stay false), but it only reports a violation in
// Check. It exercises the DPLL(T) plumbing: Check-only conflicts,
// Push/Pop balancing and Assert bookkeeping.
type pairTheory struct {
	relevant map[Var]bool
	forbid   [][2]Var
	asserted []Lit
	marks    []int
	checks   int
	pushes   int
	pops     int
}

func (x *pairTheory) Relevant(v Var) bool { return x.relevant[v] }

func (x *pairTheory) Assert(l Lit) []Lit {
	x.asserted = append(x.asserted, l)
	return nil
}

func (x *pairTheory) Push() {
	x.pushes++
	x.marks = append(x.marks, len(x.asserted))
}

func (x *pairTheory) Pop(n int) {
	x.pops += n
	target := x.marks[len(x.marks)-n]
	x.marks = x.marks[:len(x.marks)-n]
	x.asserted = x.asserted[:target]
}

// Holds reads the model, which leaves every unasserted variable false.
func (x *pairTheory) Holds(l Lit) bool { return x.relevant[l.Var()] && !l.Positive() }

func (x *pairTheory) Model(l Lit) bool { return x.Holds(l) }

func (x *pairTheory) Check() []Lit {
	x.checks++
	for _, p := range x.forbid {
		a, b := MkLit(p[0], true), MkLit(p[1], true)
		if slices.Contains(x.asserted, a) && slices.Contains(x.asserted, b) {
			return []Lit{a, b}
		}
	}
	return nil
}

func TestTheoryCheckConflicts(t *testing.T) {
	th := &pairTheory{relevant: map[Var]bool{}}
	s := New(th)
	a := s.NewVar()
	b := s.NewVar()
	c := s.NewVar()
	th.relevant[a] = true
	th.relevant[b] = true
	th.relevant[c] = true
	th.forbid = [][2]Var{{a, b}}
	// Force a true and require b ∨ c. The saved phases (all false) agree
	// with neither literal, so the first decision takes b; only Check
	// sees that a ∧ b is forbidden, and c must come up true instead.
	s.AddClause(MkLit(a, true))
	s.AddClause(MkLit(b, true), MkLit(c, true))
	if r := s.Solve(); r != Sat {
		t.Fatalf("Solve = %v, want sat", r)
	}
	if s.ModelValue(a) != True || s.ModelValue(b) != False || s.ModelValue(c) != True {
		t.Errorf("model a=%v b=%v c=%v, want a ∧ ¬b ∧ c", s.ModelValue(a), s.ModelValue(b), s.ModelValue(c))
	}
	if th.checks < 2 || s.Stats.TheoryConfl == 0 {
		t.Errorf("%d Check calls, %d theory conflicts: want a Check conflict before the model", th.checks, s.Stats.TheoryConfl)
	}
	if th.pushes != th.pops {
		t.Errorf("unbalanced theory push/pop: %d pushes, %d pops (solver must pop everything before returning)", th.pushes, th.pops)
	}
}

func TestTheoryUnsat(t *testing.T) {
	// a forced true, b implied by a, and the theory forbidding a ∧ b
	// (in Check only): unsat.
	th := &pairTheory{relevant: map[Var]bool{}}
	s := New(th)
	a := s.NewVar()
	b := s.NewVar()
	th.relevant[a] = true
	th.relevant[b] = true
	th.forbid = [][2]Var{{a, b}}
	s.AddClause(MkLit(a, true))
	s.AddClause(MkLit(a, false), MkLit(b, true))
	if r := s.Solve(); r != Unsat {
		t.Fatalf("Solve = %v, want unsat", r)
	}
}

func TestSolveAssumingBasics(t *testing.T) {
	s := New(nil)
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, true), MkLit(b, true))
	// Assume ¬a: b must come out true.
	if r := s.SolveAssuming([]Lit{MkLit(a, false)}); r != Sat {
		t.Fatalf("Solve(¬a) = %v, want sat", r)
	}
	if s.ModelValue(b) != True {
		t.Error("b must be true under ¬a")
	}
	// Assume both false: unsat under assumptions…
	if r := s.SolveAssuming([]Lit{MkLit(a, false), MkLit(b, false)}); r != Unsat {
		t.Fatal("¬a ∧ ¬b contradicts the clause")
	}
	// …but the solver is not poisoned.
	if r := s.SolveAssuming([]Lit{MkLit(a, true)}); r != Sat {
		t.Fatal("a=true must still be sat after an assumption-unsat call")
	}
	if r := s.Solve(); r != Sat {
		t.Fatal("unassumed solve must still be sat")
	}
}

func TestSolveAssumingImpliedAssumption(t *testing.T) {
	// An assumption already implied at the root exercises the dummy-level
	// path.
	s := New(nil)
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, true)) // root unit
	s.AddClause(MkLit(a, false), MkLit(b, true))
	if r := s.SolveAssuming([]Lit{MkLit(a, true), MkLit(b, true)}); r != Sat {
		t.Fatalf("implied assumptions must be sat, got %v", r)
	}
}

func TestSolveAssumingGuardedQueries(t *testing.T) {
	// The windowed-detector pattern: shared constraints plus per-query
	// guards, alternating sat and unsat queries on one solver.
	s := New(nil)
	x := s.NewVar()
	y := s.NewVar()
	s.AddClause(MkLit(x, true), MkLit(y, true)) // shared: x ∨ y
	g1 := s.NewVar()
	s.AddClause(MkLit(g1, false), MkLit(x, false)) // g1 → ¬x
	g2 := s.NewVar()
	s.AddClause(MkLit(g2, false), MkLit(x, false)) // g2 → ¬x
	s.AddClause(MkLit(g2, false), MkLit(y, false)) // g2 → ¬y
	for i := 0; i < 3; i++ {
		if r := s.SolveAssuming([]Lit{MkLit(g1, true)}); r != Sat {
			t.Fatalf("iter %d: g1 query must be sat", i)
		}
		if s.ModelValue(y) != True {
			t.Error("y forced under g1")
		}
		if r := s.SolveAssuming([]Lit{MkLit(g2, true)}); r != Unsat {
			t.Fatalf("iter %d: g2 query must be unsat", i)
		}
	}
}

func TestSolveAssumingRandomDifferential(t *testing.T) {
	// Assumptions behave exactly like temporary unit clauses: compare each
	// assuming-solve against a fresh solver with the units added.
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 200; iter++ {
		n := 4 + rng.Intn(5)
		m := 2 + rng.Intn(3*n)
		cnf := make([][]Lit, m)
		for i := range cnf {
			k := 1 + rng.Intn(3)
			cl := make([]Lit, k)
			for j := range cl {
				cl[j] = MkLit(Var(rng.Intn(n)), rng.Intn(2) == 0)
			}
			cnf[i] = cl
		}
		inc := New(nil)
		for i := 0; i < n; i++ {
			inc.NewVar()
		}
		rootBad := false
		for _, cl := range cnf {
			if err := inc.AddClause(cl...); err != nil {
				rootBad = true
				break
			}
		}
		for q := 0; q < 4; q++ {
			var assumps []Lit
			used := map[Var]bool{}
			for len(assumps) < 1+rng.Intn(2) {
				v := Var(rng.Intn(n))
				if used[v] {
					continue
				}
				used[v] = true
				assumps = append(assumps, MkLit(v, rng.Intn(2) == 0))
			}
			gotSat := !rootBad && inc.SolveAssuming(assumps) == Sat
			// Reference: fresh solver with the assumptions as units.
			ref := New(nil)
			for i := 0; i < n; i++ {
				ref.NewVar()
			}
			bad := false
			for _, cl := range cnf {
				if err := ref.AddClause(cl...); err != nil {
					bad = true
					break
				}
			}
			for _, l := range assumps {
				if bad {
					break
				}
				if err := ref.AddClause(l); err != nil {
					bad = true
				}
			}
			wantSat := !bad && ref.Solve() == Sat
			if gotSat != wantSat {
				t.Fatalf("iter %d q %d: incremental=%v reference=%v assumps=%v cnf=%v",
					iter, q, gotSat, wantSat, assumps, cnf)
			}
		}
	}
}

func TestReduceDBKeepsResults(t *testing.T) {
	// Force enough conflicts to trigger learned-clause reduction and check
	// the solver still answers correctly afterwards (watch lists rebuilt).
	s := New(nil)
	const n = 60
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	rng := rand.New(rand.NewSource(123))
	for c := 0; c < 260; c++ {
		s.AddClause(
			MkLit(vars[rng.Intn(n)], rng.Intn(2) == 0),
			MkLit(vars[rng.Intn(n)], rng.Intn(2) == 0),
			MkLit(vars[rng.Intn(n)], rng.Intn(2) == 0))
	}
	first := s.Solve()
	for q := 0; q < 50; q++ {
		a := MkLit(vars[rng.Intn(n)], rng.Intn(2) == 0)
		b := MkLit(vars[rng.Intn(n)], rng.Intn(2) == 0)
		r1 := s.SolveAssuming([]Lit{a, b})
		r2 := s.SolveAssuming([]Lit{a, b})
		if r1 != r2 {
			t.Fatalf("query %d not stable across solves: %v vs %v", q, r1, r2)
		}
	}
	if first == Sat && s.NumClauses() == 0 {
		t.Error("clause accounting broken")
	}
	_ = s.NumLearnts()
}
