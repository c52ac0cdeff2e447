package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// defFormula is a random problem in the shape smt hands the solver: root
// clauses, and definitions ¬head ∨ body whose bodies reach other heads,
// so that a true head pulls further definitions into the frontier.
type defFormula struct {
	n     int // variables; the first nRel are theory-relevant
	nRel  int // theory variables (never heads)
	roots [][]Lit
	defs  []defClause
}

type defClause struct {
	head Var
	body []Lit
}

func randDefFormula(rng *rand.Rand) defFormula {
	f := defFormula{n: 6 + rng.Intn(7)}
	f.nRel = rng.Intn(f.n - 1)
	lit := func() Lit { return MkLit(Var(rng.Intn(f.n)), rng.Intn(2) == 0) }
	for i := rng.Intn(4); i > 0; i-- {
		cl := make([]Lit, 1+rng.Intn(3))
		for j := range cl {
			cl[j] = lit()
		}
		f.roots = append(f.roots, cl)
	}
	for i := rng.Intn(3 * f.n); i > 0; i-- {
		d := defClause{head: Var(f.nRel + rng.Intn(f.n-f.nRel))}
		for j := rng.Intn(4); j > 0; j-- {
			d.body = append(d.body, lit())
		}
		f.defs = append(f.defs, d)
	}
	return f
}

// clauses returns every clause of f, definitions as ¬head ∨ body.
func (f defFormula) clauses() [][]Lit {
	cnf := slices.Clone(f.roots)
	for _, d := range f.defs {
		cnf = append(cnf, append([]Lit{MkLit(d.head, false)}, d.body...))
	}
	return cnf
}

// holds reports whether the total assignment val satisfies cnf, the
// assumptions and the at-most-one theory.
func (f defFormula) holds(val func(Var) bool, cnf [][]Lit, assumps []Lit) bool {
	isTrue := func(l Lit) bool { return val(l.Var()) == l.Positive() }
	for _, cl := range cnf {
		if !slices.ContainsFunc(cl, isTrue) {
			return false
		}
	}
	for _, l := range assumps {
		if !isTrue(l) {
			return false
		}
	}
	for i := 0; i < f.nRel; i++ {
		for j := i + 4; j < f.nRel; j += 4 {
			if val(Var(i)) && val(Var(j)) {
				return false
			}
		}
	}
	return true
}

// TestJustifiedModelsAgainstBruteForce decides random root clauses and
// definition chains over a theory under random assumptions, several
// queries per solver, and checks each verdict against exhaustive search.
// Every Sat answer's completion, ModelValue, must satisfy every clause,
// the assumptions and the theory, although the search leaves whatever it
// did not need unassigned and lets the stub theory's moving model
// justify clauses (Theory.Holds); for the theory's variables it must
// agree with the model the theory's Check snapshotted.
func TestJustifiedModelsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	sats, theoryConfl := 0, int64(0)
	for iter := 0; iter < 600; iter++ {
		f := randDefFormula(rng)
		cnf := f.clauses()
		th := &amoTheory{nRel: Var(f.nRel)}
		s := New(th)
		for i := 0; i < f.n; i++ {
			s.NewVar()
		}
		rootUnsat := false
		for _, cl := range f.roots {
			rootUnsat = rootUnsat || s.AddClause(cl...) != nil
		}
		for _, d := range f.defs {
			rootUnsat = rootUnsat || s.AddDef(d.head, d.body...) != nil
		}
		for q := 0; q < 4; q++ {
			var assumps []Lit
			for i := rng.Intn(3); i > 0; i-- {
				assumps = append(assumps, MkLit(Var(rng.Intn(f.n)), rng.Intn(2) == 0))
			}
			want := false
			for mask := 0; mask < 1<<f.n && !want; mask++ {
				want = f.holds(func(v Var) bool { return mask>>v&1 == 1 }, cnf, assumps)
			}
			before := s.Stats.TheoryConfl
			got := !rootUnsat && s.SolveAssuming(assumps) == Sat
			theoryConfl += s.Stats.TheoryConfl - before
			if got != want {
				t.Fatalf("iter %d query %d: solver=%v oracle=%v\nroots %v\ndefs %v\nassumptions %v",
					iter, q, got, want, f.roots, f.defs, assumps)
			}
			if !got {
				continue
			}
			sats++
			val := func(v Var) bool { return s.ModelValue(v) == True }
			for v := Var(0); int(v) < f.nRel; v++ {
				if val(v) != slices.Contains(th.model, MkLit(v, true)) {
					t.Fatalf("iter %d query %d: ModelValue(%v) disagrees with the theory's model", iter, q, v)
				}
			}
			if !f.holds(val, cnf, assumps) {
				t.Fatalf("iter %d query %d: completed model violates the formula\nroots %v\ndefs %v\nassumptions %v",
					iter, q, f.roots, f.defs, assumps)
			}
		}
	}
	t.Logf("%d sat answers, %d theory conflicts", sats, theoryConfl)
	if sats < 200 || theoryConfl == 0 {
		t.Errorf("%d sat answers, %d theory conflicts: the generator misses a case", sats, theoryConfl)
	}
}

// TestModelHeldClauseRecheckedBeforeSat pins the Sat-time re-walk: the
// stub theory's model first holds x0, which justifies the root clause
// x0 ∨ y ∨ z; deciding x1 for the second root clause then moves the
// model to ¬x0. The search must notice before it answers Sat, and decide
// the first clause after all.
func TestModelHeldClauseRecheckedBeforeSat(t *testing.T) {
	th := &amoTheory{nRel: 2}
	s := New(th)
	x0, x1, y, z, w := s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar()
	if !th.Holds(MkLit(x0, true)) || th.Holds(MkLit(x1, true)) {
		t.Fatal("stub model: want x0 true and x1 false before any assertion")
	}
	s.AddClause(MkLit(x0, true), MkLit(y, true), MkLit(z, true))
	s.AddClause(MkLit(x1, true), MkLit(w, true))
	if r := s.Solve(); r != Sat {
		t.Fatalf("Solve = %v, want sat", r)
	}
	if s.ModelValue(x0) != True && s.ModelValue(y) != True && s.ModelValue(z) != True {
		t.Errorf("model x0=%v y=%v z=%v violates x0 ∨ y ∨ z", s.ModelValue(x0), s.ModelValue(y), s.ModelValue(z))
	}
	if s.ModelValue(x1) != True && s.ModelValue(w) != True {
		t.Errorf("model x1=%v w=%v violates x1 ∨ w", s.ModelValue(x1), s.ModelValue(w))
	}
}
