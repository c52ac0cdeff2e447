package smt

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sat"
)

// interned returns the solver's atom table as a map, checking on the way
// that every entry is where a lookup finds it, carries its atom's hash
// bits, and maps through the per-variable index back to its atom.
func interned(t *testing.T, s *Solver) map[Atom]sat.Var {
	t.Helper()
	tab := &s.atoms
	got := make(map[Atom]sat.Var)
	for i, sl := range tab.slots {
		if sl.vp1 == 0 {
			continue
		}
		v := sat.Var(sl.vp1 - 1)
		if !tab.interned(v) {
			t.Fatalf("slot %d holds variable %d, which is not an atom's", i, v)
		}
		a := tab.atomOf(v)
		got[a] = v
		if sl.fp != a.hash() || tab.find(a, a.hash()) != i {
			t.Fatalf("atom %v sits where a lookup does not reach it", a)
		}
	}
	if len(got) != len(tab.log) {
		t.Fatalf("atom table holds %d entries, its log %d", len(got), len(tab.log))
	}
	return got
}

// TestAtomTableAgainstMap drives the table directly through interning
// and rollbacks to random earlier points, in a key space small enough
// that probe runs collide and wrap, and compares it with a map after
// every step. As in the solver, a rollback also discards the variables
// allocated since, and later atoms reuse their numbers.
func TestAtomTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var tab atomTable
	want := make(map[Atom]sat.Var)
	var vars []sat.Var // per logged atom
	next := sat.Var(0)
	for step := 0; step < 20000; step++ {
		if len(vars) > 0 && rng.Intn(8) == 0 {
			n := rng.Intn(len(vars))
			for _, a := range tab.log[n:] {
				delete(want, a)
			}
			next = vars[n]
			tab.truncate(n, int(next))
			vars = vars[:n]
		} else {
			a := Atom{X: IntVar(rng.Intn(9)), Y: IntVar(rng.Intn(9)), C: int64(rng.Intn(5) - 2)}
			v, found := tab.intern(a, next)
			w, ok := want[a]
			if found != ok || ok && v != w {
				t.Fatalf("step %d: intern(%v) = %d, %v; want %d, %v", step, a, v, found, w, ok)
			}
			if !ok {
				want[a] = next
				vars = append(vars, next)
			}
			next += sat.Var(1 + rng.Intn(2)) // some variables are not atoms
		}
		if len(tab.log) != len(want) {
			t.Fatalf("step %d: %d entries, want %d", step, len(tab.log), len(want))
		}
		if step%97 == 0 {
			for a, w := range want {
				if v, found := tab.intern(a, -1); !found || v != w {
					t.Fatalf("step %d: lookup of %v = %d, %v; want %d", step, a, v, found, w)
				}
			}
		}
	}
}

// FuzzInternRollback interleaves assertions and definitions over random
// atoms with checkpoints, rollbacks and solves, against a plain-map model
// of what the solver must hold: after every rollback the interned-atom
// set is the one the checkpoint saw, EncStats counts what the model
// counts, and a solve of the checkpointed base gives the model it gave
// right after the checkpoint. Every Sat model satisfies the constraints
// asserted and the definitions of the guards assumed.
func FuzzInternRollback(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 1, 2, 1, 0, 4, 3, 1, 1, 4, 3})
	f.Add(int64(2), []byte{1, 1, 1, 1, 2, 0, 0, 1, 1, 1, 4, 3, 1, 4, 3, 2, 1, 3})
	f.Add(int64(3), []byte{2, 5, 5, 1, 1, 1, 1, 1, 1, 1, 1, 4, 3, 1, 1, 3, 4})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 200 {
			ops = ops[:200]
		}
		rng := rand.New(rand.NewSource(seed))
		s := NewSolver()
		const n = 12
		xs := make([]IntVar, n)
		for i := range xs {
			xs[i] = s.IntVarAt(int64(i))
		}
		atom := func() *Formula {
			x := rng.Intn(n)
			y := (x + 1 + rng.Intn(n-1)) % n
			return Diff(xs[x], xs[y], int64(rng.Intn(9)-4))
		}

		// The model: atoms interned, root constraints, guards and their
		// definitions, and encoder counts; a checkpoint copies all but
		// the counts, which keep counting across rollbacks.
		type state struct {
			atoms  map[Atom]bool
			roots  []*Formula
			guards []sat.Lit
			defs   map[sat.Lit][]*Formula
		}
		cur := state{atoms: map[Atom]bool{}, defs: map[sat.Lit][]*Formula{}}
		clone := func(st state) state {
			defs := make(map[sat.Lit][]*Formula, len(st.defs))
			for g, fs := range st.defs {
				defs[g] = slices.Clone(fs)
			}
			return state{maps.Clone(st.atoms), slices.Clone(st.roots), slices.Clone(st.guards), defs}
		}
		var stats EncodeStats
		intern := func(fs ...*Formula) {
			for _, g := range fs {
				if !cur.atoms[g.atom] {
					cur.atoms[g.atom] = true
					stats.InternedAtoms++
				}
			}
		}
		var ck *Checkpoint
		var saved state
		var baseR sat.Result
		var baseM []int64

		eval := func(m []int64, g *Formula) bool {
			var walk func(*Formula) bool
			walk = func(g *Formula) bool {
				switch g.kind {
				case kAtom:
					return m[g.atom.X]-m[g.atom.Y] <= g.atom.C
				case kOr:
					for _, k := range g.kids {
						if walk(k) {
							return true
						}
					}
					return false
				}
				t.Fatalf("unexpected formula %v", g)
				return false
			}
			return walk(g)
		}
		solve := func(guards []sat.Lit) (sat.Result, []int64) {
			r := s.SolveAssuming(guards...)
			if r != sat.Sat {
				return r, nil
			}
			m := make([]int64, n)
			for i, x := range xs {
				m[i] = s.Value(x)
			}
			for _, g := range cur.roots {
				if !eval(m, g) {
					t.Fatalf("model %v violates root constraint %v", m, g)
				}
			}
			for _, l := range guards {
				for _, g := range cur.defs[l] {
					if !eval(m, g) {
						t.Fatalf("model %v violates %v of assumed guard %v", m, g, l)
					}
				}
			}
			return r, m
		}
		check := func(what string) {
			t.Helper()
			got := interned(t, s)
			if len(got) != len(cur.atoms) {
				t.Fatalf("after %s: %d atoms interned, want %d", what, len(got), len(cur.atoms))
			}
			for a := range cur.atoms {
				if _, ok := got[a]; !ok {
					t.Fatalf("after %s: atom %v missing", what, a)
				}
			}
			if s.EncStats() != stats {
				t.Fatalf("after %s: EncStats %+v, want %+v", what, s.EncStats(), stats)
			}
		}

		for i, op := range ops {
			switch op % 6 {
			case 0: // a root disjunction of atoms
				a, b := atom(), atom()
				g := Or(a, b)
				_ = s.Assert(g)
				intern(a, b)
				cur.roots = append(cur.roots, g)
			case 1, 5: // a definition of a new or an existing guard
				var g sat.Lit
				if len(cur.guards) > 0 && op%6 == 5 {
					g = cur.guards[rng.Intn(len(cur.guards))]
				} else {
					g = s.NewBoolLit()
					cur.guards = append(cur.guards, g)
				}
				a := atom()
				body := a
				if rng.Intn(2) == 0 {
					b := atom()
					body = Or(a, b)
					intern(b)
					stats.TseitinVars++
					stats.TseitinClauses++
				}
				intern(a)
				_ = s.Implies(g, body)
				cur.defs[g] = append(cur.defs[g], body)
			case 2: // checkpoint, and solve the base from it
				ck = s.Checkpoint()
				saved = clone(cur)
				check("checkpoint")
				baseR, baseM = solve(nil)
			case 3:
				if ck == nil {
					continue
				}
				s.Rollback(ck)
				cur = clone(saved)
				check("rollback")
				r, m := solve(nil)
				if r != baseR || !reflect.DeepEqual(m, baseM) {
					t.Fatalf("op %d: base after rollback solves to %v %v, at the checkpoint %v %v", i, r, m, baseR, baseM)
				}
			case 4: // solve assuming some guards
				var guards []sat.Lit
				for _, l := range cur.guards {
					if rng.Intn(2) == 0 {
						guards = append(guards, l)
					}
				}
				solve(guards)
			}
		}
		check("the last operation")
	})
}

// TestAtomStateHoldsNoPointers pins the flat representation of interned
// atoms: the table's slots, its atom log and its per-variable atom index
// hold no pointers, so the collector never scans them.
func TestAtomStateHoldsNoPointers(t *testing.T) {
	table := reflect.TypeOf(atomTable{})
	for i := 0; i < table.NumField(); i++ {
		f := table.Field(i)
		elem := f.Type
		if elem.Kind() == reflect.Slice {
			elem = elem.Elem()
		}
		if hasPointers(elem) {
			t.Errorf("atomTable.%s (%v) holds pointers", f.Name, f.Type)
		}
	}
}

// hasPointers reports whether a value of type t holds a Go pointer the
// collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}
