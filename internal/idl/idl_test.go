package idl

import (
	"math/rand"
	"slices"
	"testing"
)

func TestSimpleChainSat(t *testing.T) {
	s := New()
	x := s.NewVar()
	y := s.NewVar()
	z := s.NewVar()
	// x < y < z  encoded as x − y ≤ −1, y − z ≤ −1.
	if c := s.Assert(x, y, -1, 1); c != nil {
		t.Fatalf("conflict: %v", c)
	}
	if c := s.Assert(y, z, -1, 2); c != nil {
		t.Fatalf("conflict: %v", c)
	}
	vx, vy, vz := s.Value(x), s.Value(y), s.Value(z)
	if !(vx < vy && vy < vz) {
		t.Errorf("model %d,%d,%d does not satisfy x<y<z", vx, vy, vz)
	}
}

func TestDirectCycleUnsat(t *testing.T) {
	s := New()
	x := s.NewVar()
	y := s.NewVar()
	if c := s.Assert(x, y, -1, 10); c != nil {
		t.Fatalf("x<y alone must be sat")
	}
	c := s.Assert(y, x, -1, 20)
	if c == nil {
		t.Fatal("x<y ∧ y<x must conflict")
	}
	want := map[Tag]bool{10: true, 20: true}
	if len(c) != 2 || !want[c[0]] || !want[c[1]] {
		t.Errorf("conflict = %v, want tags {10,20}", c)
	}
}

func TestSelfLoop(t *testing.T) {
	s := New()
	x := s.NewVar()
	if c := s.Assert(x, x, 0, 1); c != nil {
		t.Fatal("x−x ≤ 0 is valid")
	}
	c := s.Assert(x, x, -1, 2)
	if len(c) != 1 || c[0] != 2 {
		t.Fatalf("x−x ≤ −1 must conflict with itself, got %v", c)
	}
}

func TestConflictLeavesStateUnchanged(t *testing.T) {
	s := New()
	x := s.NewVar()
	y := s.NewVar()
	z := s.NewVar()
	s.Assert(x, y, -1, 1)
	s.Assert(y, z, -1, 2)
	vx, vy, vz := s.Value(x), s.Value(y), s.Value(z)
	if c := s.Assert(z, x, -1, 3); c == nil {
		t.Fatal("cycle x<y<z<x must conflict")
	}
	if s.Value(x) != vx || s.Value(y) != vy || s.Value(z) != vz {
		t.Error("failed assert must roll back potentials")
	}
	// And the system still accepts compatible constraints.
	if c := s.Assert(x, z, -2, 4); c != nil {
		t.Errorf("x − z ≤ −2 should still be acceptable: %v", c)
	}
}

func TestLongCycleConflictTags(t *testing.T) {
	s := New()
	const n = 6
	vars := make([]VarID, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	// v0 < v1 < ... < v5
	for i := 0; i+1 < n; i++ {
		if c := s.Assert(vars[i], vars[i+1], -1, Tag(i)); c != nil {
			t.Fatalf("chain assert %d conflicts: %v", i, c)
		}
	}
	// close the cycle: v5 < v0
	c := s.Assert(vars[n-1], vars[0], -1, 99)
	if c == nil {
		t.Fatal("closing the cycle must conflict")
	}
	seen := map[Tag]bool{}
	for _, tag := range c {
		seen[tag] = true
	}
	if !seen[99] {
		t.Error("conflict must include the new constraint's tag")
	}
	if len(c) != n {
		t.Errorf("conflict has %d tags, want %d (the whole cycle)", len(c), n)
	}
}

func TestPushPop(t *testing.T) {
	s := New()
	x := s.NewVar()
	y := s.NewVar()
	s.Assert(x, y, -1, 1) // x < y, permanent
	s.Push()
	if c := s.Assert(y, x, -5, 2); c == nil {
		t.Fatal("y − x ≤ −5 contradicts x < y")
	}
	// the failed assert was not recorded; push something consistent
	if c := s.Assert(y, x, 5, 3); c != nil {
		t.Fatalf("y − x ≤ 5 is consistent: %v", c)
	}
	s.Pop(1)
	// After pop, y − x ≤ −5 is still inconsistent but y < x alone is not
	// blocked by the popped constraint.
	s.Push()
	if c := s.Assert(y, x, -1, 4); c == nil {
		t.Fatal("y < x still contradicts the permanent x < y")
	}
	s.Pop(1)
	if got := len(s.edges); got != 1 {
		t.Errorf("edge trail length = %d, want 1", got)
	}
}

func TestPopZero(t *testing.T) {
	s := New()
	s.Pop(0) // must not panic
}

// checkFeasible verifies that the solver's potential assignment satisfies
// every edge on its trail.
func checkFeasible(t *testing.T, s *Solver) {
	t.Helper()
	for _, e := range s.edges {
		if s.pot[e.to]-s.pot[e.from] > e.weight {
			t.Fatalf("model violates edge %d→%d ≤ %d (pot %d, %d)",
				e.from, e.to, e.weight, s.pot[e.from], s.pot[e.to])
		}
	}
}

// bellmanFordSat decides satisfiability of a difference constraint set by
// the textbook reduction: add a virtual source, run Bellman–Ford, report
// whether a negative cycle exists.
func bellmanFordSat(n int, cons [][3]int64) bool {
	const inf = int64(1) << 60
	dist := make([]int64, n)
	// virtual source: dist all 0 (equivalent to source edges of weight 0)
	for iter := 0; iter <= n; iter++ {
		changed := false
		for _, c := range cons {
			x, y, w := c[0], c[1], c[2] // x − y ≤ w: edge y→x
			if dist[y]+w < dist[x] {
				dist[x] = dist[y] + w
				changed = true
			}
		}
		if !changed {
			return true
		}
		_ = inf
	}
	return false
}

func TestRandomAgainstBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		n := 2 + rng.Intn(8)
		m := 1 + rng.Intn(20)
		s := New()
		vars := make([]VarID, n)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		var cons [][3]int64
		conflicted := false
		for j := 0; j < m; j++ {
			x := int64(rng.Intn(n))
			y := int64(rng.Intn(n))
			w := int64(rng.Intn(11) - 5)
			trial := append(cons, [3]int64{x, y, w})
			want := bellmanFordSat(n, trial)
			got := s.Assert(vars[x], vars[y], w, Tag(j)) == nil
			if got != want {
				t.Fatalf("iter %d assert %d: solver=%v oracle=%v cons=%v",
					iter, j, got, want, trial)
			}
			if got {
				cons = trial
				checkFeasible(t, s)
			} else {
				conflicted = true
				// solver state must still satisfy the accepted constraints
				checkFeasible(t, s)
			}
		}
		_ = conflicted
	}
}

func TestRandomPushPopEquivalence(t *testing.T) {
	// Property: assert A, push, assert B (conflicting or not), pop — the
	// solver accepts exactly the same constraints as a fresh solver given
	// only A afterwards.
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(5)
		s := New()
		vars := make([]VarID, n)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		var base [][3]int64
		for j := 0; j < 6; j++ {
			x, y := rng.Intn(n), rng.Intn(n)
			w := int64(rng.Intn(7) - 3)
			if s.Assert(vars[x], vars[y], w, Tag(j)) == nil {
				base = append(base, [3]int64{int64(x), int64(y), w})
			}
		}
		s.Push()
		for j := 0; j < 4; j++ {
			x, y := rng.Intn(n), rng.Intn(n)
			w := int64(rng.Intn(7) - 3)
			s.Assert(vars[x], vars[y], w, Tag(100+j))
		}
		s.Pop(1)
		checkFeasible(t, s)
		// Probe: a fresh constraint is accepted iff the oracle says the
		// base set plus the probe is satisfiable.
		for j := 0; j < 4; j++ {
			x, y := rng.Intn(n), rng.Intn(n)
			w := int64(rng.Intn(7) - 3)
			want := bellmanFordSat(n, append(append([][3]int64{}, base...),
				[3]int64{int64(x), int64(y), w}))
			got := s.Assert(vars[x], vars[y], w, Tag(200+j)) == nil
			if got != want {
				t.Fatalf("iter %d probe %d: solver=%v oracle=%v", iter, j, got, want)
			}
			if got {
				base = append(base, [3]int64{int64(x), int64(y), w})
			}
		}
	}
}

func TestConflictTagsFormNegativeCycle(t *testing.T) {
	// Property: the tags returned on conflict identify constraints whose
	// weights sum to a negative value around a cycle.
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		n := 2 + rng.Intn(6)
		s := New()
		vars := make([]VarID, n)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		type con struct {
			x, y VarID
			w    int64
		}
		byTag := map[Tag]con{}
		for j := 0; j < 25; j++ {
			x, y := rng.Intn(n), rng.Intn(n)
			w := int64(rng.Intn(5) - 2)
			tag := Tag(j)
			c := s.Assert(vars[x], vars[y], w, tag)
			if c == nil {
				byTag[tag] = con{vars[x], vars[y], w}
				continue
			}
			// Verify the cycle: constraints x_i − y_i ≤ w_i where the new
			// one is included; edges y→x must form a closed walk with
			// negative total weight.
			all := append([]Tag{}, c...)
			sum := int64(0)
			deg := map[VarID]int{}
			for _, tg := range all {
				cc, ok := byTag[tg]
				if tg == tag {
					cc, ok = con{vars[x], vars[y], w}, true
				}
				if !ok {
					t.Fatalf("conflict references unknown tag %d", tg)
				}
				sum += cc.w
				deg[cc.x]++
				deg[cc.y]--
			}
			if sum >= 0 {
				t.Fatalf("iter %d: conflict weight sum %d not negative", iter, sum)
			}
			for v, d := range deg {
				if d != 0 {
					t.Fatalf("iter %d: conflict edges not a closed walk at v%d", iter, v)
				}
			}
		}
	}
}

func TestNewVarAtSeedsFeasible(t *testing.T) {
	// Seeded potentials make already-satisfied chains O(1) to assert and
	// remain correct under later conflicting constraints.
	s := New()
	const n = 100
	vars := make([]VarID, n)
	for i := range vars {
		vars[i] = s.NewVarAt(int64(i))
	}
	for i := 0; i+1 < n; i++ {
		if c := s.Assert(vars[i], vars[i+1], -1, Tag(i)); c != nil {
			t.Fatalf("seeded chain assert %d conflicted: %v", i, c)
		}
	}
	if c := s.Assert(vars[n-1], vars[0], -1, 999); c == nil {
		t.Fatal("closing the seeded chain must still conflict")
	}
	if s.Value(vars[0]) != 0 || s.Value(vars[n-1]) != int64(n-1) {
		t.Error("seeded values must be the hints when no repair was needed")
	}
}

// TestResetMatchesFresh checks that a Reset solver is a new one: fed the
// same variables, assertions, pushes, pops and rollbacks after a larger
// run of its own, it keeps the same adjacency lists and potentials and
// returns the same conflicts and Stats as a solver from New.
func TestResetMatchesFresh(t *testing.T) {
	drive := func(s *Solver, seed int64, n int) (conflicts [][]Tag) {
		rng := rand.New(rand.NewSource(seed))
		for range n {
			s.NewVarAt(int64(rng.Intn(n)))
		}
		for i := 0; i+1 < n; i += 2 {
			conflicts = append(conflicts, s.Assert(VarID(i), VarID(i+1), -1, Tag(-i)))
		}
		ck := s.Checkpoint()
		for round := range 4 {
			for i := range 3 * n {
				x, y := VarID(rng.Intn(n)), VarID(rng.Intn(n))
				if i%5 == 0 {
					s.Push()
				}
				conflicts = append(conflicts, s.Assert(x, y, int64(rng.Intn(7)-4), Tag(i)))
			}
			if round%2 == 0 {
				s.Pop(1)
			} else {
				s.Rollback(ck)
				s.NewVarAt(3) // a variable past the checkpoint reuses a list
			}
		}
		return conflicts
	}
	fresh := New()
	want := drive(fresh, 1, 20)
	reused := New()
	drive(reused, 2, 60)
	reused.Reset()
	got := drive(reused, 1, 20)
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("assertion %d: conflict %v, want %v", i, got[i], want[i])
		}
	}
	if !slices.Equal(reused.pot, fresh.pot) || reused.Stats != fresh.Stats || len(reused.out) != len(fresh.out) {
		t.Fatalf("potentials, stats or variables differ: %v %+v, want %v %+v", reused.pot, reused.Stats, fresh.pot, fresh.Stats)
	}
	for v := range fresh.out {
		if !slices.Equal(reused.out[v], fresh.out[v]) {
			t.Fatalf("variable %d: adjacency %v, want %v", v, reused.out[v], fresh.out[v])
		}
	}
}
