package encode

import (
	"math/rand"
	"testing"

	"repro/internal/race"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/vc"
	"repro/internal/workloads"
	"repro/trace"
)

// quadCF is the quadratic cf encoding the read chain replaced, kept as a
// differential reference: every write and branch gets its own literal
// implying cf of every earlier read of its thread, and cf of a read is
// ReadConsistent alone.
type quadCF struct {
	enc      *Encoder
	s        *smt.Solver
	tr       *trace.Trace
	byThread map[trace.TID][]int
	lits     map[int]sat.Lit
}

func newQuadCF(enc *Encoder, s *smt.Solver) *quadCF {
	return &quadCF{enc: enc, s: s, tr: enc.Trace(),
		byThread: enc.Trace().ByThread(), lits: make(map[int]sat.Lit)}
}

func (q *quadCF) lit(e int) sat.Lit {
	if l, ok := q.lits[e]; ok {
		return l
	}
	l := q.s.NewBoolLit()
	q.lits[e] = l
	def := smt.True()
	switch ev := q.tr.Event(e); ev.Op {
	case trace.OpRead:
		def = q.enc.ReadConsistent(e, func(w int) *smt.Formula {
			return smt.Ref(q.lit(w))
		})
	case trace.OpWrite, trace.OpBranch:
		var refs []*smt.Formula
		for _, ei := range q.byThread[ev.Tid] {
			if ei >= e {
				break
			}
			if q.tr.Event(ei).Op == trace.OpRead {
				refs = append(refs, smt.Ref(q.lit(ei)))
			}
		}
		def = smt.And(refs...)
	}
	_ = q.s.Implies(l, def)
	return l
}

// controlFlow is ⟨cf⟩(e) over every branch that must happen before e, not
// just each thread's last one: under the quadratic definition cf of a
// thread's last branch implies cf of its earlier ones, so the two agree.
func (q *quadCF) controlFlow(e int) *smt.Formula {
	mhb := q.enc.MHB()
	var refs []*smt.Formula
	for b := 0; b < e; b++ {
		if q.tr.Event(b).Op == trace.OpBranch && mhb.Before(b, e) {
			refs = append(refs, smt.Ref(q.lit(b)))
		}
	}
	return smt.And(refs...)
}

// randomTrace simulates a random interleaving of k threads over three
// shared variables with values 0..2. Every read returns the value last
// written, so the trace is consistent, and a branch's cf depends on many
// earlier reads of its thread, not just the last.
func randomTrace(seed int64, k, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder()
	mem := map[trace.Addr]int64{}
	for i := 0; i < n; i++ {
		t, x := trace.TID(1+rng.Intn(k)), trace.Addr(1+rng.Intn(3))
		switch rng.Intn(3) {
		case 0:
			mem[x] = int64(rng.Intn(3))
			b.Write(t, x, mem[x])
		case 1:
			b.ReadV(t, x, mem[x])
		default:
			b.Branch(t)
		}
	}
	return b.Trace()
}

// TestCFMatchesQuadratic: the chained cf encoding and the quadratic
// reference reach the same verdict on every COP's guarded adjacency +
// ⟨cf⟩ query, each over one incremental solver per trace as the detector
// uses it. The traces are small generated rows (several motif mixes and
// seeds) and random interleavings.
func TestCFMatchesQuadratic(t *testing.T) {
	var traces []*trace.Trace
	for _, mix := range []workloads.MotifCounts{
		{Plain: 2, RVRegion: 2, QCOnly: 2},
		{HBNotSaid: 1, CPNotSaid: 1, RVIncomplete: 2, QCOnly: 1},
		{CP: 2, Said: 2, RVRegion: 1, RVIncomplete: 1},
	} {
		for _, seed := range []int64{3, 17, 41} {
			tr, _ := workloads.Build(workloads.Spec{Name: "cf-diff", Workers: 3,
				Events: 400, Window: 10000, Seed: seed, Motifs: mix})
			traces = append(traces, tr)
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		traces = append(traces, randomTrace(seed, 3, 40))
	}
	verdicts := map[sat.Result]int{}
	for ti, tr := range traces {
		mhb := vc.ComputeMHB(tr)
		s, sRef := smt.NewSolver(), smt.NewSolver()
		enc, encRef := New(tr, s, mhb, -1, -1), New(tr, sRef, mhb, -1, -1)
		for _, e := range []*Encoder{enc, encRef} {
			if err := e.AssertMHB(); err != nil {
				t.Fatal(err)
			}
			if err := e.AssertLocks(); err != nil {
				t.Fatal(err)
			}
		}
		cf, ref := NewCF(enc, s), newQuadCF(encRef, sRef)
		query := func(s *smt.Solver, enc *Encoder, cfA, cfB *smt.Formula, cop race.COP) sat.Result {
			g := s.NewBoolLit()
			for _, f := range []*smt.Formula{enc.Adjacent(cop.A, cop.B), cfA, cfB} {
				if s.Implies(g, f) != nil {
					return sat.Unsat
				}
			}
			return s.SolveAssuming(g)
		}
		race.EachCOP(tr, func(cop race.COP) {
			got := query(s, enc, cf.ControlFlow(cop.A), cf.ControlFlow(cop.B), cop)
			want := query(sRef, encRef, ref.controlFlow(cop.A), ref.controlFlow(cop.B), cop)
			if got != want {
				t.Errorf("trace %d: COP %v: chained cf %v, quadratic %v", ti, cop, got, want)
			}
			verdicts[want]++
		})
	}
	if verdicts[sat.Sat] == 0 || verdicts[sat.Unsat] == 0 {
		t.Fatalf("fixtures drifted: verdicts %v, want both sat and unsat", verdicts)
	}
}

// cfSizeTrace has k worker threads forked and joined by thread 0, each
// running n iterations of write x_t, read x_t, branch; the last event is a
// write by thread 0 after the joins, so ⟨cf⟩ of it covers every worker's
// last branch.
func cfSizeTrace(k, n int) *trace.Trace {
	b := trace.NewBuilder()
	for t := 1; t <= k; t++ {
		b.Fork(0, trace.TID(t))
	}
	for i := 1; i <= n; i++ {
		for t := 1; t <= k; t++ {
			x := trace.Addr(100 + t)
			b.Write(trace.TID(t), x, int64(i))
			b.ReadV(trace.TID(t), x, int64(i))
			b.Branch(trace.TID(t))
		}
	}
	for t := 1; t <= k; t++ {
		b.Join(0, trace.TID(t))
	}
	b.Write(0, 99, 1)
	return b.Trace()
}

// TestCFSizeLinear: the clauses ⟨cf⟩ of a trace's last event adds grow
// linearly with thread length. The quadratic encoding makes each write and
// branch list every earlier read of its thread, about 3n²/2 clauses per
// thread of n iterations, and fails both checks.
func TestCFSizeLinear(t *testing.T) {
	const k, n = 3, 200
	clauses := func(iters int) int {
		tr := cfSizeTrace(k, iters)
		s := smt.NewSolver()
		enc := New(tr, s, vc.ComputeMHB(tr), -1, -1)
		if err := enc.AssertMHB(); err != nil {
			t.Fatal(err)
		}
		_, before, _ := s.Size()
		if err := s.Assert(NewCF(enc, s).ControlFlow(tr.Len() - 1)); err != nil {
			t.Fatal(err)
		}
		_, after, _ := s.Size()
		if s.Solve() != sat.Sat {
			t.Fatal("the observed order must satisfy ⟨cf⟩")
		}
		// Each read adds two binary clauses, its chain link and its source
		// write's cf; the asserted branches add at most one per worker.
		if c, bound := after-before, 2*k*iters+k; c > bound {
			t.Errorf("⟨cf⟩ at %d iterations took %d clauses, linear bound %d", iters, c, bound)
		}
		return after - before
	}
	c1, c2 := clauses(n), clauses(2*n)
	if float64(c2) > 2.2*float64(c1) {
		t.Errorf("doubling thread length grew ⟨cf⟩ from %d to %d clauses (> 2.2×)", c1, c2)
	}
}
