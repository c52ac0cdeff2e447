package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/race"
	"repro/internal/sat"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// TestWarmPrefixReplay: every instance the pair scheduler can prepare
// lies in its group's warm prefix, whose cf definitions the replica
// encoded before its checkpoint. Preparing one must add no cf memo entry
// (an entry created after the checkpoint would dangle after the
// rollback), rolling back must restore the base solver size, and
// preparing it again must rebuild the identical guard literal and
// clauses. Checked without and with a witness request, whose prefixes
// differ.
func TestWarmPrefixReplay(t *testing.T) {
	tr := mixedWindowTrace(t)
	for _, witness := range []bool{false, true} {
		r := NewRunner(Options{Witness: witness}, Isolated)
		groups, mhb := partitionAll(r.opt, tr)
		wc := &windowCtx{ctx: context.Background(), w: tr, mhb: mhb,
			cancel: func() bool { return false }}
		ws := r.buildReplica(wc, groups)
		baseVars, baseClauses, _ := ws.s.Size()

		// memo lists the events whose cf currently has a literal.
		memo := func() map[int]bool {
			m := map[int]bool{}
			for e := 0; e < tr.Len(); e++ {
				if _, ok := ws.cf.Defined(e); ok {
					m[e] = true
				}
			}
			return m
		}
		base := memo()
		prepared := 0
		for _, g := range groups {
			for _, cop := range g.Cands[:r.warmCount(g)] {
				prepare := func() (sat.Lit, int) {
					ws.rollback(nil, nil)
					ws.dirty = true
					guard, ok := ws.prepare(cop, nil)
					if !ok {
						t.Fatalf("witness=%v group %v: prepare %v failed", witness, g.Sig, cop)
					}
					_, clauses, _ := ws.s.Size()
					return guard, clauses
				}
				g1, c1 := prepare()
				if after := memo(); !reflect.DeepEqual(after, base) {
					t.Errorf("witness=%v group %v: preparing %v changed the cf memo from %d to %d entries",
						witness, g.Sig, cop, len(base), len(after))
				}
				if c1 <= baseClauses {
					t.Errorf("witness=%v group %v: preparing %v added no clause", witness, g.Sig, cop)
				}
				if g2, c2 := prepare(); g1 != g2 || c1 != c2 {
					t.Errorf("witness=%v group %v: replay of %v after rollback: guard %v/%v, clauses %d/%d",
						witness, g.Sig, cop, g1, g2, c1, c2)
				}
				ws.rollback(nil, nil)
				if vars, clauses, _ := ws.s.Size(); vars != baseVars || clauses != baseClauses {
					t.Errorf("witness=%v group %v: rollback left %d vars / %d clauses, base is %d / %d",
						witness, g.Sig, vars, clauses, baseVars, baseClauses)
				}
				prepared++
			}
		}
		mhb.Release()
		if prepared == 0 {
			t.Fatalf("witness=%v: no warm-prefix instance (fixture drifted)", witness)
		}
	}
}

// TestLadderSettledWindowBuildsNoSolver: when the ladder proves every
// group of a window at its first instance, the default run builds no
// window solver at all, yet reports exactly the races, tiers and
// COPsChecked of the witness run, which solves every one of them.
func TestLadderSettledWindowBuildsNoSolver(t *testing.T) {
	withProcs(t, 4)
	tr, ex := workloads.Build(workloads.Spec{
		Name: "ladder-settled", Workers: 3, Events: 240, Window: 10000,
		Seed: 950, Motifs: workloads.MotifCounts{Plain: 3},
	})
	run := func(witness bool, par int) (race.Result, *telemetry.Metrics) {
		col := telemetry.NewCollector()
		res := New(Options{WindowSize: 10000, Witness: witness,
			Parallelism: par, Telemetry: col}).Detect(tr)
		res.Elapsed = 0
		return res, col.Snapshot()
	}
	solved, solvedM := run(true, 1)
	if len(solved.Races) != ex.RV || solvedM.Solver.Solvers == 0 {
		t.Fatalf("witness run: %d races (want %d) on %d solvers (want > 0)",
			len(solved.Races), ex.RV, solvedM.Solver.Solvers)
	}
	for _, par := range []int{1, 4} {
		res, m := run(false, par)
		if m.Solver.Solvers != 0 || m.PairSched.Replicas != 0 {
			t.Errorf("par %d: %d solvers, %d replicas, want none", par,
				m.Solver.Solvers, m.PairSched.Replicas)
		}
		if m.PairSched.WarmSkipped != m.PairSched.Groups {
			t.Errorf("par %d: warm_skipped = %d, want one per group (%d)", par,
				m.PairSched.WarmSkipped, m.PairSched.Groups)
		}
		if !sameVerdicts(res, solved) {
			t.Errorf("par %d: result differs from the witness run\n got %+v\nwant %+v", par, res, solved)
		}
	}
}
