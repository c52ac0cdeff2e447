package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/race"
	"repro/internal/telemetry"
	"repro/internal/workloads"
	"repro/trace"
)

// TestWarmPrefixReplay: an instance past its group's warm prefix — one
// only "off" and "shb" hand the solver — is encoded after the checkpoint.
// Rolling back and preparing it again must rebuild the identical guard
// literal and clauses and reach the same verdict, and the rollback must
// leave the replica at its base size. Writes and branches whose cf first
// resolves (to the literal of their thread's last read) during such an
// instance must no longer resolve after the rollback.
func TestWarmPrefixReplay(t *testing.T) {
	tr := mixedWindowTrace(t)
	d := New(Options{TriageLevel: "off"})
	groups, mhb := d.partition(tr, race.EnumerateCOPs(tr), nil)
	defer mhb.Release()
	wc := &windowCtx{ctx: context.Background(), w: tr, mhb: mhb,
		cancel: func() bool { return false }}
	ws := d.buildReplica(wc, groups)
	baseVars, baseClauses, _ := ws.s.Size()

	// resolved lists the writes and branches whose cf has a literal.
	resolved := func() map[int]bool {
		m := map[int]bool{}
		for e := 0; e < tr.Len(); e++ {
			if op := tr.Event(e).Op; op == trace.OpWrite || op == trace.OpBranch {
				if _, ok := ws.cf.Defined(e); ok {
					m[e] = true
				}
			}
		}
		return m
	}
	base := resolved()
	aliased := map[trace.Op]int{}

	outside := 0
	for _, g := range groups {
		if d.warmCount(g) == len(g.cops) {
			continue
		}
		outside++
		cop := g.cops[d.warmCount(g)]
		type prepared struct {
			guard   int
			clauses int
			isRace  bool
		}
		prepare := func() prepared {
			ws.rollback(nil)
			ws.dirty = true
			guard, ok := ws.prepare(d, cop)
			if !ok {
				t.Fatalf("group %v: prepare failed", g.sig)
			}
			_, clauses, _ := ws.s.Size()
			isRace, _, _, _ := ws.solve(d, 0, cop, guard, time.Minute, time.Time{})
			return prepared{int(guard), clauses, isRace}
		}
		first := prepare()
		for e := range resolved() {
			if !base[e] {
				aliased[tr.Event(e).Op]++
			}
		}
		again := prepare()
		if first != again {
			t.Errorf("group %v: replay after rollback = %+v, first prepare %+v", g.sig, again, first)
		}
		if !first.isRace || first.clauses <= baseClauses {
			t.Errorf("group %v: ladder-proved instance prepared to %+v over %d base clauses, want a race with new clauses",
				g.sig, first, baseClauses)
		}
		ws.rollback(nil)
		if vars, clauses, _ := ws.s.Size(); vars != baseVars || clauses != baseClauses {
			t.Errorf("group %v: rollback left %d vars / %d clauses, base is %d / %d",
				g.sig, vars, clauses, baseVars, baseClauses)
		}
		if after := resolved(); !reflect.DeepEqual(after, base) {
			t.Errorf("group %v: %d writes/branches resolve after rollback, %d at base",
				g.sig, len(after), len(base))
		}
	}
	if outside == 0 {
		t.Fatal("no instance outside a warm prefix (fixture drifted)")
	}
	if aliased[trace.OpWrite] == 0 || aliased[trace.OpBranch] == 0 {
		t.Fatalf("instances past the prefix resolved %d writes and %d branches, want both (fixture drifted)",
			aliased[trace.OpWrite], aliased[trace.OpBranch])
	}
}

// TestLadderSettledWindowBuildsNoSolver: when the ladder confirms every
// group of a window at its first instance, the default level builds no
// window solver at all, yet reports exactly what the triage-off run (which
// solves every pair) reports.
func TestLadderSettledWindowBuildsNoSolver(t *testing.T) {
	withProcs(t, 4)
	tr, ex := workloads.Build(workloads.Spec{
		Name: "ladder-settled", Workers: 3, Events: 240, Window: 10000,
		Seed: 950, Motifs: workloads.MotifCounts{Plain: 3},
	})
	run := func(level string, pairPar int) (race.Result, *telemetry.Metrics) {
		col := telemetry.NewCollector()
		res := New(Options{WindowSize: 10000, TriageLevel: level,
			PairParallelism: pairPar, Telemetry: col}).Detect(tr)
		res.Elapsed = 0
		return res, col.Snapshot()
	}
	off, offM := run("off", 1)
	if len(off.Races) != ex.RV || offM.Solver.Solvers == 0 {
		t.Fatalf("triage-off run: %d races (want %d) on %d solvers (want > 0)",
			len(off.Races), ex.RV, offM.Solver.Solvers)
	}
	for _, pairPar := range []int{1, 4} {
		res, m := run("", pairPar)
		if m.Solver.Solvers != 0 || m.PairSched.Replicas != 0 {
			t.Errorf("pairPar %d: %d solvers, %d replicas, want none", pairPar,
				m.Solver.Solvers, m.PairSched.Replicas)
		}
		if m.PairSched.WarmSkipped != m.PairSched.Groups {
			t.Errorf("pairPar %d: warm_skipped = %d, want one per group (%d)", pairPar,
				m.PairSched.WarmSkipped, m.PairSched.Groups)
		}
		if !reflect.DeepEqual(res, off) {
			t.Errorf("pairPar %d: result differs from triage off\n got %+v\nwant %+v", pairPar, res, off)
		}
	}
}
