package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/lockset"
	"repro/internal/race"
	"repro/internal/telemetry"
	"repro/internal/workloads"
	"repro/trace"
)

// triageFixture is one trace the triage bit-identity matrix runs over.
type triageFixture struct {
	name   string
	tr     *trace.Trace
	window int
	racy   bool // the fixture must produce at least one race
}

// triageFixtures builds one small workload per planted race motif — every
// row of the paper's Table 1 taxonomy, including the motifs where the
// vector-clock tiers must NOT fire (qc-only has no sound race at all,
// rv-region and rv-incomplete are invisible to HB/CP) — plus the Figure 1
// example, the pair scheduler's own fixture, and a mixed window: the
// ftpserver row's motif mix shrunk into one window, where SHB-tier,
// SyncP-tier and SMT-tier races share one base encoding.
func triageFixtures(t *testing.T) []triageFixture {
	t.Helper()
	motifs := []struct {
		name string
		m    workloads.MotifCounts
		racy bool
	}{
		{"plain", workloads.MotifCounts{Plain: 2}, true},
		{"hb-not-said", workloads.MotifCounts{HBNotSaid: 1}, true},
		{"cp", workloads.MotifCounts{CP: 1}, true},
		{"cp-not-said", workloads.MotifCounts{CPNotSaid: 1}, true},
		{"said", workloads.MotifCounts{Said: 1}, true},
		{"rv-region", workloads.MotifCounts{RVRegion: 1}, true},
		{"rv-incomplete", workloads.MotifCounts{RVIncomplete: 1}, true},
		{"qc-only", workloads.MotifCounts{QCOnly: 1}, false},
	}
	var fx []triageFixture
	for i, mt := range motifs {
		tr, _ := workloads.Build(workloads.Spec{
			Name: mt.name, Workers: 3, Events: 240, Window: 10000,
			Seed: int64(900 + i), Motifs: mt.m,
		})
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: fixture trace invalid: %v", mt.name, err)
		}
		fx = append(fx, triageFixture{mt.name, tr, 10000, mt.racy})
	}
	ex, _ := workloads.Example()
	fx = append(fx, triageFixture{"figure1", ex, 10000, true})
	fx = append(fx, triageFixture{"pair-rich", pairRichTrace(), 24, true})
	fx = append(fx, triageFixture{"mixed-window", mixedWindowTrace(t), 10000, true})
	return fx
}

// mixedWindowTrace is the ftpserver Table 1 row at 1000 events: one
// window holding 27 SHB-tier, 6 SyncP-tier and 20 SMT-tier races.
func mixedWindowTrace(t *testing.T) *trace.Trace {
	t.Helper()
	for _, spec := range workloads.Rows() {
		if spec.Name == "ftpserver" {
			spec.Events = 1000
			tr, _ := workloads.Build(spec)
			return tr
		}
	}
	t.Fatal("no ftpserver row in workloads.Rows")
	return nil
}

// triageResult runs detection and zeroes the timing field for bit-for-bit
// comparison.
func triageResult(tr *trace.Trace, window int, opt Options) race.Result {
	opt.WindowSize = window
	res := New(opt).Detect(tr)
	res.Elapsed = 0
	return res
}

// assertProvenance checks the provenance contract on one result: every
// race must carry a confirming tier, the window index its access pair
// actually lies in, a witness length matching the attached witness, no
// replay mark on a clean run, and solver stats only when the SMT tier
// confirmed it. The matrix's DeepEqual then extends the bit-identity
// contract to the whole Provenance struct: provenance must not depend
// on Parallelism, at either of its levels.
func assertProvenance(t *testing.T, label string, res race.Result, window int) {
	t.Helper()
	for _, r := range res.Races {
		p := r.Prov
		if p.Tier == "" {
			t.Errorf("%s: race %d,%d has no provenance tier", label, r.A, r.B)
		}
		if want := r.A / window; p.Window != want {
			t.Errorf("%s: race %d,%d provenance window = %d, want %d",
				label, r.A, r.B, p.Window, want)
		}
		if p.WitnessLen != len(r.Witness) {
			t.Errorf("%s: race %d,%d provenance witness_len = %d, want %d",
				label, r.A, r.B, p.WitnessLen, len(r.Witness))
		}
		if p.Replayed {
			t.Errorf("%s: race %d,%d marked replayed on a clean run", label, r.A, r.B)
		}
		if p.Tier != race.TierSMT && (p.Decisions != 0 || p.Propagations != 0 || p.Conflicts != 0) {
			t.Errorf("%s: race %d,%d has solver stats on tier %s: %+v",
				label, r.A, r.B, p.Tier, p)
		}
	}
}

// sameVerdicts reports whether two results report the same races — COPs,
// signatures, provenance tiers and windows, in order — and the same
// COPsChecked, whatever their witnesses and solver stats.
func sameVerdicts(a, b race.Result) bool {
	if len(a.Races) != len(b.Races) || a.COPsChecked != b.COPsChecked {
		return false
	}
	for i, x := range a.Races {
		y := b.Races[i]
		if x.COP != y.COP || x.Sig != y.Sig || x.Prov.Tier != y.Prov.Tier || x.Prov.Window != y.Prov.Window {
			return false
		}
	}
	return true
}

// TestTriageBitIdentityMatrix is the triage ladder's acceptance test:
// the full race.Result — races in order, signatures, witnesses,
// COPsChecked, per-race provenance, flags — must be bit-identical to the
// sequential run under every Parallelism, window workers on the
// multi-window fixture and pair workers on the one-window ones,
// across every planted race motif, with and without witness schedules.
// A witness request sends the ladder-proved pairs to the solver instead
// of the fast path, so the two runs must agree on every verdict and tier.
// Run under -race in CI it doubles as the data-race check for the shared
// clock slabs.
func TestTriageBitIdentityMatrix(t *testing.T) {
	withProcs(t, 4)
	for _, tc := range triageFixtures(t) {
		var bases [2]race.Result
		for i, witness := range []bool{false, true} {
			base := triageResult(tc.tr, tc.window, Options{Witness: witness})
			bases[i] = base
			if tc.racy && len(base.Races) == 0 {
				t.Fatalf("%s: expected races in the fixture", tc.name)
			}
			assertProvenance(t, tc.name+"/baseline", base, tc.window)
			for _, par := range []int{1, 2, 4} {
				got := triageResult(tc.tr, tc.window, Options{Witness: witness, Parallelism: par})
				if !reflect.DeepEqual(got, base) {
					t.Errorf("%s: witness=%v par %d: result differs from the sequential run\n got %+v\nwant %+v",
						tc.name, witness, par, got, base)
				}
			}
		}
		if !sameVerdicts(bases[0], bases[1]) {
			t.Errorf("%s: witness run reports different races or tiers\n got %+v\nwant %+v",
				tc.name, bases[1], bases[0])
		}
	}
}

// TestFastPathSound is the fast path's soundness check: on a fully warmed
// window solver, every instance the triage ladder proves racy — not only
// the first one of each group, which the fast path reports without a
// solve — must solve SAT. Each instance is classified the way partition
// classifies it, by triaging it alone.
func TestFastPathSound(t *testing.T) {
	r := NewRunner(Options{Witness: true}, Isolated) // warm every instance
	later := 0                                       // proved instances the fast path never sees
	for _, tc := range triageFixtures(t) {
		race.EachWindow(tc.tr, tc.window, func(w *trace.Trace, widx, _ int) error { //nolint:errcheck
			groups, mhb := partitionAll(r.opt, w)
			if len(groups) == 0 {
				return nil
			}
			defer mhb.Release()
			wc := &windowCtx{ctx: context.Background(), w: w, mhb: mhb,
				cancel: func() bool { return false }}
			ws := r.buildReplica(wc, groups)
			sets := lockset.ComputeWith(w, mhb)
			for _, g := range groups {
				first := -1
				for k, cop := range g.Cands {
					one := []*raceGroup{{Sig: g.Sig, Cands: []race.COP{cop}, Proved: -1}}
					raceKind{opt: r.opt}.triage(nil, w, sets, one, &Funnel{})
					if one[0].Proved < 0 {
						continue
					}
					if first < 0 {
						first = k
					} else {
						later++
					}
					ws.rollback(nil, nil)
					ws.dirty = true
					guard, ok := ws.prepare(cop, nil)
					isRace := false
					if ok {
						isRace, _, _, _ = r.solve(ws, widx, cop, guard, time.Time{}, nil)
					}
					if !isRace {
						t.Errorf("%s window %d: %s-tier instance %v of %v does not solve SAT",
							tc.name, widx, one[0].Tier, cop, g.Sig)
					}
				}
				if first != g.Proved {
					t.Errorf("%s window %d: group %v proved at %d, its first proved instance is %d",
						tc.name, widx, g.Sig, g.Proved, first)
				}
			}
			return nil
		})
	}
	if later == 0 {
		t.Error("no group has a second ladder-proved instance (fixtures drifted)")
	}
}

// TestTriageTelemetryCounters checks the triage counter block: on a
// workload whose races are all plain HB races, every reported race must
// come through the fast path (no SAT verdict ever reaches the solver
// outcome tallies), and with a witness request the block must stay the
// same while the same races are found by solving.
func TestTriageTelemetryCounters(t *testing.T) {
	tr, ex := workloads.Build(workloads.Spec{
		Name: "triage-counters", Workers: 3, Events: 240, Window: 10000,
		Seed: 950, Motifs: workloads.MotifCounts{Plain: 3},
	})

	col := telemetry.NewCollector()
	res := New(Options{WindowSize: 10000, Telemetry: col}).Detect(tr)
	m := col.Snapshot()
	if len(res.Races) != ex.RV {
		t.Fatalf("races = %d, want %d", len(res.Races), ex.RV)
	}
	if m.Triage.Confirmed == 0 {
		t.Errorf("triage confirmed = 0, want > 0 on plain HB races")
	}
	if m.Outcomes.Sat != 0 {
		t.Errorf("solver sat outcomes = %d, want 0 (all races fast-pathed)", m.Outcomes.Sat)
	}
	if m.Outcomes.Solved >= int64(res.COPsChecked) {
		t.Errorf("solver queries = %d, want fewer than COPsChecked = %d (fast path must skip solves)",
			m.Outcomes.Solved, res.COPsChecked)
	}

	col = telemetry.NewCollector()
	res = New(Options{WindowSize: 10000, Witness: true, Telemetry: col}).Detect(tr)
	w := col.Snapshot()
	if tg, tw := m.Triage, w.Triage; tg.Confirmed != tw.Confirmed || tg.SyncPConfirmed != tw.SyncPConfirmed || tg.Dispatched != tw.Dispatched {
		t.Errorf("witness run triage block %+v, default %+v", tw, tg)
	}
	if w.Outcomes.Sat != int64(ex.RV) {
		t.Errorf("witness run sat outcomes = %d, want %d", w.Outcomes.Sat, ex.RV)
	}
	if len(res.Races) != ex.RV {
		t.Errorf("witness run races = %d, want %d", len(res.Races), ex.RV)
	}
}

// TestTriageWitnessesStillSolve: with Options.Witness set, confirmed
// pairs fall through to the (guaranteed satisfiable) solver query, so
// every reported race still carries a valid witness schedule.
func TestTriageWitnessesStillSolve(t *testing.T) {
	tr := pairRichTrace()
	res := New(Options{Witness: true}).Detect(tr)
	if len(res.Races) == 0 {
		t.Fatal("expected races in the fixture")
	}
	for _, r := range res.Races {
		if err := race.ValidateWitness(tr, r.Witness, r.A, r.B, 0); err != nil {
			t.Errorf("race %v: invalid witness: %v", r.Sig, err)
		}
	}
}

// TestProvenanceTierAttribution pins the provenance ladder's exact tier per
// motif shape on hand-built filler-free traces (the fuzzed workload
// fixtures add filler lock traffic that can shift attributions, so
// exact-tier assertions need bare shapes). Each trace plants exactly one race; the expected tier is
// the cheapest rung of the ladder that proves it, derived in the motif
// comments of internal/workloads and verified by hand against the
// witness-check algorithm.
func TestProvenanceTierAttribution(t *testing.T) {
	const (
		l = trace.Addr(200)
		x = trace.Addr(5)
		y = trace.Addr(6)
		u = trace.Addr(7)
		v = trace.Addr(8)
	)
	shapes := []struct {
		name  string
		tier  string
		build func() *trace.Trace
	}{
		{"plain", race.TierSHB, func() *trace.Trace {
			b := trace.NewBuilder()
			b.At(1).Write(1, x, 1)
			b.At(2).Read(2, x)
			return b.Trace()
		}},
		{"hb-not-said", race.TierSHB, func() *trace.Trace {
			// Ordered only by the pair's own reads-from edge → RFRaceable.
			b := trace.NewBuilder()
			b.Volatile(v)
			b.At(1).Write(1, x, 1)
			b.At(2).ReadV(1, v, 0)
			b.At(3).Write(2, v, 1)
			b.At(4).ReadV(2, x, 1)
			return b.Trace()
		}},
		{"cp-race", race.TierSyncP, func() *trace.Trace {
			// Non-conflicting sections: witness via acquire swap.
			b := trace.NewBuilder()
			b.Acquire(1, l)
			b.At(1).Write(1, x, 1)
			b.Release(1, l)
			b.Acquire(2, l)
			b.At(2).Write(2, u, 1)
			b.Release(2, l)
			b.At(3).Read(2, x)
			return b.Trace()
		}},
		{"said-race", race.TierSyncP, func() *trace.Trace {
			// Write/write section conflict: the witness still exists.
			b := trace.NewBuilder()
			b.Acquire(1, l)
			b.At(1).Write(1, x, 1)
			b.At(2).Write(1, y, 1)
			b.Release(1, l)
			b.Acquire(2, l)
			b.At(3).Write(2, y, 2)
			b.Release(2, l)
			b.At(4).Read(2, x)
			return b.Trace()
		}},
		{"rv-region", race.TierSMT, func() *trace.Trace {
			// Witness needs value abstraction (r(y) returning the initial
			// value) — only the solver proves it.
			b := trace.NewBuilder()
			b.Acquire(1, l)
			b.At(1).Write(1, x, 1)
			b.At(2).Write(1, y, 1)
			b.Release(1, l)
			b.Acquire(2, l)
			b.At(3).ReadV(2, y, 1)
			b.Release(2, l)
			b.At(4).Read(2, x)
			return b.Trace()
		}},
		{"rv-incomplete", race.TierSMT, func() *trace.Trace {
			b := trace.NewBuilder()
			b.Volatile(v)
			b.At(1).Write(1, x, 1)
			b.At(2).Write(1, v, 1)
			b.At(3).ReadV(2, v, 1)
			b.At(4).Read(2, x)
			return b.Trace()
		}},
	}
	for _, sh := range shapes {
		tr := sh.build()
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: fixture invalid: %v", sh.name, err)
		}
		// The tier must not depend on whether the fast path fired.
		for _, opt := range []Options{{}, {Witness: true}} {
			res := New(opt).Detect(tr)
			if len(res.Races) != 1 {
				t.Fatalf("%s (opt %+v): races = %d, want exactly 1", sh.name, opt, len(res.Races))
			}
			if got := res.Races[0].Prov.Tier; got != sh.tier {
				t.Errorf("%s (opt %+v): provenance tier = %q, want %q", sh.name, opt, got, sh.tier)
			}
		}
	}
}
