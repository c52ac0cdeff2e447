package core_test

import (
	"context"
	"testing"

	"repro/internal/atomicity"
	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/telemetry"
	"repro/internal/workloads"
	"repro/trace"
)

// funnelSum checks the candidate-funnel identity on a finished run: every
// enumerated candidate lands in exactly one bin.
func funnelSum(t *testing.T, name string, m *telemetry.Metrics) {
	t.Helper()
	o, tg := m.Outcomes, m.Triage
	sum := o.QuickCheckFiltered + o.SigDedupHits + o.MHBFiltered + tg.Confirmed + tg.SyncPConfirmed + tg.Dispatched
	if o.Enumerated == 0 || sum != o.Enumerated {
		t.Errorf("%s: enumerated %d ≠ %d = quick_check_filtered %d + signature_dedup %d + mhb_filtered %d + confirmed %d + syncp_confirmed %d + dispatched %d",
			name, o.Enumerated, sum, o.QuickCheckFiltered, o.SigDedupHits, o.MHBFiltered,
			tg.Confirmed, tg.SyncPConfirmed, tg.Dispatched)
	}
}

// TestFunnelIdentity: the Runner puts every enumerated candidate in
// exactly one funnel bin, for every query kind. Races are checked in the
// default run and under the NoQuickCheck ablation, whose quick-check
// failures are dispatched instead of filtered; deadlocks and atomicity
// violations on multi-window traces whose later windows repeat earlier
// signatures, so the dedup bin is exercised too.
func TestFunnelIdentity(t *testing.T) {
	fixtures := []struct {
		name   string
		tr     *trace.Trace
		window int
	}{
		{"mixed-window", core.MixedWindowTrace(t), 10000},
		{"pair-rich", core.PairRichTrace(), 24},
	}
	for _, fx := range fixtures {
		for _, noQC := range []bool{false, true} {
			col := telemetry.NewCollector()
			res := core.New(core.Options{WindowSize: fx.window, NoQuickCheck: noQC, Telemetry: col}).Detect(fx.tr)
			m := col.Snapshot()
			funnelSum(t, fx.name, m)
			if noQC && m.Outcomes.QuickCheckFiltered != 0 {
				t.Errorf("%s: NoQuickCheck run filtered %d candidates", fx.name, m.Outcomes.QuickCheckFiltered)
			}
			if !noQC && m.Outcomes.QuickCheckFiltered == 0 {
				t.Errorf("%s: no quick-check failure (fixture drifted)", fx.name)
			}
			if len(res.Races) == 0 {
				t.Errorf("%s noQC=%v: no races", fx.name, noQC)
			}
		}
	}

	// Three rounds of the same lock inversion, one round per window.
	const a, b trace.Addr = 100, 101
	bld := trace.NewBuilder()
	for range 3 {
		bld.At(1).Acquire(1, a)
		bld.At(2).Acquire(1, b)
		bld.At(3).Release(1, b)
		bld.At(4).Release(1, a)
		bld.At(5).Acquire(2, b)
		bld.At(6).Acquire(2, a)
		bld.At(7).Release(2, a)
		bld.At(8).Release(2, b)
	}
	col := telemetry.NewCollector()
	dl := core.DetectKind(context.Background(), deadlock.Kind, core.Options{WindowSize: 8, Telemetry: col}, bld.Trace())
	m := col.Snapshot()
	funnelSum(t, "deadlock", m)
	if len(dl.Races) != 1 || m.Outcomes.SigDedupHits == 0 {
		t.Errorf("deadlock: %d deadlocks, %d dedup hits; want 1 and > 0 (fixture drifted)",
			len(dl.Races), m.Outcomes.SigDedupHits)
	}

	var tr *trace.Trace
	for _, spec := range workloads.Rows() {
		if spec.Name == "bubblesort" {
			tr, _ = workloads.Build(spec)
		}
	}
	col = telemetry.NewCollector()
	av := core.DetectKind(context.Background(), atomicity.Kind, core.Options{WindowSize: 300, Telemetry: col}, tr)
	m = col.Snapshot()
	funnelSum(t, "atomicity", m)
	if len(av.Races) == 0 || m.Outcomes.SigDedupHits == 0 || m.Outcomes.MHBFiltered == 0 {
		t.Errorf("atomicity: %d violations, %d dedup hits, %d mhb-filtered; want all > 0 (fixture drifted)",
			len(av.Races), m.Outcomes.SigDedupHits, m.Outcomes.MHBFiltered)
	}
}
