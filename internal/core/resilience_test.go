package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/race"
	"repro/internal/telemetry"
)

// windowOf maps a global event index of the multiWindowTrace fixture to
// its 50-event analysis window.
func windowOf(idx int) int { return idx / 50 }

// baselineByWindow runs an uninjected sequential detection and groups the
// found signatures by window, as ground truth for degraded runs.
func baselineByWindow(t *testing.T) (race.Result, map[int]map[race.Signature]bool) {
	t.Helper()
	res := detect(t, multiWindowTrace(), Options{WindowSize: 50})
	if len(res.Races) == 0 {
		t.Fatal("expected races in the fixture")
	}
	byWin := make(map[int]map[race.Signature]bool)
	for _, r := range res.Races {
		w := windowOf(r.A)
		if byWin[w] == nil {
			byWin[w] = make(map[race.Signature]bool)
		}
		byWin[w][r.Sig] = true
	}
	return res, byWin
}

// TestPanicIsolationSequential scripts a panic on the first solver query
// of window 2: the run must complete, record exactly that window's
// failure, and report every other window's races intact.
func TestPanicIsolationSequential(t *testing.T) {
	baseline, byWin := baselineByWindow(t)
	inj := faultinject.New().Script(faultinject.Scoped(faultinject.PointSolve, 2), 0, faultinject.FaultPanic)
	res := detect(t, multiWindowTrace(), Options{WindowSize: 50, FaultInjector: inj})

	if len(res.Failures) != 1 {
		t.Fatalf("Failures = %+v, want exactly one", res.Failures)
	}
	f := res.Failures[0]
	if f.Window != 2 || f.Offset != 100 || f.Events != 50 {
		t.Errorf("failure coordinates = %+v, want window 2 at offset 100, 50 events", f)
	}
	if !strings.Contains(f.PanicValue, "faultinject") {
		t.Errorf("PanicValue = %q, want the injected panic rendered", f.PanicValue)
	}
	if f.Stack == "" {
		t.Error("failure must carry the recovery stack")
	}

	got := sigs(res)
	for w, want := range byWin {
		for sg := range want {
			if w == 2 {
				if got[sg] {
					t.Errorf("window 2 panicked on its first query yet reported %v", sg)
				}
			} else if !got[sg] {
				t.Errorf("window %d race %v lost to an unrelated window's panic", w, sg)
			}
		}
	}
	if len(res.Races) != len(baseline.Races)-len(byWin[2]) {
		t.Errorf("races = %d, want baseline %d minus window 2's %d",
			len(res.Races), len(baseline.Races), len(byWin[2]))
	}
	if res.Windows != baseline.Windows {
		t.Errorf("windows = %d, want %d (run must not stop at the failure)", res.Windows, baseline.Windows)
	}
}

// TestPanicIsolationParallel is the fault-injection acceptance test: one
// window worker panics mid-solve under parallel detection, the run
// completes, the report carries the WindowFailure, and all other windows'
// results are correct. Run with -race in CI.
func TestPanicIsolationParallel(t *testing.T) {
	baseline, byWin := baselineByWindow(t)
	inj := faultinject.New().Script(faultinject.Scoped(faultinject.PointSolve, 2), 0, faultinject.FaultPanic)
	col := telemetry.NewCollector()
	res := detect(t, multiWindowTrace(),
		Options{WindowSize: 50, Parallelism: 4, FaultInjector: inj, Telemetry: col})

	if len(res.Failures) != 1 {
		t.Fatalf("Failures = %+v, want exactly one", res.Failures)
	}
	if f := res.Failures[0]; f.Window != 2 || f.Offset != 100 {
		t.Errorf("failure coordinates = %+v, want window 2 at offset 100", f)
	}
	got := sigs(res)
	for w, want := range byWin {
		if w == 2 {
			continue
		}
		for sg := range want {
			if !got[sg] {
				t.Errorf("window %d race %v lost to window 2's panic", w, sg)
			}
		}
	}
	for sg := range byWin[2] {
		if got[sg] {
			t.Errorf("window 2's %v reported despite its panic", sg)
		}
	}
	if res.Windows != baseline.Windows {
		t.Errorf("windows = %d, want %d", res.Windows, baseline.Windows)
	}
	if m := col.Snapshot(); m.Outcomes.WindowFailures != 1 {
		t.Errorf("telemetry window_failures = %d, want 1", m.Outcomes.WindowFailures)
	}
}

// TestTwoPassDisabledWithoutFirstPass checks that a solver timeout is a
// plain abort: there is no second pass, so an unperturbed run counts no
// aborts, and an injected timeout counts exactly one, is seen once by the
// telemetry, and costs exactly the timed-out pair's race — never more, and
// never a race the baseline lacks.
func TestTwoPassDisabledWithoutFirstPass(t *testing.T) {
	baseline, _ := baselineByWindow(t)
	if baseline.SolverAborts != 0 {
		t.Fatalf("unperturbed run: SolverAborts = %d, want 0", baseline.SolverAborts)
	}
	inj := faultinject.New().Script(faultinject.PointSolve, 0, faultinject.FaultTimeout)
	col := telemetry.NewCollector()
	res := detect(t, multiWindowTrace(), Options{WindowSize: 50, FaultInjector: inj, Telemetry: col})
	if res.SolverAborts != 1 {
		t.Fatalf("SolverAborts = %d, want 1", res.SolverAborts)
	}
	if m := col.Snapshot(); m.Outcomes.Timeout != 1 {
		t.Errorf("telemetry timeouts = %d, want the injected timeout counted once", m.Outcomes.Timeout)
	}
	want, got := sigs(baseline), sigs(res)
	for sg := range got {
		if !want[sg] {
			t.Errorf("race %v reported but absent from the baseline", sg)
		}
	}
	if len(got) != len(want)-1 {
		t.Errorf("races = %d, want %d (exactly the aborted pair's race dropped)", len(got), len(want)-1)
	}
}

// cancelAfterWindow returns a collector whose span consumer cancels a
// context as soon as window target reaches its verdict, on the goroutine
// that analysed it.
func cancelAfterWindow(target int, cancel context.CancelFunc) *telemetry.Collector {
	col := telemetry.NewCollector()
	col.AttachSpans(telemetry.NewSpanRecorder(-1, func(ev telemetry.SpanEvent) {
		if ev.Kind == telemetry.SpanWindow && ev.Window == target {
			cancel()
		}
	}))
	return col
}

// TestCancellationDeterminism cancels sequential and parallel runs after
// window 0 completes: both partial reports must contain window 0's exact
// verdicts, and every window either reports a subset of its baseline
// races (cancelled mid-window) or exactly its baseline set (completed) —
// never anything else.
func TestCancellationDeterminism(t *testing.T) {
	_, byWin := baselineByWindow(t)

	runCancelled := func(parallelism int) race.Result {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opt := Options{
			WindowSize:  50,
			Parallelism: parallelism,
			Witness:     true,
			Telemetry:   cancelAfterWindow(0, cancel),
		}
		return New(opt).DetectContext(ctx, multiWindowTrace())
	}

	for _, par := range []int{0, 4} {
		res := runCancelled(par)
		if !res.Cancelled {
			t.Fatalf("parallelism %d: Cancelled = false after mid-run cancel", par)
		}
		got := make(map[int]map[race.Signature]bool)
		for _, r := range res.Races {
			w := windowOf(r.A)
			if got[w] == nil {
				got[w] = make(map[race.Signature]bool)
			}
			got[w][r.Sig] = true
		}
		// Window 0 completed before the cancel: its verdicts must match
		// the baseline exactly, in both modes.
		for sg := range byWin[0] {
			if !got[0][sg] {
				t.Errorf("parallelism %d: window 0 verdict %v missing from partial report", par, sg)
			}
		}
		// No window may report a race the full run would not.
		for w, set := range got {
			for sg := range set {
				if !byWin[w][sg] {
					t.Errorf("parallelism %d: window %d reported %v not in baseline", par, w, sg)
				}
			}
		}
	}

	// The same cancel point in sequential and parallel mode must agree on
	// every window the sequential run completed: windows 0..k of the
	// sequential partial report all completed before its cancel, and the
	// parallel report must carry identical verdicts for window 0.
	seq, par := runCancelled(0), runCancelled(4)
	seqWin0, parWin0 := make(map[race.Signature]bool), make(map[race.Signature]bool)
	for _, r := range seq.Races {
		if windowOf(r.A) == 0 {
			seqWin0[r.Sig] = true
		}
	}
	for _, r := range par.Races {
		if windowOf(r.A) == 0 {
			parWin0[r.Sig] = true
		}
	}
	if len(seqWin0) != len(parWin0) {
		t.Fatalf("window 0 verdicts differ: sequential %v vs parallel %v", seqWin0, parWin0)
	}
	for sg := range seqWin0 {
		if !parWin0[sg] {
			t.Errorf("window 0 verdict %v present sequentially, missing in parallel", sg)
		}
	}
}

// TestPreCancelledContext checks the degenerate case: a context cancelled
// before detection starts yields a well-formed empty result, flagged.
func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{0, 4} {
		res := New(Options{WindowSize: 50, Parallelism: par}).DetectContext(ctx, multiWindowTrace())
		if !res.Cancelled {
			t.Errorf("parallelism %d: Cancelled = false on pre-cancelled ctx", par)
		}
		if len(res.Races) != 0 || res.COPsChecked != 0 {
			t.Errorf("parallelism %d: pre-cancelled run did work: %+v", par, res)
		}
		if res.Windows == 0 {
			t.Errorf("parallelism %d: window count must still be reported", par)
		}
	}
}

// TestNilContextDefaultsToBackground pins the documented nil-ctx
// behaviour across the layer.
func TestNilContextDefaultsToBackground(t *testing.T) {
	//lint:ignore SA1012 the nil-ctx tolerance is the documented contract
	res := New(Options{WindowSize: 50}).DetectContext(nil, multiWindowTrace())
	if res.Cancelled || len(res.Races) == 0 {
		t.Fatalf("nil ctx must behave as Background: %+v", res)
	}
}

// TestGlobalBudgetExhausted gives the run a budget that expires
// immediately: the result must be flagged, windows skipped rather than
// solved, and the run must still terminate with a well-formed report.
func TestGlobalBudgetExhausted(t *testing.T) {
	for _, par := range []int{0, 4} {
		res := New(Options{WindowSize: 50, Parallelism: par, GlobalBudget: time.Nanosecond}).
			Detect(multiWindowTrace())
		if !res.BudgetExhausted {
			t.Errorf("parallelism %d: BudgetExhausted = false under 1ns budget", par)
		}
		if len(res.Races) != 0 {
			t.Errorf("parallelism %d: solved races under an expired budget: %v", par, res.Races)
		}
		if res.Windows == 0 {
			t.Errorf("parallelism %d: window count must still be reported", par)
		}
	}
}

// TestGlobalBudgetCountsSkippedPairs expires the budget between the
// window head-check and the per-pair checks (via the injected pass-1
// timeout path being irrelevant here — the budget is real): with a budget
// long enough to enter window 0 but far too short for the whole run, the
// skipped pairs must be tallied in telemetry.
func TestGlobalBudgetCountsSkippedPairs(t *testing.T) {
	col := telemetry.NewCollector()
	// 3ms: enough to start solving, far too short for 6 windows of SMT
	// queries on this machine class; if the machine is absurdly fast the
	// run just completes and the test asserts nothing beyond the flag
	// consistency.
	res := New(Options{WindowSize: 50, GlobalBudget: 3 * time.Millisecond, Telemetry: col}).
		Detect(multiWindowTrace())
	m := col.Snapshot()
	if res.BudgetExhausted && m.Outcomes.BudgetExhausted == 0 && len(res.Races) == 0 {
		// Budget died before any window started — no per-pair skip to
		// count; that's the other test's case.
		t.Skip("budget expired before the first window; nothing to assert")
	}
	if !res.BudgetExhausted && m.Outcomes.BudgetExhausted > 0 {
		t.Errorf("telemetry counted %d budget-exhausted pairs but the result is unflagged",
			m.Outcomes.BudgetExhausted)
	}
}
