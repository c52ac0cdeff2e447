package core

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/race"
	"repro/internal/telemetry"
	"repro/trace"
)

// collectOutcomes runs detection with the window-completion hook installed
// and returns the result plus the outcomes keyed by window index.
func collectOutcomes(t *testing.T, tr *trace.Trace, opt Options) (race.Result, map[int]race.WindowOutcome) {
	t.Helper()
	var mu sync.Mutex
	outs := make(map[int]race.WindowOutcome)
	opt.OnWindowDone = func(out race.WindowOutcome) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := outs[out.Window]; dup {
			t.Errorf("window %d completed twice", out.Window)
		}
		outs[out.Window] = out
	}
	res := detect(t, tr, opt)
	return res, outs
}

// clearReplayed returns res with every race's replay-origin flag reset.
// Provenance is part of the resume bit-identity contract except for
// Replayed, which is operational metadata: a resumed run truthfully
// reports its races as replayed where the clean run derived them live.
func clearReplayed(res race.Result) race.Result {
	out := res
	out.Races = append([]race.Race(nil), res.Races...)
	for i := range out.Races {
		out.Races[i].Prov.Replayed = false
	}
	return out
}

// TestWindowOutcomeHookMatchesResult: in a clean sequential run the hook
// must fire exactly once per window, in whole-trace coordinates, and the
// outcomes must add up — races, counters, window metadata — to exactly the
// race.Result the run returned. This is the contract that makes journaling
// the outcomes sufficient for exact resume.
func TestWindowOutcomeHookMatchesResult(t *testing.T) {
	tr := pairRichTrace()
	res, outs := collectOutcomes(t, tr, Options{WindowSize: 24})
	if len(outs) != res.Windows {
		t.Fatalf("hook fired for %d windows, result has %d", len(outs), res.Windows)
	}
	var races []race.Race
	checked, aborts := 0, 0
	for w := 0; w < res.Windows; w++ {
		out, ok := outs[w]
		if !ok {
			t.Fatalf("no outcome for window %d", w)
		}
		if out.Offset != w*24 || out.Events != 24 {
			t.Errorf("window %d outcome at offset %d with %d events, want %d/24", w, out.Offset, out.Events, w*24)
		}
		if out.Candidates == 0 {
			t.Errorf("window %d reported zero COP candidates (fixture drifted)", w)
		}
		races = append(races, out.Races...)
		checked += out.COPsChecked
		aborts += out.SolverAborts
	}
	if !reflect.DeepEqual(races, res.Races) {
		t.Errorf("concatenated outcome races differ from result:\n got %+v\nwant %+v", races, res.Races)
	}
	if checked != res.COPsChecked || aborts != res.SolverAborts {
		t.Errorf("outcome counters (%d,%d) differ from result (%d,%d)",
			checked, aborts, res.COPsChecked, res.SolverAborts)
	}
	for _, out := range outs {
		for _, r := range out.Races {
			if r.A < out.Offset || r.A >= out.Offset+out.Events {
				t.Errorf("window %d race event %d outside the window [%d,%d) — not whole-trace coordinates",
					out.Window, r.A, out.Offset, out.Offset+out.Events)
			}
		}
	}
}

// TestWindowOutcomeHookParallel: with window parallelism the windows are
// analysed on worker goroutines, but the union of outcomes must still be
// the sequential truth — same windows, same races in whole-trace
// coordinates.
func TestWindowOutcomeHookParallel(t *testing.T) {
	withProcs(t, 4)
	tr := pairRichTrace()
	baseline := matrixResult(t, tr, 24)
	res, outs := collectOutcomes(t, tr, Options{WindowSize: 24, Parallelism: 4})
	if len(outs) != baseline.Windows {
		t.Fatalf("hook fired for %d windows, want %d", len(outs), baseline.Windows)
	}
	var races []race.Race
	for w := 0; w < baseline.Windows; w++ {
		races = append(races, outs[w].Races...)
	}
	if !reflect.DeepEqual(races, baseline.Races) {
		t.Errorf("outcome races in window order differ from sequential baseline:\n got %+v\nwant %+v",
			races, baseline.Races)
	}
	res.Elapsed = 0
	if !reflect.DeepEqual(res, baseline) {
		t.Errorf("hooked parallel result differs from baseline:\n got %+v\nwant %+v", res, baseline)
	}
}

// TestResumeReplaysExactly is the core resume contract: feeding journaled
// outcomes back through ResumeWindows must reproduce the uninterrupted
// result bit-for-bit — full replay and partial replay, sequential and
// parallel — while the replayed windows never touch the solver.
func TestResumeReplaysExactly(t *testing.T) {
	withProcs(t, 4)
	tr := pairRichTrace()
	baseline, outs := collectOutcomes(t, tr, Options{WindowSize: 24})
	baseline.Elapsed = 0
	if len(baseline.Races) == 0 {
		t.Fatal("expected races in the fixture")
	}

	// A prefix replay models the real crash shape (journal holds windows
	// 0..k); the even-window replay stresses interleaving replayed and
	// re-analysed windows.
	subsets := map[string]func(int) bool{
		"all":    func(int) bool { return true },
		"prefix": func(w int) bool { return w < 2 },
		"even":   func(w int) bool { return w%2 == 0 },
	}
	for name, keep := range subsets {
		for _, par := range []int{0, 4} {
			resume := make(map[int]race.WindowOutcome)
			for w, out := range outs {
				if keep(w) {
					// A journaled time no replay could take, so the
					// window record below shows which time it kept.
					out.ElapsedNS = int64(time.Hour) + int64(w)
					resume[w] = out
				}
			}
			col := telemetry.NewCollector()
			res := detect(t, tr, Options{
				WindowSize:    24,
				Parallelism:   par,
				ResumeWindows: resume,
				Telemetry:     col,
			})
			res.Elapsed = 0
			// Replayed windows carry their provenance verbatim — only the
			// replay-origin flag may differ from the clean run.
			for _, r := range res.Races {
				if keep(r.Prov.Window) != r.Prov.Replayed {
					t.Errorf("%s subset, par %d: race %+v replayed flag = %v, want %v",
						name, par, r.COP, r.Prov.Replayed, keep(r.Prov.Window))
				}
			}
			if res = clearReplayed(res); !reflect.DeepEqual(res, baseline) {
				t.Errorf("%s subset, par %d: resumed result differs:\n got %+v\nwant %+v",
					name, par, res, baseline)
			}
			m := col.Snapshot()
			if got := m.Journal.WindowsReplayed; got != int64(len(resume)) {
				t.Errorf("%s subset, par %d: windows_replayed = %d, want %d", name, par, got, len(resume))
			}
			// A replayed window's record keeps the journaled analysis
			// time, not the replay's.
			byOffset := make(map[int]int64)
			for _, out := range resume {
				byOffset[out.Offset] = out.ElapsedNS
			}
			for _, rec := range m.Windows {
				if want, ok := byOffset[rec.Offset]; ok && rec.ElapsedNS != want {
					t.Errorf("%s subset, par %d: replayed window at %d: elapsed_ns = %d, want the journaled %d",
						name, par, rec.Offset, rec.ElapsedNS, want)
				}
			}
			// Replayed windows never re-enter the solver: every journaled
			// solver query must be absent from this run's live count.
			journaled := 0
			for _, out := range resume {
				journaled += out.Solved
			}
			if journaled > 0 && m.Outcomes.Solved > 0 {
				fresh := telemetry.NewCollector()
				detect(t, tr, Options{WindowSize: 24, Parallelism: par, Telemetry: fresh})
				if m.Outcomes.Solved >= fresh.Snapshot().Outcomes.Solved {
					t.Errorf("%s subset, par %d: resume issued %d solver queries, not fewer than the clean run's %d",
						name, par, m.Outcomes.Solved, fresh.Snapshot().Outcomes.Solved)
				}
			}
		}
	}
}

// TestResumeReplaysFailureVerdict: a window that panicked produced a
// durable failure verdict through the hook; resuming from it must
// reproduce the failure without re-running the window — even though the
// fault injector is gone, the resumed report still shows the failure.
func TestResumeReplaysFailureVerdict(t *testing.T) {
	tr := pairRichTrace()
	inj := faultinject.New().Script(faultinject.Scoped(faultinject.PointSolve, 2), 0, faultinject.FaultPanic)
	var mu sync.Mutex
	outs := make(map[int]race.WindowOutcome)
	faulted := detect(t, tr, Options{
		WindowSize:    24,
		FaultInjector: inj,
		OnWindowDone: func(out race.WindowOutcome) {
			mu.Lock()
			outs[out.Window] = out
			mu.Unlock()
		},
	})
	if len(faulted.Failures) != 1 {
		t.Fatalf("Failures = %+v, want exactly one", faulted.Failures)
	}
	out2, ok := outs[2]
	if !ok || len(out2.Failures) != 1 || len(out2.Races) != 0 {
		t.Fatalf("panicked window outcome = %+v, want a failure-only verdict", out2)
	}

	col := telemetry.NewCollector()
	resumed := detect(t, tr, Options{
		WindowSize:    24,
		ResumeWindows: outs, // includes the failure verdict, no injector now
		Telemetry:     col,
	})
	faulted.Elapsed, resumed.Elapsed = 0, 0
	if !reflect.DeepEqual(clearReplayed(resumed), faulted) {
		t.Errorf("resumed result differs from the faulted run:\n got %+v\nwant %+v", resumed, faulted)
	}
	m := col.Snapshot()
	if m.Journal.WindowsReplayed != int64(len(outs)) {
		t.Errorf("windows_replayed = %d, want %d", m.Journal.WindowsReplayed, len(outs))
	}
	if m.Outcomes.WindowFailures != 1 {
		t.Errorf("telemetry window_failures = %d, want 1 (the replayed failure must be counted)", m.Outcomes.WindowFailures)
	}
}

// TestHookNotCalledOnCancelledWindow: windows cut short by cancellation
// have no final verdict and must never reach the hook — journaling them
// would make a resumed run silently under-report. Only the window that
// fully completed before the cancel may produce an outcome.
func TestHookNotCalledOnCancelledWindow(t *testing.T) {
	tr := pairRichTrace()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	outs := make(map[int]race.WindowOutcome)
	res := New(Options{
		WindowSize: 24,
		Witness:    true,
		Telemetry:  cancelAfterWindow(0, cancel),
		OnWindowDone: func(out race.WindowOutcome) {
			mu.Lock()
			outs[out.Window] = out
			mu.Unlock()
		},
	}).DetectContext(ctx, tr)
	if !res.Cancelled {
		t.Fatal("Cancelled = false after mid-run cancel")
	}
	if len(outs) != 1 {
		t.Fatalf("hook fired for windows %v, want only the completed window 0", outs)
	}
	out, ok := outs[0]
	if !ok {
		t.Fatalf("window 0 completed before the cancel but produced no outcome")
	}
	if len(out.Races) == 0 {
		t.Error("window 0 outcome has no races (fixture drifted)")
	}
}
