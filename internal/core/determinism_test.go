package core

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/fixtures"
	"repro/internal/race"
	"repro/internal/telemetry"
	"repro/trace"
)

// pairRichTrace builds a trace whose windows each contain several distinct
// signatures — racy pairs, a lock-protected non-race, and one signature
// with multiple COP instances — so the pair scheduler has real group
// structure to distribute. Every location advances per block, so each
// signature is confined to one window: the cross-window verdict sharing of
// parallel mode can never fire, making the full race.Result (including
// COPsChecked) comparable across every parallelism configuration.
//
// One block is exactly 24 events; with WindowSize 24 each block is one
// window.
func pairRichTrace() *trace.Trace {
	b := trace.NewBuilder()
	pairRichBlocks(b)
	return b.Trace()
}

// pairRichBlocks appends pairRichTrace's four blocks to b.
func pairRichBlocks(b *trace.Builder) {
	lk := trace.Addr(1)
	for i := 0; i < 4; i++ {
		l := trace.Loc(100 * (i + 1))
		xA := trace.Addr(10 + 8*i)
		xB := xA + 1
		xC := xA + 2
		xD := xA + 3
		// Signature (l+1, l+2): two COP instances, one group.
		b.At(l+1).Write(1, xA, 1)
		b.At(l+2).ReadV(2, xA, 1)
		b.At(l+1).Write(1, xA, 1)
		b.At(l+2).ReadV(2, xA, 1)
		// Write/write race.
		b.At(l+3).Write(1, xB, 2)
		b.At(l+4).Write(2, xB, 2)
		// Lock-protected pair: not a race (quick-check filtered).
		b.At(0).Acquire(1, lk)
		b.At(l+5).Write(1, xC, 1)
		b.At(0).Release(1, lk)
		b.At(0).Acquire(2, lk)
		b.At(l+6).ReadV(2, xC, 1)
		b.At(0).Release(2, lk)
		// Another racy write/read signature.
		b.At(l+7).Write(1, xD, 5)
		b.At(l+8).ReadV(2, xD, 5)
		// Branches engage the control-flow abstraction, and pad the block
		// to exactly 24 events so blocks align with windows.
		for j := 0; j < 5; j++ {
			b.At(l + 9).Branch(1)
			b.At(l + 10).Branch(2)
		}
	}
}

// withProcs raises GOMAXPROCS for the test: the pair scheduler caps its
// pool at GOMAXPROCS, so without this a single-core CI runner would never
// spawn the workers these tests exist to exercise. Goroutines still
// interleave on one core, which is all the -race checker needs.
func withProcs(t *testing.T, n int) {
	t.Helper()
	if old := runtime.GOMAXPROCS(0); old < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// matrixResult runs sequential detection over windows of the given size,
// the baseline of the parallelism matrix, and zeroes the timing field so
// results can be compared bit-for-bit.
func matrixResult(t *testing.T, tr *trace.Trace, window int) race.Result {
	t.Helper()
	res := detect(t, tr, Options{WindowSize: window})
	res.Elapsed = 0
	return res
}

// pushWindows pushes tr's windows one at a time through RunWindow, as a
// daemon session or a fleet worker does, with a witness request like
// detect's. Each window is analysed alone, so its pairs go to
// Parallelism workers. The first cut window ends the run.
func pushWindows(ctx context.Context, tr *trace.Trace, opt Options, state SigState) race.Result {
	opt.Witness = true
	r := NewRunner(opt, state)
	race.EachWindow(tr, opt.WindowSize, func(w *trace.Trace, widx, offset int) error {
		if _, st := r.RunWindow(ctx, w, widx, offset, false); st == WindowCut {
			return errStopWindows
		}
		return nil
	})
	return r.Result()
}

// TestPairParallelMatrixDeterminism is the acceptance test of both
// parallelism levels: the full race.Result — races in order, signatures,
// witnesses, counters, flags — must be bit-identical for every
// Parallelism and across repeated runs, on a multi-window trace (window
// workers) and on the same trace as one window (pair workers). Run under
// -race in CI, this is also the data-race check for both worker pools.
func TestPairParallelMatrixDeterminism(t *testing.T) {
	withProcs(t, 4)
	tr := pairRichTrace()
	for _, fx := range []struct {
		name           string
		window, nWinds int
	}{{"multi-window", 24, 4}, {"one-window", 0, 1}} {
		baseline := matrixResult(t, tr, fx.window)
		if len(baseline.Races) == 0 {
			t.Fatalf("%s: expected races in the fixture", fx.name)
		}
		if baseline.Windows != fx.nWinds {
			t.Fatalf("%s: Windows = %d, want %d (fixture drifted)", fx.name, baseline.Windows, fx.nWinds)
		}
		// Every surviving group is racy by construction (the lock-protected
		// pairs are removed by the quick check before grouping).
		wantGroups := int64(len(sigs(baseline)))
		for _, par := range []int{1, 2, 4} {
			for run := 0; run < 2; run++ {
				col := telemetry.NewCollector()
				res := detect(t, tr, Options{WindowSize: fx.window, Parallelism: par, Telemetry: col})
				res.Elapsed = 0
				if !reflect.DeepEqual(res, baseline) {
					t.Errorf("%s: par %d run %d: result differs from sequential baseline\n got %+v\nwant %+v",
						fx.name, par, run, res, baseline)
				}
				if g := col.Snapshot().PairSched.Groups; g != wantGroups {
					t.Errorf("%s: par %d: groups = %d, want %d", fx.name, par, g, wantGroups)
				}
			}
		}
	}
}

// TestParallelismPicksOneLevel: Parallelism 2 spends its workers on
// windows when the trace has several, building no replica, and on the
// pairs of the only window when it has one, building one replica for the
// second worker.
func TestParallelismPicksOneLevel(t *testing.T) {
	withProcs(t, 2)
	for _, fx := range []struct {
		window   int
		replicas int64
	}{{24, 0}, {0, 1}} {
		col := telemetry.NewCollector()
		detect(t, pairRichTrace(), Options{WindowSize: fx.window, Parallelism: 2, Telemetry: col})
		if got := col.Snapshot().PairSched.Replicas; got != fx.replicas {
			t.Errorf("window %d: pair replicas = %d, want %d", fx.window, got, fx.replicas)
		}
	}
}

// TestPairParallelTelemetryDeterministic: the outcome tallies, group
// counts and window records of windows pushed through RunWindow must be
// bit-identical whether their pairs are solved inline or by four
// workers. The solver-stack counters are excluded: each extra worker
// builds a replica encoding, so encoding sizes legitimately scale with
// the (timing-dependent) worker count.
func TestPairParallelTelemetryDeterministic(t *testing.T) {
	withProcs(t, 4)
	tr := pairRichTrace()
	snap := func(par int) telemetry.Metrics {
		col := telemetry.NewCollector()
		pushWindows(context.Background(), tr, Options{WindowSize: 24, Parallelism: par, Telemetry: col}, Carried)
		m := col.Snapshot().NonTiming()
		m.Solver = telemetry.SolverCounters{}
		return m
	}
	want := snap(1)
	if got := snap(4); !reflect.DeepEqual(got, want) {
		t.Errorf("par 4: non-timing telemetry differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestPairParallelCancellationMidWindow cancels the run as soon as window
// 0 completes, sequentially, on four window workers and with windows
// pushed to four pair workers each: the partial report must contain
// window 0's exact verdicts and never a non-baseline race. Then it
// cancels the one-window run at its first query verdict, while four pair
// workers share the window: the report must be flagged Cancelled and hold
// baseline races only.
func TestPairParallelCancellationMidWindow(t *testing.T) {
	withProcs(t, 4)
	baseline := matrixResult(t, pairRichTrace(), 24)
	byWin := make(map[int]map[race.Signature]bool)
	winOf := func(idx int) int { return idx / 24 }
	for _, r := range baseline.Races {
		w := winOf(r.A)
		if byWin[w] == nil {
			byWin[w] = make(map[race.Signature]bool)
		}
		byWin[w][r.Sig] = true
	}
	all := sigs(baseline)

	for _, mode := range []struct {
		name   string
		par    int
		pushed bool
	}{{"sequential", 0, false}, {"window workers", 4, false}, {"pair workers", 4, true}} {
		ctx, cancel := context.WithCancel(context.Background())
		opt := Options{WindowSize: 24, Parallelism: mode.par, Witness: true, Telemetry: cancelAfterWindow(0, cancel)}
		var res race.Result
		if mode.pushed {
			res = pushWindows(ctx, pairRichTrace(), opt, Carried)
		} else {
			res = New(opt).DetectContext(ctx, pairRichTrace())
		}
		cancel()
		if !res.Cancelled {
			t.Fatalf("%s: Cancelled = false after mid-run cancel", mode.name)
		}
		got := make(map[int]map[race.Signature]bool)
		for _, r := range res.Races {
			w := winOf(r.A)
			if got[w] == nil {
				got[w] = make(map[race.Signature]bool)
			}
			got[w][r.Sig] = true
			if !all[r.Sig] {
				t.Errorf("%s: non-baseline race %v", mode.name, r.Sig)
			}
		}
		if !reflect.DeepEqual(got[0], byWin[0]) {
			t.Errorf("%s: window 0 = %v, want %v", mode.name, got[0], byWin[0])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	col := telemetry.NewCollector()
	col.AttachSpans(telemetry.NewSpanRecorder(-1, func(ev telemetry.SpanEvent) {
		if ev.Kind == telemetry.SpanQuery {
			cancel()
		}
	}))
	res := New(Options{Parallelism: 4, Witness: true, Telemetry: col}).DetectContext(ctx, pairRichTrace())
	if !res.Cancelled {
		t.Fatal("one window: Cancelled = false after a cancel at the first query")
	}
	if col.Snapshot().PairSched.Replicas == 0 {
		t.Error("one window: no extra pair worker was spawned")
	}
	for _, r := range res.Races {
		if !all[r.Sig] {
			t.Errorf("one window: non-baseline race %v", r.Sig)
		}
	}
}

// TestPairParallelPanicIsolation pushes the windows through RunWindow and
// scripts a panic on one of window 2's solver queries while four pair
// workers share the window: the pool stops,
// the window is dropped whole (all-or-nothing, so the result set stays
// deterministic), the failure is recorded once, and every other window is
// intact.
func TestPairParallelPanicIsolation(t *testing.T) {
	withProcs(t, 4)
	tr := pairRichTrace()
	baseline := matrixResult(t, tr, 24)
	byWin := make(map[int]map[race.Signature]bool)
	for _, r := range baseline.Races {
		w := r.A / 24
		if byWin[w] == nil {
			byWin[w] = make(map[race.Signature]bool)
		}
		byWin[w][r.Sig] = true
	}
	inj := faultinject.New().Script(faultinject.Scoped(faultinject.PointSolve, 2), 0, faultinject.FaultPanic)
	col := telemetry.NewCollector()
	res := pushWindows(context.Background(), tr, Options{
		WindowSize:    24,
		Parallelism:   4,
		FaultInjector: inj,
		Telemetry:     col,
	}, Carried)

	if len(res.Failures) != 1 {
		t.Fatalf("Failures = %+v, want exactly one", res.Failures)
	}
	f := res.Failures[0]
	if f.Window != 2 || f.Offset != 48 || f.Events != 24 {
		t.Errorf("failure coordinates = %+v, want window 2 at offset 48, 24 events", f)
	}
	if !strings.Contains(f.PanicValue, "faultinject") {
		t.Errorf("PanicValue = %q, want the injected panic rendered", f.PanicValue)
	}
	got := sigs(res)
	for w, want := range byWin {
		for sg := range want {
			if w == 2 {
				if got[sg] {
					t.Errorf("window 2 panicked yet reported %v", sg)
				}
			} else if !got[sg] {
				t.Errorf("window %d race %v lost to window 2's panic", w, sg)
			}
		}
	}
	if res.Windows != baseline.Windows {
		t.Errorf("windows = %d, want %d (run must not stop at the failure)", res.Windows, baseline.Windows)
	}
	if m := col.Snapshot(); m.Outcomes.WindowFailures != 1 {
		t.Errorf("telemetry window_failures = %d, want 1", m.Outcomes.WindowFailures)
	}
}

// TestPairParallelTwoPassRetry: an unscoped injected timeout under four
// pair workers (windows pushed through RunWindow) lands on whichever
// query a worker solves first, so the
// dropped pair varies from run to run. Whatever it hits, the timeout must
// be one plain abort — no second pass re-solves it — seen once by the
// telemetry, and may cost at most one signature of the baseline, adding
// none. A pair whose signature has a second COP instance is still
// reported through that instance.
func TestPairParallelTwoPassRetry(t *testing.T) {
	withProcs(t, 4)
	tr := pairRichTrace()
	baseline := matrixResult(t, tr, 24)
	inj := faultinject.New().Script(faultinject.PointSolve, 0, faultinject.FaultTimeout)
	col := telemetry.NewCollector()
	res := pushWindows(context.Background(), tr, Options{
		WindowSize:    24,
		Parallelism:   4,
		FaultInjector: inj,
		Telemetry:     col,
	}, Carried)

	if res.SolverAborts != 1 {
		t.Fatalf("SolverAborts = %d, want 1", res.SolverAborts)
	}
	m := col.Snapshot()
	if m.Outcomes.Timeout != 1 {
		t.Errorf("telemetry timeouts = %d, want 1", m.Outcomes.Timeout)
	}
	if m.PairSched.Replicas == 0 {
		t.Error("no extra pair worker was spawned")
	}
	want, got := sigs(baseline), sigs(res)
	for sg := range got {
		if !want[sg] {
			t.Errorf("race %v reported but absent from the baseline", sg)
		}
	}
	if len(got) < len(want)-1 {
		t.Errorf("races = %d, want at least %d (one abort costs at most one signature)", len(got), len(want)-1)
	}
}

// TestPairParallelSolverAbort: an injected solver timeout is an abort,
// not a verdict. The trace is pairRichTrace plus a fifth window whose one
// racy pair is, with the witness detect requests, its window's only solver
// query; the timeout is injected there. It must count exactly one solver
// abort and one timeout outcome, drop that pair's race, leave every other
// window's races intact, and give the same race.Result whether the
// pushed windows' pairs are solved inline or by four pair workers.
func TestPairParallelSolverAbort(t *testing.T) {
	withProcs(t, 4)
	b := trace.NewBuilder()
	pairRichBlocks(b)
	b.At(901).Write(1, 90, 1)
	b.At(902).ReadV(2, 90, 1)
	for j := 0; j < 11; j++ {
		b.At(903).Branch(1)
		b.At(904).Branch(2)
	}
	tr := b.Trace()
	baseline := matrixResult(t, tr, 24)
	if baseline.Windows != 5 || !sigs(baseline)[sig(901, 902)] {
		t.Fatalf("fixture drifted: %d windows, races %v", baseline.Windows, sigs(baseline))
	}
	var results []race.Result
	for _, par := range []int{1, 4} {
		inj := faultinject.New().Script(faultinject.Scoped(faultinject.PointSolve, 4), 0, faultinject.FaultTimeout)
		col := telemetry.NewCollector()
		res := pushWindows(context.Background(), tr, Options{
			WindowSize:    24,
			Parallelism:   par,
			FaultInjector: inj,
			Telemetry:     col,
		}, Carried)
		if res.SolverAborts != 1 {
			t.Errorf("par %d: SolverAborts = %d, want 1", par, res.SolverAborts)
		}
		m := col.Snapshot()
		if m.Outcomes.Timeout != 1 {
			t.Errorf("par %d: timeout outcomes = %d, want 1", par, m.Outcomes.Timeout)
		}
		if par > 1 && m.PairSched.Replicas == 0 {
			t.Errorf("par %d: no extra pair worker was spawned", par)
		}
		want := sigs(baseline)
		delete(want, sig(901, 902))
		if got := sigs(res); !reflect.DeepEqual(got, want) {
			t.Errorf("par %d: races = %v, want the baseline's without the aborted pair %v", par, got, want)
		}
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("par 4 result differs from par 1:\n got %+v\nwant %+v", results[1], results[0])
	}
}

// TestRecurringSignatureDeterminism: on a trace whose location pairs race
// again in every window, window parallelism analyses each window Isolated
// and merges in window order, so every Parallelism, and every pair worker
// count of an Isolated runner's pushed windows, must give a race.Result
// bit-identical to the Isolated sequential runner's. The Carried sequential run must report the same
// races with strictly fewer COPsChecked — the proof that the fixture
// really recurs, and that carrying changes work, never verdicts.
func TestRecurringSignatureDeterminism(t *testing.T) {
	withProcs(t, 4)
	const windows = 4
	tr := fixtures.RecurringRaces(windows)
	isolated := NewRunner(Options{WindowSize: fixtures.RecurringBlock, Witness: true}, Isolated)
	isolated.Run(context.Background(), func(f func(w *trace.Trace, widx, offset int) error) error {
		return race.EachWindow(tr, fixtures.RecurringBlock, f)
	})
	want := isolated.Result()
	want.Elapsed = 0
	if want.Windows != windows {
		t.Fatalf("Windows = %d, want %d (fixture drifted)", want.Windows, windows)
	}
	smt := 0
	for _, r := range want.Races {
		if r.Prov.Tier == race.TierSMT {
			smt++
		}
	}
	if smt == 0 {
		t.Fatalf("no SMT-tier race among %+v (fixture drifted)", want.Races)
	}
	for _, par := range []int{2, 4} {
		got := detect(t, tr, Options{WindowSize: fixtures.RecurringBlock, Parallelism: par})
		got.Elapsed = 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("par %d: result differs from the isolated sequential runner\n got %+v\nwant %+v", par, got, want)
		}
		if got := pushWindows(context.Background(), tr, Options{WindowSize: fixtures.RecurringBlock, Parallelism: par}, Isolated); !reflect.DeepEqual(got, want) {
			t.Errorf("pushed, par %d: result differs from the isolated sequential runner\n got %+v\nwant %+v", par, got, want)
		}
	}
	carried := detect(t, tr, Options{WindowSize: fixtures.RecurringBlock})
	if !reflect.DeepEqual(carried.Races, want.Races) {
		t.Errorf("carried races differ from isolated:\n got %+v\nwant %+v", carried.Races, want.Races)
	}
	if carried.COPsChecked >= want.COPsChecked {
		t.Errorf("carried COPsChecked = %d, want fewer than isolated %d (no signature recurred)",
			carried.COPsChecked, want.COPsChecked)
	}
}
