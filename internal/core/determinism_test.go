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

// matrixResult runs detection with the given window/pair parallelism and
// zeroes the timing field so results can be compared bit-for-bit.
func matrixResult(t *testing.T, tr *trace.Trace, par, pairPar int) race.Result {
	t.Helper()
	res := detect(t, tr, Options{
		WindowSize:      24,
		Parallelism:     par,
		PairParallelism: pairPar,
	})
	res.Elapsed = 0
	return res
}

// TestPairParallelMatrixDeterminism is the pair scheduler's acceptance
// test: the full race.Result — races in order, signatures, witnesses,
// counters, flags — must be bit-identical across every combination of
// window parallelism and pair parallelism, and across repeated runs of the
// same combination. Run under -race in CI, this is also the data-race
// check for the worker pool.
func TestPairParallelMatrixDeterminism(t *testing.T) {
	withProcs(t, 4)
	tr := pairRichTrace()
	baseline := matrixResult(t, tr, 0, 0)
	if len(baseline.Races) == 0 {
		t.Fatal("expected races in the fixture")
	}
	if baseline.Windows != 4 {
		t.Fatalf("Windows = %d, want 4 (fixture drifted)", baseline.Windows)
	}
	// Every surviving group is racy by construction (the lock-protected
	// pairs are removed by the quick check before grouping).
	wantGroups := int64(len(sigs(baseline)))
	for _, par := range []int{1, 4} {
		for _, pairPar := range []int{1, 4} {
			for run := 0; run < 2; run++ {
				col := telemetry.NewCollector()
				res := detect(t, tr, Options{
					WindowSize:      24,
					Parallelism:     par,
					PairParallelism: pairPar,
					Telemetry:       col,
				})
				res.Elapsed = 0
				if !reflect.DeepEqual(res, baseline) {
					t.Errorf("par %d × pairPar %d run %d: result differs from sequential baseline\n got %+v\nwant %+v",
						par, pairPar, run, res, baseline)
				}
				if g := col.Snapshot().PairSched.Groups; g != wantGroups {
					t.Errorf("par %d × pairPar %d: groups = %d, want %d",
						par, pairPar, g, wantGroups)
				}
			}
		}
	}
}

// TestPairParallelTelemetryDeterministic: the outcome tallies, group
// counts and window records of a window-sequential run must be
// bit-identical whether pairs are solved inline or by four workers. The
// solver-stack counters are excluded: each extra worker builds a replica
// encoding, so encoding sizes legitimately scale with the (timing-
// dependent) worker count.
func TestPairParallelTelemetryDeterministic(t *testing.T) {
	withProcs(t, 4)
	tr := pairRichTrace()
	snap := func(pairPar int) telemetry.Metrics {
		col := telemetry.NewCollector()
		detect(t, tr, Options{WindowSize: 24, PairParallelism: pairPar, Telemetry: col})
		m := col.Snapshot().NonTiming()
		m.Solver = telemetry.SolverCounters{}
		return m
	}
	want := snap(1)
	for _, pairPar := range []int{1, 4} {
		if got := snap(pairPar); !reflect.DeepEqual(got, want) {
			t.Errorf("pairPar %d: non-timing telemetry differs:\n got %+v\nwant %+v",
				pairPar, got, want)
		}
	}
}

// TestPairParallelCancellationMidWindow cancels the run as soon as window
// 0 completes, across the full parallelism matrix: the partial report must
// contain window 0's exact verdicts and never a non-baseline race.
func TestPairParallelCancellationMidWindow(t *testing.T) {
	withProcs(t, 4)
	baseline := matrixResult(t, pairRichTrace(), 0, 0)
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

	for _, par := range []int{0, 4} {
		for _, pairPar := range []int{0, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			res := New(Options{
				WindowSize:      24,
				Parallelism:     par,
				PairParallelism: pairPar,
				Witness:         true,
				Telemetry:       cancelAfterWindow(0, cancel),
			}).DetectContext(ctx, pairRichTrace())
			cancel()
			if !res.Cancelled {
				t.Fatalf("par %d × pairPar %d: Cancelled = false after mid-run cancel", par, pairPar)
			}
			got := make(map[int]map[race.Signature]bool)
			for _, r := range res.Races {
				w := winOf(r.A)
				if got[w] == nil {
					got[w] = make(map[race.Signature]bool)
				}
				got[w][r.Sig] = true
				if !all[r.Sig] {
					t.Errorf("par %d × pairPar %d: non-baseline race %v", par, pairPar, r.Sig)
				}
			}
			if !reflect.DeepEqual(got[0], byWin[0]) {
				t.Errorf("par %d × pairPar %d: window 0 = %v, want %v",
					par, pairPar, got[0], byWin[0])
			}
		}
	}
}

// TestPairParallelPanicIsolation scripts a panic on one of window 2's
// solver queries while four pair workers share the window: the pool stops,
// the window is dropped whole (all-or-nothing, so the result set stays
// deterministic), the failure is recorded once, and every other window is
// intact.
func TestPairParallelPanicIsolation(t *testing.T) {
	withProcs(t, 4)
	tr := pairRichTrace()
	baseline := matrixResult(t, tr, 0, 0)
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
	res := detect(t, tr, Options{
		WindowSize:      24,
		PairParallelism: 4,
		FaultInjector:   inj,
		Telemetry:       col,
	})

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
// pair workers lands on whichever query a worker solves first, so the
// dropped pair varies from run to run. Whatever it hits, the timeout must
// be one plain abort — no second pass re-solves it — seen once by the
// telemetry, and may cost at most one signature of the baseline, adding
// none. A pair whose signature has a second COP instance is still
// reported through that instance.
func TestPairParallelTwoPassRetry(t *testing.T) {
	withProcs(t, 4)
	tr := pairRichTrace()
	baseline := matrixResult(t, tr, 0, 0)
	inj := faultinject.New().Script(faultinject.PointSolve, 0, faultinject.FaultTimeout)
	col := telemetry.NewCollector()
	res := detect(t, tr, Options{
		WindowSize:      24,
		PairParallelism: 4,
		FaultInjector:   inj,
		Telemetry:       col,
	})

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
// window's races intact, and give the same race.Result whether the four
// pair-rich windows are solved inline or by four pair workers.
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
	baseline := matrixResult(t, tr, 0, 0)
	if baseline.Windows != 5 || !sigs(baseline)[sig(901, 902)] {
		t.Fatalf("fixture drifted: %d windows, races %v", baseline.Windows, sigs(baseline))
	}
	var results []race.Result
	for _, pairPar := range []int{1, 4} {
		inj := faultinject.New().Script(faultinject.Scoped(faultinject.PointSolve, 4), 0, faultinject.FaultTimeout)
		col := telemetry.NewCollector()
		res := detect(t, tr, Options{
			WindowSize:      24,
			PairParallelism: pairPar,
			FaultInjector:   inj,
			Telemetry:       col,
		})
		res.Elapsed = 0
		if res.SolverAborts != 1 {
			t.Errorf("pairPar %d: SolverAborts = %d, want 1", pairPar, res.SolverAborts)
		}
		m := col.Snapshot()
		if m.Outcomes.Timeout != 1 {
			t.Errorf("pairPar %d: timeout outcomes = %d, want 1", pairPar, m.Outcomes.Timeout)
		}
		if pairPar > 1 && m.PairSched.Replicas == 0 {
			t.Errorf("pairPar %d: no extra pair worker was spawned", pairPar)
		}
		want := sigs(baseline)
		delete(want, sig(901, 902))
		if got := sigs(res); !reflect.DeepEqual(got, want) {
			t.Errorf("pairPar %d: races = %v, want the baseline's without the aborted pair %v", pairPar, got, want)
		}
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("pairPar 4 result differs from pairPar 1:\n got %+v\nwant %+v", results[1], results[0])
	}
}

// TestRecurringSignatureDeterminism: on a trace whose location pairs race
// again in every window, window parallelism analyses each window Isolated
// and merges in window order, so every Parallelism × PairParallelism
// combination must give a race.Result bit-identical to the Isolated
// sequential runner's. The Carried sequential run must report the same
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
		for _, pairPar := range []int{1, 4} {
			got := detect(t, tr, Options{WindowSize: fixtures.RecurringBlock,
				Parallelism: par, PairParallelism: pairPar})
			got.Elapsed = 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("par %d × pairPar %d: result differs from the isolated sequential runner\n got %+v\nwant %+v",
					par, pairPar, got, want)
			}
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
