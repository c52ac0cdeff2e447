package rvpredict_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fixtures"
	"repro/rvpredict"
	"repro/trace"
)

// racyWindows builds a multi-window trace with one racy pair per window.
func racyWindows() *trace.Trace {
	b := trace.NewBuilder()
	loc := trace.Loc(1)
	for i := 0; i < 6; i++ {
		x := trace.Addr(10 + i)
		b.At(loc).Write(1, x, 1)
		loc++
		b.At(loc).ReadV(2, x, 1)
		loc++
		for j := 0; j < 20; j++ {
			b.At(0).Branch(3)
		}
	}
	return b.Trace()
}

func TestDetectContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []rvpredict.Algorithm{
		rvpredict.MaximalCF, rvpredict.SaidEtAl, rvpredict.CausallyPrecedes,
		rvpredict.HappensBefore, rvpredict.QuickCheck,
	} {
		rep := rvpredict.DetectContext(ctx, fixtures.Figure1(), rvpredict.Options{Algorithm: algo})
		if !rep.Interrupted {
			t.Errorf("%v: Interrupted = false on pre-cancelled ctx", algo)
		}
		if len(rep.Races) != 0 {
			t.Errorf("%v: pre-cancelled run found races: %v", algo, rep.Races)
		}
	}
	if rep := rvpredict.DetectDeadlocksContext(ctx, fixtures.Figure1(), rvpredict.Options{}); !rep.Interrupted {
		t.Error("DetectDeadlocksContext: Interrupted = false on pre-cancelled ctx")
	}
	if rep := rvpredict.DetectAtomicityViolationsContext(ctx, fixtures.Figure1(), rvpredict.Options{}); !rep.Interrupted {
		t.Error("DetectAtomicityViolationsContext: Interrupted = false on pre-cancelled ctx")
	}
}

func TestDetectContextNilAndLive(t *testing.T) {
	//lint:ignore SA1012 nil-ctx tolerance is the documented contract
	rep := rvpredict.DetectContext(nil, fixtures.Figure1(), rvpredict.Options{})
	if rep.Interrupted || len(rep.Races) != 1 {
		t.Fatalf("nil ctx: interrupted=%v races=%d, want clean single-race report",
			rep.Interrupted, len(rep.Races))
	}
	rep2 := rvpredict.DetectContext(context.Background(), fixtures.Figure1(), rvpredict.Options{})
	if len(rep2.Races) != len(rep.Races) {
		t.Fatal("Background ctx and nil ctx must agree")
	}
}

// TestInterruptedKeyAlwaysPresent pins the JSON contract: consumers of
// partial reports rely on the "interrupted" key existing even when false.
func TestInterruptedKeyAlwaysPresent(t *testing.T) {
	rep := rvpredict.Detect(fixtures.Figure1(), rvpredict.Options{})
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	v, ok := m["interrupted"]
	if !ok {
		t.Fatal(`report JSON lacks the "interrupted" key`)
	}
	if v != false {
		t.Fatalf("interrupted = %v on a clean run, want false", v)
	}
	if _, ok := m["window_failures"]; ok {
		t.Error("window_failures must be omitted when empty")
	}
}

// TestWindowFailuresSurfaceInReport injects a panic into one window and
// checks the public report carries the failure and the run's other
// results.
func TestWindowFailuresSurfaceInReport(t *testing.T) {
	inj := faultinject.New().
		Script(faultinject.Scoped(faultinject.PointSolve, 1), 0, faultinject.FaultPanic)
	// Witness: the fault script targets the scripted window's first
	// solver query, which the triage fast path would otherwise skip.
	rep := rvpredict.Detect(racyWindows(), rvpredict.Options{
		WindowSize:    50,
		Witness:       true,
		FaultInjector: inj,
		Telemetry:     true,
	})
	if len(rep.WindowFailures) != 1 {
		t.Fatalf("WindowFailures = %+v, want one entry", rep.WindowFailures)
	}
	f := rep.WindowFailures[0]
	if f.Window != 1 || f.Offset != 50 {
		t.Errorf("failure coordinates = %+v, want window 1 at offset 50", f)
	}
	if !strings.Contains(f.PanicValue, "faultinject") {
		t.Errorf("PanicValue = %q", f.PanicValue)
	}
	if len(rep.Races) == 0 {
		t.Error("other windows' races must survive the failure")
	}
	if rep.Telemetry.Outcomes.WindowFailures != 1 {
		t.Errorf("telemetry window_failures = %d, want 1", rep.Telemetry.Outcomes.WindowFailures)
	}
	// The failure must also serialise.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"window_failures"`) {
		t.Error("window_failures missing from JSON report")
	}
}

func TestGlobalBudgetSurfacesInReport(t *testing.T) {
	rep := rvpredict.Detect(racyWindows(), rvpredict.Options{
		WindowSize:   50,
		GlobalBudget: time.Nanosecond,
	})
	if !rep.BudgetExhausted {
		t.Fatal("BudgetExhausted = false under 1ns budget")
	}
	if len(rep.Races) != 0 {
		t.Errorf("races = %v under an expired budget", rep.Races)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"budget_exhausted":true`) {
		t.Error("budget_exhausted missing from JSON report")
	}
}
