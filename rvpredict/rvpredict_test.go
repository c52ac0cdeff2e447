package rvpredict_test

import (
	"context"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/atomicity"
	"repro/internal/deadlock"
	"repro/internal/fixtures"
	"repro/internal/race"
	"repro/internal/tracev2"
	"repro/internal/workloads"
	"repro/minilang"
	"repro/rvpredict"
	"repro/trace"
)

func TestDetectFigure1AllAlgorithms(t *testing.T) {
	tr := fixtures.Figure1()
	want := map[rvpredict.Algorithm]int{
		rvpredict.MaximalCF:        1,
		rvpredict.SaidEtAl:         0,
		rvpredict.CausallyPrecedes: 0,
		rvpredict.HappensBefore:    0,
		rvpredict.QuickCheck:       1,
	}
	for algo, n := range want {
		rep := rvpredict.Detect(tr, rvpredict.Options{Algorithm: algo})
		if len(rep.Races) != n {
			t.Errorf("%v: races = %d, want %d", algo, len(rep.Races), n)
		}
		if rep.Algorithm != algo {
			t.Errorf("report algorithm = %v, want %v", rep.Algorithm, algo)
		}
	}
}

func TestDetectReportFields(t *testing.T) {
	tr := fixtures.Figure1()
	rep := rvpredict.Detect(tr, rvpredict.Options{Witness: true})
	if rep.Stats.Events != tr.Len() {
		t.Errorf("stats events = %d, want %d", rep.Stats.Events, tr.Len())
	}
	if rep.Windows != 1 {
		t.Errorf("windows = %d, want 1", rep.Windows)
	}
	if len(rep.Races) != 1 {
		t.Fatalf("want the (3,10) race, got %v", rep.Races)
	}
	r := rep.Races[0]
	if r.Locations[0] != "L3" || r.Locations[1] != "L10" {
		t.Errorf("locations = %v", r.Locations)
	}
	if !strings.Contains(r.Description, "write(t1, x1, 1)") {
		t.Errorf("description = %q", r.Description)
	}
	if r.Witness == nil {
		t.Fatal("witness requested but absent")
	}
	if err := rvpredict.CheckWitness(tr, r.Witness, r.First, r.Second, 0); err != nil {
		t.Errorf("witness invalid: %v", err)
	}
}

// TestCheckWitnessLaterWindow checks CheckWitness on the witnesses of a
// windowed run: three rounds of one unprotected write/read pair, one
// round per 8-event window at distinct locations, give a race per window,
// and each witness, which reorders only its own window's events, passes
// when checked against that window.
func TestCheckWitnessLaterWindow(t *testing.T) {
	b := trace.NewBuilder()
	for i := range 3 {
		l := trace.Loc(10 * (i + 1))
		b.At(0).Acquire(1, 9)
		b.At(l).Write(1, 5, int64(i+1))
		b.At(0).Release(1, 9)
		b.At(0).Acquire(2, 9)
		b.At(0).Release(2, 9)
		b.At(l+1).Read(2, 5)
		b.At(0).Branch(1)
		b.At(0).Branch(2)
	}
	tr := b.Trace()
	opt := rvpredict.Options{Witness: true, WindowSize: 8}
	rep := rvpredict.Detect(tr, opt)
	if rep.Windows != 3 || len(rep.Races) != 3 {
		t.Fatalf("%d windows, races %v; want 3 windows, a race in each", rep.Windows, rep.Races)
	}
	for _, r := range rep.Races {
		if err := rvpredict.CheckWitness(tr, r.Witness, r.First, r.Second, opt.WindowSize); err != nil {
			t.Errorf("%s (window %d): %v", r.Description, r.First/8, err)
		}
	}
	if r := rep.Races[2]; rvpredict.CheckWitness(tr, r.Witness, r.First, r.Second, -1) == nil {
		t.Error("a window-2 witness passed as a reordering of the whole trace")
	}
}

func TestDetectFromMinilang(t *testing.T) {
	p, err := minilang.Compile(`shared x;
thread a {
  fork b;
  x = 1;
  join b;
}
thread b {
  r = x;
}`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := p.Run(minilang.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := rvpredict.Detect(tr, rvpredict.Options{})
	if len(rep.Races) != 1 {
		t.Fatalf("races = %v, want one", rep.Races)
	}
}

func TestOptionDefaults(t *testing.T) {
	// Zero options must behave like the paper's defaults and not hang.
	b := trace.NewBuilder()
	b.Write(1, 5, 1)
	b.ReadV(2, 5, 1)
	rep := rvpredict.Detect(b.Trace(), rvpredict.Options{})
	if len(rep.Races) != 1 {
		t.Fatal("plain race must be found with default options")
	}
	if rep.Elapsed <= 0 {
		t.Error("elapsed must be recorded")
	}
}

// TestNegativeOptionsDisableBounds: WindowSize -1 analyses a trace
// longer than the 10000-event default as one window, on both the
// in-memory and the reader path, so a race whose accesses sit 10500
// events apart is still found. Normalising twice would turn the -1 into
// 0 and then into the default, splitting the trace and losing the race.
func TestNegativeOptionsDisableBounds(t *testing.T) {
	b := trace.NewBuilder()
	b.Write(1, 5, 1)
	for i := 0; i < 10500; i++ {
		b.Write(1, trace.Addr(100+i), 1)
	}
	b.ReadV(2, 5, 1)
	tr := b.Trace()
	opt := rvpredict.Options{WindowSize: -1, SolveTimeout: -1}
	check := func(name string, rep rvpredict.Report) {
		t.Helper()
		if rep.Windows != 1 {
			t.Errorf("%s: windows = %d, want 1", name, rep.Windows)
		}
		if len(rep.Races) != 1 {
			t.Errorf("%s: races = %d, want 1", name, len(rep.Races))
		}
	}
	check("Detect", rvpredict.Detect(tr, opt))
	reader := opt
	reader.TraceReader = tracev2.FromTrace(tr)
	rep, err := rvpredict.Run(nil, nil, reader)
	if err != nil {
		t.Fatal(err)
	}
	check("reader", rep)
}

// TestCoreOptionsMapsNormalisedSentinels: CoreOptions copies normalised
// options as they are — negatives have become core's 0 (unbounded) and
// zeros the paper's defaults — and never re-normalises, which would turn
// an unbounded 0 back into a default.
func TestCoreOptionsMapsNormalisedSentinels(t *testing.T) {
	c := rvpredict.Options{WindowSize: -1, SolveTimeout: -1}.Normalised().CoreOptions()
	if c.WindowSize != 0 || c.SolveTimeout != 0 {
		t.Errorf("unbounded: window %d, solve %v; want 0, 0", c.WindowSize, c.SolveTimeout)
	}
	c = rvpredict.Options{}.Normalised().CoreOptions()
	if c.WindowSize != 10000 || c.SolveTimeout != 60*time.Second {
		t.Errorf("defaults: window %d, solve %v; want 10000, 60s", c.WindowSize, c.SolveTimeout)
	}
	c = rvpredict.Options{Witness: true, GlobalBudget: 7}.Normalised().CoreOptions()
	if !c.Witness || c.GlobalBudget != 7 {
		t.Errorf("fields not carried: %+v", c)
	}
}

// TestNilTraceIsEmpty: the lenient entry points analyse a nil trace as an
// empty one: the report equals the empty trace's, with no findings,
// instead of a panic.
func TestNilTraceIsEmpty(t *testing.T) {
	cases := []struct {
		name string
		run  func(tr *trace.Trace, opt rvpredict.Options) (report any, findings int)
	}{
		{"Detect", func(tr *trace.Trace, opt rvpredict.Options) (any, int) {
			rep := rvpredict.Detect(tr, opt)
			rep.Elapsed = 0
			return rep, len(rep.Races)
		}},
		{"DetectContext", func(tr *trace.Trace, opt rvpredict.Options) (any, int) {
			rep := rvpredict.DetectContext(context.Background(), tr, opt)
			rep.Elapsed = 0
			return rep, len(rep.Races)
		}},
		{"DetectDeadlocks", func(tr *trace.Trace, opt rvpredict.Options) (any, int) {
			rep := rvpredict.DetectDeadlocks(tr, opt)
			rep.Elapsed = 0
			return rep, len(rep.Deadlocks)
		}},
		{"DetectAtomicityViolations", func(tr *trace.Trace, opt rvpredict.Options) (any, int) {
			rep := rvpredict.DetectAtomicityViolations(tr, opt)
			rep.Elapsed = 0
			return rep, len(rep.Violations)
		}},
	}
	for _, tc := range cases {
		for _, algo := range []rvpredict.Algorithm{rvpredict.MaximalCF, rvpredict.SaidEtAl,
			rvpredict.CausallyPrecedes, rvpredict.HappensBefore, rvpredict.QuickCheck} {
			t.Run(tc.name+"/"+algo.String(), func(t *testing.T) {
				opt := rvpredict.Options{Algorithm: algo}
				got, findings := tc.run(nil, opt)
				want, _ := tc.run(trace.New(0), opt)
				if findings != 0 || !reflect.DeepEqual(got, want) {
					t.Errorf("nil trace: %+v, want the empty trace's report %+v", got, want)
				}
			})
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[rvpredict.Algorithm]string{
		rvpredict.MaximalCF:        "RV",
		rvpredict.SaidEtAl:         "Said",
		rvpredict.CausallyPrecedes: "CP",
		rvpredict.HappensBefore:    "HB",
		rvpredict.QuickCheck:       "QC",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(a), a, want)
		}
	}
	if rvpredict.Algorithm(99).String() != "Algorithm(99)" {
		t.Error("unknown algorithm rendering")
	}
}

func TestDetectDeadlocksFacade(t *testing.T) {
	b := trace.NewBuilder()
	b.Acquire(1, 100)
	b.Acquire(1, 101)
	b.Release(1, 101)
	b.Release(1, 100)
	b.Acquire(2, 101)
	b.Acquire(2, 100)
	b.Release(2, 100)
	b.Release(2, 101)
	rep := rvpredict.DetectDeadlocks(b.Trace(), rvpredict.Options{Witness: true})
	if len(rep.Deadlocks) != 1 {
		t.Fatalf("deadlocks = %d, want 1", len(rep.Deadlocks))
	}
	d := rep.Deadlocks[0]
	if d.Witness == nil {
		t.Error("witness requested but missing")
	}
	if d.HeldAcquires[0] != 0 || d.HeldAcquires[1] != 4 {
		t.Errorf("held acquires = %v", d.HeldAcquires)
	}
}

func TestDetectAtomicityFacade(t *testing.T) {
	b := trace.NewBuilder()
	b.AtNamed(1, "acct.go:5").Acquire(1, 100)
	b.AtNamed(2, "acct.go:6").Read(1, 1)
	b.AtNamed(3, "acct.go:7").Write(1, 1, 10)
	b.AtNamed(4, "acct.go:8").Release(1, 100)
	b.AtNamed(5, "audit.go:3").Write(2, 1, 99)
	rep := rvpredict.DetectAtomicityViolations(b.Trace(), rvpredict.Options{})
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %d, want 1 (candidates %d)", len(rep.Violations), rep.Candidates)
	}
	if !strings.Contains(rep.Violations[0].Description, "audit.go:3") {
		t.Errorf("description = %q", rep.Violations[0].Description)
	}
}

// TestQueryKindsParallelAgree: parallel deadlock and atomicity runs, on
// pair workers over the example programs' one window and on window
// workers over bubblesort's several, report the batch run's findings,
// witnesses included,
// and every witness is valid for its finding's window.
// Window-parallel runs analyse windows Isolated, so only the number of
// candidates examined may differ, when a signature recurs across windows.
func TestQueryKindsParallelAgree(t *testing.T) {
	var traces []*trace.Trace
	for _, path := range []string{"../examples/philosophers/unsafe.ml", "../examples/account/account.ml"} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := minilang.Compile(string(src))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := prog.Run(minilang.RunOptions{Scheduler: minilang.Sequential{}})
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	for _, spec := range workloads.Rows() {
		if spec.Name == "bubblesort" {
			tr, _ := workloads.Build(spec)
			traces = append(traces, tr)
		}
	}
	for i, tr := range traces {
		base := rvpredict.Options{WindowSize: 300, Witness: true}
		wantD := rvpredict.DetectDeadlocks(tr, base).Deadlocks
		wantA := rvpredict.DetectAtomicityViolations(tr, base).Violations
		if i < 2 && len(wantD)+len(wantA) == 0 {
			t.Fatalf("trace %d: no findings (fixture drifted)", i)
		}
		for _, d := range wantD {
			from := race.WindowStart(d.HeldAcquires[0], base.WindowSize)
			if err := deadlock.ValidateWitness(tr, d.Witness, d.HeldAcquires, d.BlockedAcquires, from); err != nil {
				t.Errorf("trace %d: %s: %v", i, d.Description, err)
			}
		}
		for _, v := range wantA {
			from := race.WindowStart(v.First, base.WindowSize)
			if err := atomicity.ValidateWitness(tr, v.Witness, v.First, v.Remote, v.Second, from); err != nil {
				t.Errorf("trace %d: %s: %v", i, v.Description, err)
			}
		}
		opt := base
		opt.Parallelism = 2
		if got := rvpredict.DetectDeadlocks(tr, opt).Deadlocks; !reflect.DeepEqual(got, wantD) {
			t.Errorf("trace %d (%d events): deadlocks %+v, batch %+v", i, tr.Len(), got, wantD)
		}
		if got := rvpredict.DetectAtomicityViolations(tr, opt).Violations; !reflect.DeepEqual(got, wantA) {
			t.Errorf("trace %d (%d events): violations %+v, batch %+v", i, tr.Len(), got, wantA)
		}
	}
}
