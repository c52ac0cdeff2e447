package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/trace"
)

// multiWindowTrace builds a trace with racy write/read pairs spread over
// several 50-event windows (the same shape as the parallelism test).
func multiWindowTrace() *trace.Trace {
	b := trace.NewBuilder()
	loc := trace.Loc(1)
	for i := 0; i < 12; i++ {
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

// TestTelemetryDoesNotChangeResults runs the same trace with telemetry off
// and on, sequentially and in parallel: the detected signature sets must be
// identical in every configuration. Run under -race, the parallel+telemetry
// configurations are also the concurrency check for the collector wiring.
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	tr := multiWindowTrace()
	base := detect(t, tr, Options{WindowSize: 50})
	if len(base.Races) == 0 {
		t.Fatal("expected races in the fixture")
	}
	want := sigs(base)

	for _, par := range []int{1, 2, 4} {
		col := telemetry.NewCollector()
		res := detect(t, tr, Options{WindowSize: 50, Parallelism: par, Telemetry: col})
		if got := sigs(res); !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d with telemetry: races %v, want %v", par, got, want)
		}
		m := col.Snapshot()
		if m.WindowCount != res.Windows {
			t.Errorf("parallelism %d: window records = %d, report windows = %d",
				par, m.WindowCount, res.Windows)
		}
		if m.Outcomes.Solved == 0 || m.Outcomes.Sat == 0 {
			t.Errorf("parallelism %d: no solver outcomes recorded: %+v", par, m.Outcomes)
		}
		if m.Solver.Solvers == 0 || m.Solver.Propagations == 0 {
			t.Errorf("parallelism %d: no solver counters recorded: %+v", par, m.Solver)
		}
	}
}

// TestTelemetryDeterministic runs sequential detection twice with
// telemetry: every non-timing metric must be bit-identical across runs.
func TestTelemetryDeterministic(t *testing.T) {
	tr := multiWindowTrace()
	snap := func() telemetry.Metrics {
		col := telemetry.NewCollector()
		detect(t, tr, Options{WindowSize: 50, Telemetry: col})
		return col.Snapshot().NonTiming()
	}
	a, b := snap(), snap()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sequential telemetry not deterministic:\n run1 %+v\n run2 %+v", a, b)
	}
}

// TestWindowSpans checks the span consumer sees one window span per
// window, carrying the window's index, length and findings, with the
// in-flight gauge balanced at the end, and one SAT query span per race,
// sequentially and in parallel.
func TestWindowSpans(t *testing.T) {
	tr := multiWindowTrace()
	for _, par := range []int{1, 4} {
		var mu sync.Mutex
		windows := make(map[int]telemetry.SpanEvent)
		sat := 0
		col := telemetry.NewCollector()
		col.AttachSpans(telemetry.NewSpanRecorder(-1, func(ev telemetry.SpanEvent) {
			mu.Lock()
			defer mu.Unlock()
			switch ev.Kind {
			case telemetry.SpanWindow:
				if _, dup := windows[ev.Window]; dup {
					t.Errorf("parallelism %d: window %d ended twice", par, ev.Window)
				}
				windows[ev.Window] = ev
			case telemetry.SpanQuery:
				if ev.Outcome == telemetry.OutcomeSat {
					sat++
				}
			}
		}))
		res := New(Options{WindowSize: 50, Parallelism: par, Telemetry: col}).Detect(tr)
		if len(windows) != res.Windows {
			t.Errorf("parallelism %d: %d window spans, want %d", par, len(windows), res.Windows)
		}
		if n := col.WindowsInFlight(); n != 0 {
			t.Errorf("parallelism %d: %d windows still in flight after the run", par, n)
		}
		findings := 0
		for i := 0; i < res.Windows; i++ {
			ev := windows[i]
			if want := min(50, tr.Len()-50*i); ev.Events != want {
				t.Errorf("parallelism %d: window %d span has %d events, want %d", par, i, ev.Events, want)
			}
			findings += ev.Findings
		}
		if findings != len(res.Races) {
			t.Errorf("parallelism %d: window spans carry %d findings, want %d races", par, findings, len(res.Races))
		}
		if sat != len(res.Races) {
			t.Errorf("parallelism %d: %d sat query spans, want %d (one per race)", par, sat, len(res.Races))
		}
	}
}

// TestTelemetryWindowRecordsAddUp cross-checks the per-window records
// against the whole-run report.
func TestTelemetryWindowRecordsAddUp(t *testing.T) {
	tr := multiWindowTrace()
	col := telemetry.NewCollector()
	res := New(Options{WindowSize: 50, Telemetry: col}).Detect(tr)
	m := col.Snapshot()

	events, solved, findings := 0, 0, 0
	for i, w := range m.Windows {
		if w.Index != i {
			t.Errorf("window %d has index %d", i, w.Index)
		}
		events += w.Events
		solved += w.Solved
		findings += w.Findings
	}
	if events != tr.Len() {
		t.Errorf("window events sum = %d, want trace length %d", events, tr.Len())
	}
	if solved != res.COPsChecked {
		t.Errorf("window solved sum = %d, want COPsChecked %d", solved, res.COPsChecked)
	}
	if findings != len(res.Races) {
		t.Errorf("window findings sum = %d, want %d races", findings, len(res.Races))
	}
	// The outcome tallies count solver queries only; pairs the triage tier
	// confirmed never reach the solver and are accounted in the triage
	// block, so the funnel adds up across the two.
	confirmed := m.Triage.Confirmed + m.Triage.SyncPConfirmed
	if confirmed == 0 {
		t.Error("triage confirmed = 0, want > 0 (fixture races are plain HB races)")
	}
	if m.Outcomes.Solved+confirmed != int64(res.COPsChecked) {
		t.Errorf("outcome solved %d + triage confirmed %d ≠ COPsChecked %d",
			m.Outcomes.Solved, confirmed, res.COPsChecked)
	}
	if int(m.Outcomes.Sat+confirmed) != len(res.Races) {
		t.Errorf("sat outcomes %d + triage confirmed %d ≠ %d races",
			m.Outcomes.Sat, confirmed, len(res.Races))
	}
}
