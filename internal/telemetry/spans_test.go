package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// recorded returns a collector publishing into a fresh recorder.
func recorded(capacity int, onEnd func(SpanEvent)) (*Collector, *SpanRecorder) {
	c := NewCollector()
	r := NewSpanRecorder(capacity, onEnd)
	c.AttachSpans(r)
	return c, r
}

// TestSpanRecorderBasics: spans publish with IDs, parents, lanes and
// non-negative durations, and Events returns them start-ordered.
func TestSpanRecorderBasics(t *testing.T) {
	c, r := recorded(16, nil)
	run := c.BeginRun()
	w := c.BeginWindow(0, 0, 10, false)
	g := c.Begin(NoPhase, "group", WorkerLane(0, 1), w)
	g.End()
	w.End()
	run.End()

	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("Events() returned %d spans, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Start < evs[i-1].Start {
			t.Errorf("events out of start order: %+v", evs)
		}
	}
	byName := map[string]SpanEvent{}
	for _, ev := range evs {
		if ev.Dur < 0 {
			t.Errorf("span %q has negative duration %d", ev.Name, ev.Dur)
		}
		byName[ev.Name] = ev
	}
	if byName["run"].Parent != 0 {
		t.Errorf("run parent = %d, want none", byName["run"].Parent)
	}
	if byName["window"].Parent != byName["run"].ID {
		t.Errorf("window parent = %d, want run %d", byName["window"].Parent, byName["run"].ID)
	}
	if byName["group"].Parent != byName["window"].ID {
		t.Errorf("group parent = %d, want window %d", byName["group"].Parent, byName["window"].ID)
	}
	if byName["group"].Lane != WorkerLane(0, 1) {
		t.Errorf("group lane = %d, want %d", byName["group"].Lane, WorkerLane(0, 1))
	}
	if r.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", r.Dropped())
	}
}

// TestSpanRecorderRingWrap: a full ring overwrites oldest spans and
// counts them dropped instead of growing or blocking.
func TestSpanRecorderRingWrap(t *testing.T) {
	c, r := recorded(4, nil)
	for i := 0; i < 10; i++ {
		c.Begin(NoPhase, "s", 0, nil).End()
	}
	if got := len(r.Events()); got != 4 {
		t.Errorf("ring holds %d spans, want 4", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
}

// TestSpanRecorderNilSafety: the disabled path (nil recorder, nil or
// detached collector) must be inert, like every other telemetry call
// site.
func TestSpanRecorderNilSafety(t *testing.T) {
	var r *SpanRecorder
	if r.Dropped() != 0 || r.Events() != nil {
		t.Error("nil recorder is not inert")
	}

	var c *Collector
	if s := c.Begin(PhaseSolve, "x", 0, nil); s != nil {
		t.Error("nil collector opened a span")
	}
	c.AttachSpans(nil)
	if c.Spans() != nil {
		t.Error("nil collector is not inert")
	}
	if s := c.BeginWindow(0, 0, 1, false); s != nil {
		t.Error("nil collector opened an untimed window span")
	}

	c = NewCollector()
	c.Begin(NoPhase, "x", 0, nil).End() // no recorder attached: nothing published
	if c.Spans() != nil {
		t.Error("collector without recorder should return nil Spans")
	}

	// A recorder without a ring still feeds its consumer.
	var got []string
	c, r = recorded(-1, func(ev SpanEvent) { got = append(got, ev.Name) })
	c.Begin(NoPhase, "x", 0, nil).End()
	if len(got) != 1 || got[0] != "x" || len(r.Events()) != 0 || r.Dropped() != 0 {
		t.Errorf("ringless recorder: consumer saw %v, ring %v, dropped %d", got, r.Events(), r.Dropped())
	}
}

// TestTimedSpansWithoutCollector: the spans a report needs a duration
// from measure it without a collector; everything nested in them stays
// inert.
func TestTimedSpansWithoutCollector(t *testing.T) {
	var c *Collector
	run := c.BeginRun()
	w := c.BeginWindow(0, 0, 1, true)
	if w.Child(PhaseEncode, "encode") != nil || w.Query(0, 1, 2) != nil {
		t.Error("spans nested in a bare timed span must be inert")
	}
	time.Sleep(time.Millisecond)
	if d := w.EndWindow(1, 1, 0); d < time.Millisecond {
		t.Errorf("timed window measured %v, want ≥ 1ms", d)
	}
	if d := run.End(); d < time.Millisecond {
		t.Errorf("run measured %v, want ≥ 1ms", d)
	}
}

// TestNestedPhaseChargedToInner: a phase span nested in another — even
// through a structural span — is charged only to the inner phase, the
// outer phase keeps its exclusive time, and the run's own time is
// other_ns, so the phases add up to the run exactly.
func TestNestedPhaseChargedToInner(t *testing.T) {
	c := NewCollector()
	run := c.BeginRun()
	outer := c.Begin(PhaseQuickCheck, "mhb+triage", 0, nil)
	group := outer.Child(NoPhase, "group")
	inner := group.Child(PhaseMHB, "mhb")
	time.Sleep(2 * time.Millisecond)
	dInner := inner.End()
	group.End()
	time.Sleep(time.Millisecond)
	dOuter := outer.End()
	dRun := run.End()

	p := c.Snapshot().Phases
	if p.MHB != int64(dInner) || p.MHB < int64(2*time.Millisecond) {
		t.Errorf("mhb = %d ns, want the inner span's %d", p.MHB, dInner)
	}
	if p.QuickCheck != int64(dOuter-dInner) || p.QuickCheck < int64(time.Millisecond) {
		t.Errorf("quick_check = %d ns, want the outer span minus the inner, %d", p.QuickCheck, dOuter-dInner)
	}
	if p.Other != int64(dRun-dOuter) {
		t.Errorf("other = %d ns, want the run minus the outer span, %d", p.Other, dRun-dOuter)
	}
	if p.Total() != dRun {
		t.Errorf("phases total %v, want the run's %v", p.Total(), dRun)
	}
	if c.Begin(NoPhase, "after", 0, nil).up != nil {
		t.Error("a span opened after the run ended still nests in it")
	}
}

// TestWindowAndQuerySpans: EndWindow records the window and publishes it
// as a SpanWindow; a window closed by End (a failure) balances the gauge
// and records nothing; a replayed window keeps its journaled time;
// EndQuery counts the outcome only when asked.
func TestWindowAndQuerySpans(t *testing.T) {
	var evs []SpanEvent
	c, _ := recorded(-1, func(ev SpanEvent) { evs = append(evs, ev) })
	w := c.BeginWindow(3, 100, 50, false)
	if c.WindowsInFlight() != 1 {
		t.Errorf("in flight = %d, want 1", c.WindowsInFlight())
	}
	w.Query(3, 101, 140).EndQuery(OutcomeSat, true)
	w.Query(3, 102, 141).EndQuery(OutcomeSat, false)
	w.Query(3, 103, 142).End() // no verdict
	d := w.EndWindow(7, 2, 1)
	w.End() // a deferred End after EndWindow is a no-op
	failed := c.BeginWindow(4, 150, 50, false)
	failed.End()
	c.BeginWindow(5, 200, 10, false).EndReplayed(3, 1, 0, 12345)

	if c.WindowsInFlight() != 0 {
		t.Errorf("in flight = %d after both windows ended, want 0", c.WindowsInFlight())
	}
	m := c.Snapshot()
	want := []WindowRecord{
		{Offset: 100, Events: 50, Candidates: 7, Solved: 2, Findings: 1, ElapsedNS: int64(d)},
		{Index: 1, Offset: 200, Events: 10, Candidates: 3, Solved: 1, ElapsedNS: 12345},
	}
	if m.WindowCount != 2 || !reflect.DeepEqual(m.Windows, want) {
		t.Errorf("window records = %+v, want %+v", m.Windows, want)
	}
	if m.Outcomes.Sat != 1 || m.Outcomes.Solved != 1 {
		t.Errorf("outcomes = %+v, want one counted sat", m.Outcomes)
	}
	if len(evs) != 6 {
		t.Fatalf("consumer saw %d spans, want 6: %+v", len(evs), evs)
	}
	if q := evs[0]; q.Kind != SpanQuery || q.Window != 3 || q.A != 101 || q.B != 140 || q.Outcome != OutcomeSat {
		t.Errorf("query span = %+v", q)
	}
	if q := evs[2]; q.Kind != SpanPlain || q.Name != "query" {
		t.Errorf("query span closed without a verdict = %+v, want a plain query span", q)
	}
	if ev := evs[3]; ev.Kind != SpanWindow || ev.Window != 3 || ev.Events != 50 || ev.Findings != 1 || ev.Dur != int64(d) || ev.ElapsedNS != int64(d) {
		t.Errorf("window span = %+v", ev)
	}
	if ev := evs[4]; ev.Kind != SpanPlain || ev.Name != "window" {
		t.Errorf("failed window span = %+v, want a plain window span", ev)
	}
	if ev := evs[5]; ev.Kind != SpanWindow || ev.Window != 5 || ev.ElapsedNS != 12345 {
		t.Errorf("replayed window span = %+v, want its journaled elapsed time", ev)
	}
}

// TestWriteChromeTrace: the export is valid trace-event JSON — an object
// with a traceEvents array of complete ("X") events plus thread-name
// metadata, loadable by chrome://tracing and Perfetto.
func TestWriteChromeTrace(t *testing.T) {
	c, r := recorded(16, nil)
	run := c.BeginRun()
	w := c.BeginWindow(2, 0, 10, false)
	g := c.Begin(NoPhase, "group 1:2 ×3", WorkerLane(2, 0), w)
	g.End()
	w.End()
	run.End()

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int32          `json:"tid"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	var complete, meta int
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.TS < 0 || ev.Dur < 0 {
				t.Errorf("event %q has negative ts/dur", ev.Name)
			}
		case "M":
			meta++
			if ev.Name != "thread_name" {
				t.Errorf("metadata event name = %q, want thread_name", ev.Name)
			}
			names[ev.Args["name"].(string)] = true
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if complete != 3 {
		t.Errorf("complete events = %d, want 3", complete)
	}
	if meta != 3 {
		t.Errorf("thread_name events = %d, want 3 (run, window, worker lanes)", meta)
	}
	for _, want := range []string{"run + journal", "window 2", "window 2 worker 0"} {
		if !names[want] {
			t.Errorf("missing lane name %q in %v", want, names)
		}
	}
}

// TestSpanRecorderConcurrent hammers the recorder from parallel
// goroutines (run with -race in CI): publishing and snapshotting must be
// free of data races and never lose the accounting identity
// published == retained + dropped.
func TestSpanRecorderConcurrent(t *testing.T) {
	c, r := recorded(64, nil)
	run := c.BeginRun()
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s := c.Begin(PhaseSolve, "span", WorkerLane(0, w), nil)
				s.End()
				if i%32 == 0 {
					r.Events()
					var buf bytes.Buffer
					if err := r.WriteChromeTrace(&buf); err != nil {
						t.Errorf("WriteChromeTrace during publish: %v", err)
					}
					if !strings.Contains(buf.String(), "traceEvents") {
						t.Error("export missing traceEvents key")
					}
				}
			}
		}(w)
	}
	wg.Wait()
	run.End()
	if got := len(r.Events()) + int(r.Dropped()); got != workers*per+1 {
		t.Errorf("retained+dropped = %d, want %d", got, workers*per+1)
	}
}
