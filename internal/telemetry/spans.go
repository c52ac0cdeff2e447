// Spans: the one instrumentation primitive. A span times one stage of a
// run and, when it ends, does everything the stage's boundary feeds:
//
//   - it adds its exclusive time — its duration minus that of the phase
//     spans nested in it — to its phase total, so no time is counted
//     twice and the phases of a run add up to its root span;
//   - it publishes itself into the attached SpanRecorder's bounded ring
//     (the -trace-out timeline), when a recorder is attached;
//   - it hands itself to the recorder's end-of-span consumer (the
//     -progress lines), when the recorder has one.
//
// Window and query spans do a little more (EndWindow, EndQuery): the
// window record and in-flight gauge, the query outcome tally.
//
// The disabled path is a nil *Collector: Begin returns a nil *Span
// without reading the clock, and every Span method is a no-op on nil.
// Only the spans whose duration a report needs (BeginRun, a timed
// BeginWindow) read the clock without a collector.
//
// The recorder never blocks: spans are published into a fixed ring with
// a single atomic cursor, so a slow consumer (or none at all) costs the
// detection hot path nothing. When the ring wraps, the oldest spans are
// overwritten and counted as dropped rather than stalling the pipeline:
// for timeline debugging the recent window is the interesting one.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// DefaultSpanCapacity is the ring size used when NewSpanRecorder is given
// a zero capacity: enough for every window, phase and pair-group span of
// a mid-sized run.
const DefaultSpanCapacity = 1 << 16

// SpanKind says which payload fields of a SpanEvent are set.
type SpanKind uint8

const (
	// SpanPlain is every span but the two below.
	SpanPlain SpanKind = iota
	// SpanWindow is a window that reached a verdict: Window, Events and
	// Findings are set.
	SpanWindow
	// SpanQuery is one pair's verdict: Window, A, B and Outcome are set.
	SpanQuery
)

// SpanEvent is one completed span. Start and Dur are nanoseconds relative
// to the recorder's epoch (monotonic), so events order correctly even
// across goroutines.
type SpanEvent struct {
	ID     uint64
	Parent uint64 // 0 means no parent (a root span)
	Name   string
	Lane   int32 // display lane (Chrome trace tid); see RunLane et al.
	Start  int64 // ns since the recorder's epoch
	Dur    int64 // ns
	Kind   SpanKind
	// Window is the window index of window and query spans, in trace
	// order even when windows run in parallel.
	Window int
	// Events and Findings are a window span's length and the findings
	// attributed to it; ElapsedNS is its analysis time as the report
	// records it: Dur, or for a window replayed from a journal the
	// journaled time of its analysis.
	Events, Findings int
	ElapsedNS        int64
	// A and B are a query span's defining events in whole-trace
	// coordinates (the COP for races, the two blocked acquires for
	// deadlocks, the two region accesses for atomicity); Outcome is its
	// verdict.
	A, B    int
	Outcome Outcome
}

// Display-lane scheme. Lanes map to Chrome trace-event thread IDs: the
// run itself (and the journal, whose fsyncs stall it) on lane 0, each
// window on its own lane, each pair worker of a window on a lane of its
// own so worker occupancy reads directly off the timeline.
const laneWindowShift = 8

// RunLane is the lane of run-scoped spans (run, journal fsync).
func RunLane() int32 { return 0 }

// WindowLane returns the lane of window widx's window-scoped spans
// (the window itself, its enumerate/MHB/triage phases).
func WindowLane(widx int) int32 { return int32(widx+1) << laneWindowShift }

// WorkerLane returns the lane of pair worker k of window widx. Worker
// indices ≥ 255 share the last lane (the pool is capped at GOMAXPROCS,
// so this is theoretical).
func WorkerLane(widx, k int) int32 {
	if k > 254 {
		k = 254
	}
	return WindowLane(widx) + 1 + int32(k)
}

// Span is one timed stage of a run, opened by Begin, Child, BeginRun,
// BeginWindow or Query and closed by End, EndWindow, EndReplayed or
// EndQuery. A nil *Span is inert. A span is ended once, on the goroutine
// that opened it; its children may end on other goroutines.
type Span struct {
	c   *Collector // nil for a bare timed span (BeginRun/BeginWindow without a collector)
	rec *SpanRecorder
	// up is the nearest enclosing span that owns phase time — a phase
	// span or the run — charged with this span's duration when this span
	// has a phase itself.
	up     *Span
	nested atomic.Int64
	// start is zero for a structural span no recorder publishes: nothing
	// needs its duration, so it reads no clock.
	start      time.Time
	id, parent uint64
	name       string
	lane       int32
	phase      Phase
	ended      bool
	x          *spanPayload // window and query spans only
}

// spanPayload is what only window and query spans carry, kept out of
// Span so that the common phase span stays small.
type spanPayload struct {
	ev     SpanEvent    // Kind and the window or query payload fields
	window bool         // a window span: End balances the in-flight gauge
	record WindowRecord // a window span's record, appended by EndWindow
}

// Begin opens a span of phase p (NoPhase for a structural span such as a
// window or pair group, whose time stays with the enclosing phase span)
// on lane, nested in parent, or in the collector's run span when parent
// is nil. On a nil collector it returns nil without reading the clock.
func (c *Collector) Begin(p Phase, name string, lane int32, parent *Span) *Span {
	if c == nil {
		return nil
	}
	if parent == nil {
		parent = c.root.Load()
	}
	s := &Span{c: c, phase: p, name: name, lane: lane}
	if parent != nil {
		s.up = parent
		if parent.phase == NoPhase {
			s.up = parent.up
		}
		s.parent = parent.id
	}
	if r := c.spans.Load(); r != nil {
		s.rec = r
		s.id = r.ids.Add(1)
	}
	if p != NoPhase || s.rec != nil {
		s.start = time.Now()
	}
	return s
}

// Child opens a span of phase p nested in s, on s's lane.
func (s *Span) Child(p Phase, name string) *Span {
	if s == nil {
		return nil
	}
	return s.c.Begin(p, name, s.lane, s)
}

// BeginRun opens a run's root span, named "run": its duration is the
// run's elapsed time, its exclusive time is PhaseOther, and every span
// opened without a parent nests in it until it ends. It reads the clock
// on a nil collector too, since a report always carries its elapsed time.
func (c *Collector) BeginRun() *Span {
	if c == nil {
		return &Span{start: time.Now()}
	}
	s := c.Begin(PhaseOther, "run", RunLane(), nil)
	c.root.Store(s)
	return s
}

// End closes the span and returns its duration (zero for an untimed
// structural span).
func (s *Span) End() time.Duration {
	if s == nil || s.ended {
		return 0
	}
	s.ended = true
	var d time.Duration
	if !s.start.IsZero() {
		d = time.Since(s.start)
	}
	c := s.c
	if c == nil {
		return d
	}
	if s.phase != NoPhase {
		// Concurrent children (parallel windows under the run) can sum
		// past the span's own wall clock; the span then owns no time.
		c.phases[s.phase].Add(max(int64(d)-s.nested.Load(), 0))
		if s.up != nil {
			s.up.nested.Add(int64(d))
		}
		if s.phase == PhaseOther {
			c.root.CompareAndSwap(s, nil)
		}
	}
	x := s.x
	if x != nil && x.window {
		if x.ev.Kind == SpanWindow {
			if x.record.ElapsedNS == 0 {
				x.record.ElapsedNS = int64(d)
			}
			x.ev.ElapsedNS = x.record.ElapsedNS
			c.mu.Lock()
			c.windows = append(c.windows, x.record)
			c.mu.Unlock()
		}
		c.counters[WindowsFinished].Add(1)
	}
	if r := s.rec; r != nil {
		ev := new(SpanEvent)
		if x != nil {
			*ev = x.ev
		}
		ev.ID, ev.Parent, ev.Name, ev.Lane = s.id, s.parent, s.name, s.lane
		ev.Start = int64(s.start.Sub(r.epoch))
		ev.Dur = int64(d)
		r.publish(ev)
	}
	return d
}

// BeginWindow opens the structural span of window widx, whose first
// event sits at the whole-trace offset, and moves the windows-in-flight
// gauge. A window span always reads the clock, since its record carries
// its elapsed time; timed makes it read the clock without a collector
// too, for callers that journal the window's elapsed time.
func (c *Collector) BeginWindow(widx, offset, events int, timed bool) *Span {
	if c == nil {
		if !timed {
			return nil
		}
		return &Span{start: time.Now()}
	}
	c.counters[WindowsStarted].Add(1)
	s := c.Begin(NoPhase, "window", WindowLane(widx), nil)
	s.x = &spanPayload{
		ev:     SpanEvent{Window: widx, Events: events},
		window: true,
		record: WindowRecord{Offset: offset, Events: events},
	}
	if s.start.IsZero() {
		s.start = time.Now()
	}
	return s
}

// EndWindow closes a window span that reached a verdict: the window's
// record, elapsed time included, joins the collector's window records.
// It returns the window's duration. A window span closed by End instead
// (a window that failed) balances the gauge and leaves no record.
func (s *Span) EndWindow(candidates, solved, findings int) time.Duration {
	if s == nil {
		return 0
	}
	if x := s.x; x != nil {
		x.record.Candidates, x.record.Solved, x.record.Findings = candidates, solved, findings
		x.ev.Kind, x.ev.Findings = SpanWindow, findings
	}
	return s.End()
}

// EndReplayed closes the span of a window replayed from a journal. Its
// record, and the span's ElapsedNS, keep the journaled elapsed time of
// the window's analysis rather than the replay's.
func (s *Span) EndReplayed(candidates, solved, findings int, elapsedNS int64) {
	if s == nil {
		return
	}
	if s.x != nil {
		s.x.record.ElapsedNS = elapsedNS
	}
	s.EndWindow(candidates, solved, findings)
}

// Query opens the structural span of one pair's verdict in window widx,
// nested in s on s's lane; a and b are the pair's defining events in
// whole-trace coordinates. Without a recorder it carries no payload and
// reads no clock: ending it only tallies the outcome.
func (s *Span) Query(widx, a, b int) *Span {
	q := s.Child(NoPhase, "query")
	if q != nil && q.rec != nil {
		q.x = &spanPayload{ev: SpanEvent{Window: widx, A: a, B: b}}
	}
	return q
}

// EndQuery closes a query span with its verdict. counted says the verdict
// is a solver query's and tallies it in the outcome counters; a verdict
// the triage ladder proved without the solver is published uncounted. A
// query span closed by End instead (the encoding failed before any
// verdict) publishes no verdict.
func (s *Span) EndQuery(o Outcome, counted bool) {
	if s == nil {
		return
	}
	if s.x != nil {
		s.x.ev.Kind, s.x.ev.Outcome = SpanQuery, o
	}
	if counted {
		s.c.CountOutcome(o)
	}
	s.End()
}

// SpanRecorder records completed spans into a bounded ring and hands
// each to an optional end-of-span consumer. All methods are safe for
// concurrent use; a nil *SpanRecorder records nothing. Construct with
// NewSpanRecorder.
type SpanRecorder struct {
	epoch time.Time
	slots []atomic.Pointer[SpanEvent]
	onEnd func(SpanEvent)
	// cursor is the count of publishes ever; slot = (cursor-1) % len.
	cursor  atomic.Uint64
	dropped atomic.Int64
	ids     atomic.Uint64
}

// NewSpanRecorder returns an empty recorder holding up to capacity spans
// (DefaultSpanCapacity when capacity is 0, no ring at all when it is
// negative). onEnd, when non-nil, receives every span as it ends; it is
// called concurrently when windows or pairs run in parallel, so it must
// serialise internally, and it runs on the detection hot path, so it
// must be cheap.
func NewSpanRecorder(capacity int, onEnd func(SpanEvent)) *SpanRecorder {
	if capacity == 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanRecorder{
		epoch: time.Now(),
		slots: make([]atomic.Pointer[SpanEvent], max(capacity, 0)),
		onEnd: onEnd,
	}
}

// publish stores one completed span and hands it to the consumer.
func (r *SpanRecorder) publish(ev *SpanEvent) {
	if n := uint64(len(r.slots)); n > 0 {
		i := r.cursor.Add(1) - 1
		if i >= n {
			r.dropped.Add(1)
		}
		r.slots[i%n].Store(ev)
	}
	if r.onEnd != nil {
		r.onEnd(*ev)
	}
}

// Dropped returns how many spans were overwritten by ring wrap-around.
func (r *SpanRecorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Events returns a snapshot of the recorded spans, ordered by start time.
// Concurrent recording may publish during the scan; the snapshot is each
// slot's value at its read.
func (r *SpanRecorder) Events() []SpanEvent {
	if r == nil {
		return nil
	}
	out := make([]SpanEvent, 0, min(r.cursor.Load(), uint64(len(r.slots))))
	for i := range r.slots {
		if ev := r.slots[i].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// chromeEvent is one Chrome trace-event object. The format is the
// trace-event JSON both chrome://tracing and Perfetto load: complete
// events ("X") with microsecond timestamps, plus thread-name metadata
// ("M") naming the lanes.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	PID   int            `json:"pid"`
	TID   int32          `json:"tid"`
	TS    float64        `json:"ts,omitempty"`
	Dur   float64        `json:"dur,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// laneName renders the display name of one lane under the lane scheme.
func laneName(lane int32) string {
	if lane == 0 {
		return "run + journal"
	}
	widx := int(lane>>laneWindowShift) - 1
	if lane&(1<<laneWindowShift-1) == 0 {
		return fmt.Sprintf("window %d", widx)
	}
	return fmt.Sprintf("window %d worker %d", widx, int(lane&(1<<laneWindowShift-1))-1)
}

// WriteChromeTrace writes the recorded spans as Chrome trace-event JSON
// (the {"traceEvents": [...]} object form).
func (r *SpanRecorder) WriteChromeTrace(w io.Writer) error {
	events := r.Events()
	out := make([]chromeEvent, 0, len(events)+8)
	lanes := make(map[int32]bool)
	for _, ev := range events {
		lanes[ev.Lane] = true
	}
	ordered := make([]int32, 0, len(lanes))
	for lane := range lanes {
		ordered = append(ordered, lane)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	for _, lane := range ordered {
		out = append(out, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   1,
			TID:   lane,
			Args:  map[string]any{"name": laneName(lane)},
		})
	}
	for _, ev := range events {
		ce := chromeEvent{
			Name:  ev.Name,
			Phase: "X",
			PID:   1,
			TID:   ev.Lane,
			TS:    float64(ev.Start) / 1e3,
			Dur:   float64(ev.Dur) / 1e3,
			Args:  map[string]any{"id": ev.ID},
		}
		if ev.Parent != 0 {
			ce.Args["parent"] = ev.Parent
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{out})
}

// AttachSpans connects a span recorder to the collector: every span
// opened on the collector is then published into it. Attach before the
// run starts; a nil recorder detaches.
func (c *Collector) AttachSpans(r *SpanRecorder) {
	if c == nil {
		return
	}
	c.spans.Store(r)
}

// Spans returns the attached recorder, or nil.
func (c *Collector) Spans() *SpanRecorder {
	if c == nil {
		return nil
	}
	return c.spans.Load()
}
