package telemetry

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestNilCollectorIsInert drives every recording method through a nil
// receiver: none may panic, and a nil collector must snapshot to nil.
func TestNilCollectorIsInert(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Error("nil collector reports Enabled")
	}
	span := c.Begin(PhaseSolve, "solve", 0, nil)
	if span != nil {
		t.Error("nil collector opened a span")
	}
	if d := span.Child(PhaseWitness, "witness").End(); d != 0 {
		t.Errorf("nil span End = %v, want 0", d)
	}
	span.Query(0, 1, 2).EndQuery(OutcomeSat, true)
	c.BeginWindow(0, 0, 1, false).EndWindow(1, 1, 1)
	c.Add(Decisions, 1)
	c.Set(MmapBytes, 1)
	c.CountOutcome(OutcomeSat)
	if n := c.Load(Decisions); n != 0 {
		t.Errorf("nil collector Load = %d, want 0", n)
	}
	if n := c.WindowsInFlight() + c.GroupsQueued() + c.SessionsActive(); n != 0 {
		t.Errorf("nil collector gauges sum to %d, want 0", n)
	}
	if m := c.Snapshot(); m != nil {
		t.Errorf("nil collector Snapshot = %+v, want nil", m)
	}
}

// TestCollectorAccumulates checks that each recording method lands in the
// expected snapshot field.
func TestCollectorAccumulates(t *testing.T) {
	c := NewCollector()
	if !c.Enabled() {
		t.Fatal("fresh collector not Enabled")
	}
	c.addPhase(PhaseTraceScan, 5*time.Millisecond)
	c.addPhase(PhaseSolve, 7*time.Millisecond)
	c.Add(Decisions, 10)
	c.Add(Decisions, 1)
	c.Add(TheoryConflicts, 4)
	c.Add(IDLAsserts, 100)
	c.Add(IDLNegativeCycles, 5)
	c.Add(IDLRepairSteps, 50)
	c.Add(TheoryFacts, 3)
	c.Add(InternedAtoms, 7)
	c.Add(TseitinClauses, 9)
	c.Add(Solvers, 1)
	c.CountOutcome(OutcomeSat)
	c.CountOutcome(OutcomeUnsat)
	c.CountOutcome(OutcomeUnsat)
	c.CountOutcome(OutcomeTimeout)
	c.CountOutcome(OutcomeCancelled)
	c.CountOutcome(Outcome(9)) // not an outcome: ignored
	c.Add(Enumerated, 6)
	c.Add(QuickCheckFiltered, 1)
	c.Add(SigDedup, 1)
	c.Add(MHBFiltered, 1)
	c.windowDone(WindowRecord{Offset: 100, Events: 50, Findings: 1})
	c.windowDone(WindowRecord{Offset: 0, Events: 100, Findings: 2})

	m := c.Snapshot()
	if m.Phases.TraceScan != int64(5*time.Millisecond) || m.Phases.Solve != int64(7*time.Millisecond) {
		t.Errorf("phases = %+v", m.Phases)
	}
	if m.Solver.Decisions != 11 || m.Solver.TheoryConflicts != 4 {
		t.Errorf("solver = %+v", m.Solver)
	}
	if m.Solver.IDLAsserts != 100 || m.Solver.IDLNegativeCycles != 5 || m.Solver.IDLRepairSteps != 50 {
		t.Errorf("idl counters = %+v", m.Solver)
	}
	if m.Solver.TheoryFacts != 3 || m.Solver.InternedAtoms != 7 || m.Solver.TseitinClauses != 9 || m.Solver.Solvers != 1 {
		t.Errorf("encoding counters = %+v", m.Solver)
	}
	o := m.Outcomes
	if o.Sat != 1 || o.Unsat != 2 || o.Timeout != 1 || o.Cancelled != 1 || o.Solved != 5 {
		t.Errorf("outcomes = %+v", o)
	}
	if o.Enumerated != 6 || o.QuickCheckFiltered != 1 || o.SigDedupHits != 1 || o.MHBFiltered != 1 {
		t.Errorf("funnel = %+v", o)
	}
	// Windows sorted by offset with indices reassigned.
	if m.WindowCount != 2 || m.Windows[0].Offset != 0 || m.Windows[0].Index != 0 ||
		m.Windows[1].Offset != 100 || m.Windows[1].Index != 1 {
		t.Errorf("windows = %+v", m.Windows)
	}
}

// TestCollectorConcurrent hammers one collector from many goroutines; run
// under -race this is the data-race check, and the totals must balance.
func TestCollectorConcurrent(t *testing.T) {
	const workers = 8
	const perWorker = 1000
	c := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(Decisions, 1)
				c.Add(IDLAsserts, 1)
				c.Add(IDLRepairSteps, 2)
				c.Add(Enumerated, 1)
				c.CountOutcome(OutcomeUnsat)
				c.addPhase(PhaseSolve, time.Nanosecond)
			}
			c.windowDone(WindowRecord{Offset: w, Events: perWorker})
		}(w)
	}
	wg.Wait()
	m := c.Snapshot()
	const n = workers * perWorker
	if m.Solver.Decisions != n || m.Solver.IDLAsserts != n || m.Solver.IDLRepairSteps != 2*n {
		t.Errorf("solver totals = %+v, want %d decisions", m.Solver, n)
	}
	if m.Outcomes.Enumerated != n || m.Outcomes.Unsat != n || m.Outcomes.Solved != n {
		t.Errorf("outcome totals = %+v", m.Outcomes)
	}
	if m.Phases.Solve != n {
		t.Errorf("solve phase = %d ns, want %d", m.Phases.Solve, n)
	}
	if m.WindowCount != workers {
		t.Errorf("window count = %d, want %d", m.WindowCount, workers)
	}
	for i, w := range m.Windows {
		if w.Index != i || w.Offset != i {
			t.Errorf("window %d = %+v, want sorted by offset", i, w)
		}
	}
}

// TestSpanMeasures checks a span accumulates real elapsed time.
func TestSpanMeasures(t *testing.T) {
	c := NewCollector()
	span := c.Begin(PhaseEncode, "encode", 0, nil)
	time.Sleep(2 * time.Millisecond)
	if d := span.End(); d < time.Millisecond {
		t.Errorf("span measured %v, want ≥ 1ms", d)
	}
	if m := c.Snapshot(); m.Phases.Encode < int64(time.Millisecond) {
		t.Errorf("encode phase = %d ns, want ≥ 1ms", m.Phases.Encode)
	}
}

// TestMetricsJSONRoundTrip asserts the snapshot survives encoding/json
// unchanged — the contract behind rvpredict -json.
func TestMetricsJSONRoundTrip(t *testing.T) {
	c := NewCollector()
	c.addPhase(PhaseSolve, 123*time.Nanosecond)
	c.Add(Decisions, 42)
	c.Add(Learned, 7)
	c.Add(IDLAsserts, 9)
	c.Add(TseitinClauses, 6)
	c.Add(Enumerated, 3)
	c.CountOutcome(OutcomeSat)
	c.CountOutcome(OutcomeTimeout)
	c.windowDone(WindowRecord{Offset: 0, Events: 10, Candidates: 3, Solved: 2, Findings: 1, ElapsedNS: 555})
	orig := c.Snapshot()

	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Metrics
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*orig, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, *orig)
	}

	// Spot-check the stable field names.
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"phases", "solver", "outcomes", "window_count", "windows"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("JSON missing top-level key %q", key)
		}
	}
	solver := raw["solver"].(map[string]any)
	for _, key := range []string{"decisions", "idl_atom_assertions", "tseitin_clauses"} {
		if _, ok := solver[key]; !ok {
			t.Errorf("JSON solver missing key %q", key)
		}
	}
	outcomes := raw["outcomes"].(map[string]any)
	for _, key := range []string{"candidates_enumerated", "queries_solved", "cancelled"} {
		if _, ok := outcomes[key]; !ok {
			t.Errorf("JSON outcomes missing key %q", key)
		}
	}
}

// TestNonTimingStripsOnlyTiming checks NonTiming zeroes every timing field
// and nothing else, without sharing window storage with the original.
func TestNonTimingStripsOnlyTiming(t *testing.T) {
	c := NewCollector()
	c.addPhase(PhaseSolve, time.Second)
	c.Add(Decisions, 5)
	c.windowDone(WindowRecord{Offset: 0, Events: 4, ElapsedNS: 999})
	m := c.Snapshot()
	nt := m.NonTiming()
	if nt.Phases != (PhaseNanos{}) {
		t.Errorf("NonTiming phases = %+v, want zero", nt.Phases)
	}
	if nt.Windows[0].ElapsedNS != 0 {
		t.Errorf("NonTiming window elapsed = %d, want 0", nt.Windows[0].ElapsedNS)
	}
	if nt.Solver.Decisions != 5 || nt.Windows[0].Events != 4 {
		t.Errorf("NonTiming lost counters: %+v", nt)
	}
	if m.Windows[0].ElapsedNS != 999 {
		t.Error("NonTiming mutated the original snapshot")
	}
}

// TestStableNames pins the Phase and Outcome string vocabularies.
func TestStableNames(t *testing.T) {
	wantPhases := map[Phase]string{
		PhaseTraceScan:  "trace_scan",
		PhaseEnumerate:  "cop_enumeration",
		PhaseQuickCheck: "quick_check",
		PhaseEncode:     "encode",
		PhaseSolve:      "solve",
		PhaseWitness:    "witness",
		PhaseRollback:   "rollback",
	}
	for p, want := range wantPhases {
		if got := p.String(); got != want {
			t.Errorf("Phase(%d).String() = %q, want %q", p, got, want)
		}
	}
	wantOutcomes := map[Outcome]string{
		OutcomeSat:       "sat",
		OutcomeUnsat:     "unsat",
		OutcomeTimeout:   "timeout",
		OutcomeCancelled: "cancelled",
	}
	for o, want := range wantOutcomes {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, got, want)
		}
	}
	if OutcomeSat.Aborted() || OutcomeUnsat.Aborted() {
		t.Error("verdict outcomes must not be Aborted")
	}
	if !OutcomeTimeout.Aborted() || !OutcomeCancelled.Aborted() {
		t.Error("abort outcomes must be Aborted")
	}
}

// TestPhaseTotal checks Total sums every phase bucket.
func TestPhaseTotal(t *testing.T) {
	p := PhaseNanos{TraceScan: 1, Enumerate: 2, MHB: 3, QuickCheck: 4, Encode: 5, Solve: 6, Witness: 7, Rollback: 8}
	if got := p.Total(); got != 36 {
		t.Errorf("Total = %d, want 36", got)
	}
}

// addPhase and windowDone inject exact phase totals and window records,
// which spans measure from the clock.
func (c *Collector) addPhase(p Phase, d time.Duration) { c.phases[p].Add(int64(d)) }

func (c *Collector) windowDone(rec WindowRecord) {
	c.mu.Lock()
	c.windows = append(c.windows, rec)
	c.mu.Unlock()
}
