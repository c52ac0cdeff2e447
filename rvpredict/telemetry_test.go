package rvpredict_test

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/fixtures"
	"repro/internal/workloads"
	"repro/rvpredict"
	"repro/trace"
)

// TestTelemetryAttachedWhenRequested checks the option gates the snapshot
// and that a populated snapshot carries real data.
func TestTelemetryAttachedWhenRequested(t *testing.T) {
	tr := fixtures.Figure1()

	plain := rvpredict.Detect(tr, rvpredict.Options{})
	if plain.Telemetry != nil {
		t.Error("telemetry attached without Options.Telemetry")
	}

	rep := rvpredict.Detect(tr, rvpredict.Options{Telemetry: true})
	m := rep.Telemetry
	if m == nil {
		t.Fatal("no telemetry despite Options.Telemetry")
	}
	if m.WindowCount != rep.Windows {
		t.Errorf("telemetry windows = %d, report windows = %d", m.WindowCount, rep.Windows)
	}
	if m.Outcomes.Solved != int64(rep.PairsChecked) {
		t.Errorf("telemetry solved = %d, report pairs = %d", m.Outcomes.Solved, rep.PairsChecked)
	}
	if int(m.Outcomes.Sat) != len(rep.Races) {
		t.Errorf("telemetry sat = %d, races = %d", m.Outcomes.Sat, len(rep.Races))
	}
	if m.Phases.Total() == 0 {
		t.Error("no phase time recorded")
	}
	if m.Phases.TraceScan == 0 {
		t.Error("trace-scan phase not recorded")
	}
	if m.Solver.Solvers == 0 {
		t.Error("no solver rolled up")
	}

	// Enabling telemetry must not change what is detected.
	if len(rep.Races) != len(plain.Races) {
		t.Errorf("telemetry changed the result: %d races vs %d", len(rep.Races), len(plain.Races))
	}
}

// TestReportJSONRoundTrip marshals a full report (telemetry, witness,
// races) and checks the decoded structure is identical — the contract of
// cmd/rvpredict -json.
func TestReportJSONRoundTrip(t *testing.T) {
	tr := fixtures.Figure1()
	rep := rvpredict.Detect(tr, rvpredict.Options{Telemetry: true, Witness: true})

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back rvpredict.Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Errorf("report did not round-trip:\n got %+v\nwant %+v", back, rep)
	}

	// Stable top-level JSON names.
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"algorithm", "races", "stats", "pairs_checked",
		"windows", "solver_timeouts", "elapsed_ns", "telemetry"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("report JSON missing key %q", key)
		}
	}
	if raw["algorithm"] != "RV" {
		t.Errorf("algorithm encodes as %v, want \"RV\"", raw["algorithm"])
	}
}

// TestAlgorithmJSONRoundTrip pins the Algorithm name vocabulary.
func TestAlgorithmJSONRoundTrip(t *testing.T) {
	for _, a := range []rvpredict.Algorithm{rvpredict.MaximalCF, rvpredict.SaidEtAl,
		rvpredict.CausallyPrecedes, rvpredict.HappensBefore, rvpredict.QuickCheck} {
		data, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		var back rvpredict.Algorithm
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != a {
			t.Errorf("%v round-tripped to %v (via %s)", a, back, data)
		}
	}
	var a rvpredict.Algorithm
	if err := json.Unmarshal([]byte(`"nope"`), &a); err == nil {
		t.Error("unknown algorithm name did not error")
	}
	if err := json.Unmarshal([]byte(`2`), &a); err != nil || a != rvpredict.CausallyPrecedes {
		t.Errorf("legacy integer decode = %v, %v", a, err)
	}
}

// TestDeadlockAndAtomicityTelemetry checks the other two detectors attach
// snapshots too.
func TestDeadlockAndAtomicityTelemetry(t *testing.T) {
	b := trace.NewBuilder()
	b.Acquire(1, 100)
	b.Acquire(1, 101)
	b.Release(1, 101)
	b.Release(1, 100)
	b.Acquire(2, 101)
	b.Acquire(2, 100)
	b.Release(2, 100)
	b.Release(2, 101)
	tr := b.Trace()
	dl := rvpredict.DetectDeadlocks(tr, rvpredict.Options{Telemetry: true})
	if dl.Telemetry == nil {
		t.Fatal("deadlock report missing telemetry")
	}
	if len(dl.Deadlocks) > 0 && dl.Telemetry.Outcomes.Sat == 0 {
		t.Errorf("deadlocks found but no sat outcome: %+v", dl.Telemetry.Outcomes)
	}
	if data, err := json.Marshal(dl); err != nil {
		t.Errorf("deadlock report does not marshal: %v", err)
	} else {
		var back rvpredict.DeadlockReport
		if err := json.Unmarshal(data, &back); err != nil {
			t.Errorf("deadlock report does not unmarshal: %v", err)
		}
	}

	av := rvpredict.DetectAtomicityViolations(tr, rvpredict.Options{Telemetry: true})
	if av.Telemetry == nil {
		t.Fatal("atomicity report missing telemetry")
	}
	if _, err := json.Marshal(av); err != nil {
		t.Errorf("atomicity report does not marshal: %v", err)
	}
}

// TestPhasesCoverRun: on a sequential run the phases — the triage ladder
// and journal fsyncs included — plus other_ns add up to the run span
// (elapsed_ns) exactly. On the rows of at least 10,000 events, other_ns,
// the time no phase covers, stays within 10% of it; the smaller rows
// analyse in well under a millisecond, where the run's fixed setup (tens
// of microseconds) alone can pass 10%. It runs every Table 1 row but
// derby, which takes several seconds.
func TestPhasesCoverRun(t *testing.T) {
	for _, spec := range workloads.Rows() {
		if spec.Name == "derby" {
			continue
		}
		tr, _ := workloads.Build(spec)
		rep, err := rvpredict.Run(nil, tr, rvpredict.Options{Telemetry: true})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		m := rep.Telemetry
		covered := m.Phases.Total() + time.Duration(m.Triage.FastPathNS+m.Journal.FsyncNS)
		if covered != rep.Elapsed {
			t.Errorf("%s: phases + other_ns = %v, want the run's %v", spec.Name, covered, rep.Elapsed)
		}
		if spec.Events >= 10000 && 10*m.Phases.Other > int64(rep.Elapsed) {
			t.Errorf("%s: other_ns %v is more than 10%% of elapsed %v", spec.Name,
				time.Duration(m.Phases.Other), rep.Elapsed)
		}
	}
}
