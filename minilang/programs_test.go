package minilang_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/minilang"
	"repro/rvpredict"
	"repro/trace"
)

// loadProgram compiles a corpus program from testdata/programs.
func loadProgram(t *testing.T, name string) *minilang.Program {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "programs", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := minilang.Compile(string(src))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return prog
}

// runWith executes prog under the scheduler and validates the trace.
func runWith(t *testing.T, prog *minilang.Program, sched minilang.Scheduler) *trace.Trace {
	t.Helper()
	tr, err := prog.Run(minilang.RunOptions{Scheduler: sched, MaxSteps: 1 << 18})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("inconsistent trace: %v", err)
	}
	return tr
}

func raceLocs(tr *trace.Trace) map[string]bool {
	rep := rvpredict.Detect(tr, rvpredict.Options{})
	out := make(map[string]bool)
	for _, r := range rep.Races {
		out[r.Locations[0]] = true
		out[r.Locations[1]] = true
	}
	return out
}

func TestPingPongRaceFree(t *testing.T) {
	prog := loadProgram(t, "pingpong.ml")
	for _, sched := range []minilang.Scheduler{
		minilang.Sequential{},
		&minilang.RoundRobin{Quantum: 2},
		&minilang.Random{Seed: 3},
	} {
		tr := runWith(t, prog, sched)
		if locs := raceLocs(tr); len(locs) != 0 {
			t.Errorf("ping-pong must be race-free, got races at %v", locs)
		}
		if len(tr.NotifyLinks()) == 0 {
			// Depending on the schedule no one may ever wait; at least one
			// scheduler run should produce links, checked below.
			continue
		}
	}
}

func TestBoundedBufferRaceFree(t *testing.T) {
	prog := loadProgram(t, "boundedbuffer.ml")
	tr := runWith(t, prog, &minilang.RoundRobin{Quantum: 3})
	if locs := raceLocs(tr); len(locs) != 0 {
		t.Errorf("bounded buffer must be race-free, got races at %v", locs)
	}
	// The buffer uses arrays with non-constant indices: implicit branch
	// events must be present.
	if tr.ComputeStats().Branches == 0 {
		t.Error("expected implicit array-index branch events")
	}
	// consumed = 1+2+…+8 = 36, printed by main; re-run capturing output.
	var out testWriter
	if _, err := prog.Run(minilang.RunOptions{
		Scheduler: &minilang.RoundRobin{Quantum: 3}, Out: &out,
		MaxSteps: 1 << 18,
	}); err != nil {
		t.Fatal(err)
	}
	if string(out) != "36\n" {
		t.Errorf("consumed = %q, want 36", string(out))
	}
}

type testWriter []byte

func (w *testWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

func TestPetersonFlagsRace(t *testing.T) {
	// Peterson's algorithm: the protocol variables race by construction
	// (plain loads/stores), so a sound detector must report them. The
	// critical counter is protected by the protocol — but only through
	// the spin loops' value dependences; what a trace-based detector can
	// conclude depends on the observed interleaving, so here we assert
	// the flags are reported and the trace machinery holds up.
	prog := loadProgram(t, "peterson.ml")
	tr := runWith(t, prog, &minilang.RoundRobin{Quantum: 1})
	locs := raceLocs(tr)
	if len(locs) == 0 {
		t.Fatal("Peterson's protocol variables must be reported as racing")
	}
	rep := rvpredict.Detect(tr, rvpredict.Options{Witness: true})
	for _, r := range rep.Races {
		if err := rvpredict.CheckWitness(tr, r.Witness, r.First, r.Second, 0); err != nil {
			t.Errorf("invalid witness for %s: %v", r.Description, err)
		}
	}
}

func TestRacyKVSizeCounter(t *testing.T) {
	prog := loadProgram(t, "racykv.ml")
	tr := runWith(t, prog, minilang.Sequential{})
	rep := rvpredict.Detect(tr, rvpredict.Options{})
	sizeRace := false
	for _, r := range rep.Races {
		for _, loc := range r.Locations {
			if loc == "L17" || loc == "L24" { // the size updates
				sizeRace = true
			}
		}
	}
	if !sizeRace {
		t.Errorf("size counter race not detected; races: %v", rep.Races)
	}
	// The striped table writes target different stripes AND different
	// elements: no table race.
	for _, r := range rep.Races {
		for _, loc := range r.Locations {
			if loc == "L15" || loc == "L22" {
				t.Errorf("striped table writes must not race: %v", r)
			}
		}
	}
}

func TestCorpusUnderManySeeds(t *testing.T) {
	// Every corpus program stays consistent under varied random schedules.
	names := []string{"pingpong.ml", "boundedbuffer.ml", "peterson.ml", "racykv.ml"}
	for _, name := range names {
		prog := loadProgram(t, name)
		for seed := int64(1); seed <= 5; seed++ {
			tr, err := prog.Run(minilang.RunOptions{
				Scheduler: &minilang.Random{Seed: seed}, MaxSteps: 1 << 18})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}
