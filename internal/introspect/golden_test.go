package introspect

import (
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/race"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// seedEveryCounter drives every collector counter to a value no other
// counter holds, so a golden that stays byte-identical shows each counter
// still lands in its own snapshot field and /metrics sample. Windows go
// through spans: 13 begun, 11 replayed with a fixed elapsed time (two in
// flight), into a one-slot span ring that drops 10.
func seedEveryCounter() *telemetry.Collector {
	col := telemetry.NewCollector()
	col.AttachSpans(telemetry.NewSpanRecorder(1, nil))
	for _, c := range []struct {
		k telemetry.Counter
		n int64
	}{
		{telemetry.Decisions, 101}, {telemetry.Propagations, 102}, {telemetry.Conflicts, 103},
		{telemetry.Restarts, 104}, {telemetry.Learned, 105}, {telemetry.TheoryProps, 106},
		{telemetry.TheoryConflicts, 107}, {telemetry.WatchMoves, 126},
		{telemetry.UndoLogEntries, 127}, {telemetry.IDLAsserts, 108},
		{telemetry.IDLNegativeCycles, 109}, {telemetry.IDLRepairSteps, 110},
		{telemetry.TheoryFacts, 111}, {telemetry.InternedAtoms, 112}, {telemetry.TseitinVars, 113},
		{telemetry.TseitinClauses, 114}, {telemetry.BoolVars, 115}, {telemetry.Clauses, 116},
		{telemetry.IntVars, 117}, {telemetry.Solvers, 19},

		{telemetry.QueriesSat, 21}, {telemetry.QueriesUnsat, 22}, {telemetry.QueriesTimeout, 23},
		{telemetry.QueriesCancelled, 24}, {telemetry.BudgetExhausted, 25},
		{telemetry.WindowFailures, 26},

		{telemetry.Enumerated, 121}, {telemetry.QuickCheckFiltered, 122},
		{telemetry.SigDedup, 123}, {telemetry.MHBFiltered, 27},

		{telemetry.PairGroups, 124}, {telemetry.PairWorkers, 28}, {telemetry.PairReplicas, 29},
		{telemetry.PairRollbacks, 31}, {telemetry.PairSkips, 32}, {telemetry.WarmSkipped, 125},
		{telemetry.QueueWaitNS, 1_500_000_000}, {telemetry.GroupsDone, 33},

		{telemetry.SessionsStarted, 34}, {telemetry.SessionsFinished, 12},
		{telemetry.SessionsRejected, 35}, {telemetry.IngestBackpressureNS, 2_250_000_000},
		{telemetry.DegradedWindows, 36},

		{telemetry.TriageConfirmed, 37}, {telemetry.TriageSyncPConfirmed, 38},
		{telemetry.TriageDispatched, 39},

		{telemetry.JournalRecords, 41}, {telemetry.JournalBytes, 4107},
		{telemetry.JournalWindowsReplayed, 42}, {telemetry.JournalTornTails, 43},

		{telemetry.ChunkCacheHits, 44}, {telemetry.ChunkCacheMisses, 45},

		{telemetry.LeasesGranted, 46}, {telemetry.LeasesExpired, 47},
		{telemetry.LeasesReassigned, 48}, {telemetry.SpeculativeWins, 49},
		{telemetry.WorkerDisconnects, 51},
	} {
		col.Add(c.k, c.n)
	}
	col.Set(telemetry.MmapBytes, 1<<20)
	for w := 0; w < 13; w++ {
		sp := col.BeginWindow(w, 1000*w, 100+w, false)
		if w < 11 {
			sp.EndReplayed(10+w, 5+w, w%3, int64(1000+w))
		}
	}
	return col
}

// TestCounterGolden pins the /metrics exposition and the Snapshot JSON of
// a collector whose every counter holds a distinct value. Regenerate with
// go test ./internal/introspect -run CounterGolden -update.
func TestCounterGolden(t *testing.T) {
	col := seedEveryCounter()
	s, ts := testServer(t, col)
	s.AddRace(RaceView{A: 1, B: 2, First: "a.go:1", Second: "b.go:2",
		Provenance: race.Provenance{Tier: race.TierSHB}})
	checkGolden(t, "metrics.golden", []byte(scrape(t, ts.URL+"/metrics")))
	snap, err := json.MarshalIndent(col.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.golden.json", append(snap, '\n'))
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s differs from the golden:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestCounterTableComplete checks the counter table against the enum:
// family names are unique, the golden seed gives every counter its own
// non-zero value, and moving any one counter alone changes the snapshot
// JSON or some /metrics sample, so no counter is collected but never
// exposed. Counters are moved from the seeded state rather than from zero
// because the queued-groups and active-sessions gauges are floored at 0:
// their finished-side inputs show only against a non-zero started side.
func TestCounterTableComplete(t *testing.T) {
	names := map[string]telemetry.Counter{}
	for k := range telemetry.NumCounters {
		d := k.Def()
		if d.Name == "" {
			continue
		}
		if prev, dup := names[d.Name]; dup {
			t.Errorf("counters %d and %d share the family %s", prev, k, d.Name)
		}
		names[d.Name] = k
		if (d.Type != "counter" && d.Type != "gauge") || d.Help == "" {
			t.Errorf("counter %d (%s) has type %q and help %q", k, d.Name, d.Type, d.Help)
		}
	}

	seeded := map[int64]telemetry.Counter{}
	col := seedEveryCounter()
	for k := range telemetry.NumCounters {
		v := col.Load(k)
		if prev, dup := seeded[v]; dup || v == 0 {
			t.Errorf("golden seed gives counter %d the value %d (counter %d has it too, or it is 0)", k, v, prev)
		}
		seeded[v] = k
	}

	base := exposition(t, col)
	for k := range telemetry.NumCounters {
		col := seedEveryCounter()
		col.Set(k, col.Load(k)+1000)
		if exposition(t, col) == base {
			t.Errorf("counter %d changes neither the snapshot JSON nor /metrics", k)
		}
	}
}

// exposition renders the collector's /metrics text and snapshot JSON.
func exposition(t *testing.T, col *telemetry.Collector) string {
	t.Helper()
	rec := httptest.NewRecorder()
	New(Options{Collector: col}).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	snap, err := json.Marshal(col.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return rec.Body.String() + string(snap)
}
