package rvpredict_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/tracev2"
	"repro/rvpredict"
	"repro/trace"
)

// shardFixture builds a trace with enough windows (at WindowSize 8) for
// a partial journal to leave some of them out; reuses the resume
// fixture's racy block shape.
func shardFixture() *trace.Trace {
	b := trace.NewBuilder()
	for i := 0; i < 6; i++ {
		l := trace.Loc(100 * (i + 1))
		x := trace.Addr(10 + 4*i)
		y := x + 1
		b.At(l+1).Write(1, x, 1)
		b.At(l+2).ReadV(2, x, 1)
		b.At(l+3).Write(1, y, 2)
		b.At(l+4).Write(2, y, 2)
		b.At(l + 5).Branch(1)
		b.At(l + 6).Branch(2)
		b.At(l + 5).Branch(1)
		b.At(l + 6).Branch(2)
	}
	return b.Trace()
}

// chunkedFixtureReader writes the fixture in the chunked format and
// opens it through the file reader, so reader tests run over the real
// out-of-core path.
func chunkedFixtureReader(t *testing.T, tr *trace.Trace) *tracev2.Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.rvc2")
	var buf bytes.Buffer
	if err := tracev2.WriteTrace(&buf, tr, 16); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := tracev2.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// normalise renders a report as JSON with the operational fields that
// legitimately differ between equivalent runs (wall-clock, telemetry
// snapshot) removed — the remainder must be byte-identical.
func normalise(t *testing.T, rep rvpredict.Report) string {
	t.Helper()
	rep.Elapsed = 0
	rep.Telemetry = nil
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func shardOpts() rvpredict.Options {
	return rvpredict.Options{WindowSize: 8, Witness: true}
}

// shardCases are the reader identity fixtures with their window sizes: the block-unique shardFixture, and one whose location
// pairs race again in every window.
func shardCases() []struct {
	name   string
	tr     *trace.Trace
	window int
} {
	return []struct {
		name   string
		tr     *trace.Trace
		window int
	}{
		{"blocks", shardFixture(), 8},
		{"recurring", fixtures.RecurringRaces(6), fixtures.RecurringBlock},
	}
}

// TestReaderMatchesBatch: an out-of-core reader run must report the
// same races as the ordinary in-memory batch run. (Solver-work counters
// can differ when a signature recurs — the reader analyses every window
// with fresh signature state — so only the races and windows are
// compared.) Window parallelism analyses windows that way too, so an
// in-memory and a reader run with Parallelism 2 must both equal the
// reader run in full.
func TestReaderMatchesBatch(t *testing.T) {
	for _, c := range shardCases() {
		opts := shardOpts()
		opts.WindowSize = c.window
		batch, err := rvpredict.Run(nil, c.tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		opt := opts
		opt.TraceReader = chunkedFixtureReader(t, c.tr)
		reader, err := rvpredict.Run(nil, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch.Races) == 0 {
			t.Fatalf("%s: fixture found no races", c.name)
		}
		ra, _ := json.Marshal(batch.Races)
		rb, _ := json.Marshal(reader.Races)
		if !bytes.Equal(ra, rb) {
			t.Errorf("%s: races differ:\nbatch:  %s\nreader: %s", c.name, ra, rb)
		}
		if batch.Windows != reader.Windows || batch.Stats != reader.Stats {
			t.Errorf("%s: windows/stats differ: %d/%v vs %d/%v",
				c.name, batch.Windows, batch.Stats, reader.Windows, reader.Stats)
		}

		opt = opts
		opt.Parallelism = 2
		parMem, err := rvpredict.Run(nil, c.tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.TraceReader = chunkedFixtureReader(t, c.tr)
		parReader, err := rvpredict.Run(nil, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := normalise(t, reader)
		if got := normalise(t, parMem); got != want {
			t.Errorf("%s: in-memory Parallelism 2 differs from the reader run:\n got %s\nwant %s", c.name, got, want)
		}
		if got := normalise(t, parReader); got != want {
			t.Errorf("%s: reader Parallelism 2 differs from the reader run:\n got %s\nwant %s", c.name, got, want)
		}
	}
}

// TestMergePartialJournals: windows missing from the coordinator
// journal are analysed by the merge itself — the fleet's
// degrade-to-local path — so a lost lease never silently shrinks
// coverage, and every journaled outcome counts as a replayed window.
func TestMergePartialJournals(t *testing.T) {
	tr := shardFixture()
	dir := t.TempDir()
	opt := shardOpts()
	opt.TraceReader = chunkedFixtureReader(t, tr)
	opt.Journal = filepath.Join(dir, "full.journal")
	if _, err := rvpredict.Run(nil, nil, opt); err != nil {
		t.Fatal(err)
	}
	fp, info, err := journal.Inspect(opt.Journal)
	if err != nil {
		t.Fatal(err)
	}
	// Keep every other window, as if the fleet lost half its leases.
	partial := filepath.Join(dir, "partial.journal")
	w, err := journal.Create(partial, fp, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for i, out := range info.Outcomes {
		if i%2 == 0 {
			if err := w.Append(out); err != nil {
				t.Fatal(err)
			}
			kept++
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if kept == 0 || kept == len(info.Outcomes) {
		t.Fatalf("fixture must leave windows out: kept %d of %d", kept, len(info.Outcomes))
	}

	col := telemetry.NewCollector()
	mopt := shardOpts()
	mopt.TraceReader = chunkedFixtureReader(t, tr)
	mopt.Collector = col
	merged, err := rvpredict.MergeJournal(nil, mopt, partial)
	if err != nil {
		t.Fatal(err)
	}
	if got := col.Snapshot().Journal.WindowsReplayed; got != int64(kept) {
		t.Errorf("windows_replayed = %d, want %d (one per journaled outcome)", got, kept)
	}
	sopt := shardOpts()
	sopt.TraceReader = chunkedFixtureReader(t, tr)
	single, err := rvpredict.Run(nil, nil, sopt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalise(t, merged), normalise(t, single); got != want {
		t.Errorf("merge with missing windows differs from single run:\n%s\n%s", got, want)
	}
}

// TestReaderBaselineFallback: a baseline algorithm over a TraceReader
// materialises the trace and matches the plain in-memory run.
func TestReaderBaselineFallback(t *testing.T) {
	tr := shardFixture()
	opt := shardOpts()
	opt.Algorithm = rvpredict.HappensBefore
	batch, err := rvpredict.Run(nil, tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.TraceReader = chunkedFixtureReader(t, tr)
	reader, err := rvpredict.Run(nil, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalise(t, reader), normalise(t, batch); got != want {
		t.Errorf("baseline over reader differs from in-memory run:\n%s\n%s", got, want)
	}
}
