package rvpredict_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/tracev2"
	"repro/rvpredict"
	"repro/trace"
)

// shardFixture builds a trace with enough windows (at WindowSize 8) for
// a 3-way shard split to give every shard real work; reuses the resume
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
// opens it through the file reader, so shard tests run over the real
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

// shardCases are the shard and reader identity fixtures with their
// window sizes: the block-unique shardFixture, and one whose location
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

// TestShardMergeBitIdentical is the tentpole acceptance: N shard
// processes, each journaling its widx-mod-N windows, merged via the
// shard journals, must reproduce the single-process reader run
// byte-for-byte (modulo wall-clock and the telemetry snapshot).
func TestShardMergeBitIdentical(t *testing.T) {
	for _, c := range shardCases() {
		opts := shardOpts()
		opts.WindowSize = c.window
		for _, shards := range []int{2, 3, 5} {
			dir := t.TempDir()
			var journals []string
			for id := 0; id < shards; id++ {
				opt := opts
				opt.TraceReader = chunkedFixtureReader(t, c.tr)
				opt.Shards, opt.ShardID = shards, id
				opt.Journal = filepath.Join(dir, "shard-"+strings.Repeat("i", id+1)+".journal")
				journals = append(journals, opt.Journal)
				if _, err := rvpredict.Run(nil, nil, opt); err != nil {
					t.Fatalf("%s shards=%d shard %d: %v", c.name, shards, id, err)
				}
			}
			mopt := opts
			mopt.TraceReader = chunkedFixtureReader(t, c.tr)
			merged, err := rvpredict.MergeShards(nil, mopt, journals)
			if err != nil {
				t.Fatalf("%s shards=%d: merge: %v", c.name, shards, err)
			}
			sopt := opts
			sopt.TraceReader = chunkedFixtureReader(t, c.tr)
			single, err := rvpredict.Run(nil, nil, sopt)
			if err != nil {
				t.Fatalf("%s shards=%d: single: %v", c.name, shards, err)
			}
			if got, want := normalise(t, merged), normalise(t, single); got != want {
				t.Errorf("%s shards=%d: merged report differs from single-process run:\nmerged: %s\nsingle: %s",
					c.name, shards, got, want)
			}
			if len(merged.Races) == 0 {
				t.Fatalf("%s shards=%d: merged report has no races", c.name, shards)
			}
		}
	}
}

// TestMergeShardsCountsConflicts: duplicate windows across the listed
// journals resolve first-listed-wins and every discarded duplicate is
// counted in the shard_conflicts telemetry counter, observed through
// the exported Collector option. Listing the same journal twice makes
// every one of its outcomes a (agreeing) duplicate, so the merged
// report must still be byte-identical to the clean merge.
func TestMergeShardsCountsConflicts(t *testing.T) {
	tr := shardFixture()
	const shards = 2
	dir := t.TempDir()
	var journals []string
	for id := 0; id < shards; id++ {
		opt := shardOpts()
		opt.TraceReader = chunkedFixtureReader(t, tr)
		opt.Shards, opt.ShardID = shards, id
		opt.Journal = filepath.Join(dir, "shard-"+strings.Repeat("i", id+1)+".journal")
		journals = append(journals, opt.Journal)
		if _, err := rvpredict.Run(nil, nil, opt); err != nil {
			t.Fatalf("shard %d: %v", id, err)
		}
	}
	_, info0, err := journal.Inspect(journals[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(info0.Outcomes) == 0 {
		t.Fatal("shard 0 journaled no windows")
	}

	col := telemetry.NewCollector()
	mopt := shardOpts()
	mopt.TraceReader = chunkedFixtureReader(t, tr)
	mopt.Collector = col
	merged, err := rvpredict.MergeShards(nil, mopt, append([]string{journals[0]}, journals...))
	if err != nil {
		t.Fatalf("merge with duplicated journal: %v", err)
	}
	if got, want := col.ShardConflicts(), int64(len(info0.Outcomes)); got != want {
		t.Errorf("shard_conflicts = %d, want %d (one per duplicated outcome)", got, want)
	}

	copt := shardOpts()
	copt.TraceReader = chunkedFixtureReader(t, tr)
	clean, err := rvpredict.MergeShards(nil, copt, journals)
	if err != nil {
		t.Fatalf("clean merge: %v", err)
	}
	if got, want := normalise(t, merged), normalise(t, clean); got != want {
		t.Errorf("duplicated-journal merge differs from clean merge:\ndup:   %s\nclean: %s", got, want)
	}
}

// TestShardDisjointCoverage: the per-shard journals must cover disjoint
// window sets whose union is every window.
func TestShardDisjointCoverage(t *testing.T) {
	tr := shardFixture()
	const shards = 3
	dir := t.TempDir()
	covered := map[int]int{}
	total := 0
	for id := 0; id < shards; id++ {
		opt := shardOpts()
		opt.TraceReader = chunkedFixtureReader(t, tr)
		opt.Shards, opt.ShardID = shards, id
		opt.Journal = filepath.Join(dir, "s.journal")
		rep, err := rvpredict.Run(nil, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		_, info, err := journal.Inspect(opt.Journal)
		if err != nil {
			t.Fatal(err)
		}
		for _, out := range info.Outcomes {
			covered[out.Window]++
			if out.Window%shards != id {
				t.Errorf("shard %d journaled window %d (not its own)", id, out.Window)
			}
		}
		// Every shard iterates every window; Windows counts only the
		// analysed ones, so the full count is the sum across shards.
		total += rep.Windows
		os.Remove(opt.Journal)
	}
	for w, n := range covered {
		if n != 1 {
			t.Errorf("window %d journaled %d times", w, n)
		}
	}
	if len(covered) != total {
		t.Errorf("journals cover %d windows, expected %d", len(covered), total)
	}
}

// TestShardResume: a shard interrupted mid-run resumes from its own
// journal and the final merge still matches the single-process run.
func TestShardResume(t *testing.T) {
	tr := shardFixture()
	const shards = 2
	dir := t.TempDir()
	j0 := filepath.Join(dir, "s0.journal")
	j1 := filepath.Join(dir, "s1.journal")

	// Shard 0 completes normally.
	opt := shardOpts()
	opt.TraceReader = chunkedFixtureReader(t, tr)
	opt.Shards, opt.ShardID, opt.Journal = shards, 0, j0
	if _, err := rvpredict.Run(nil, nil, opt); err != nil {
		t.Fatal(err)
	}

	// Shard 1 runs fully, then its journal is torn mid-record to
	// simulate a crash; the resumed run replays the intact prefix and
	// re-analyses the rest.
	opt = shardOpts()
	opt.TraceReader = chunkedFixtureReader(t, tr)
	opt.Shards, opt.ShardID, opt.Journal = shards, 1, j1
	if _, err := rvpredict.Run(nil, nil, opt); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(j1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(j1, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	opt.Resume = true
	if _, err := rvpredict.Run(nil, nil, opt); err != nil {
		t.Fatalf("resumed shard run: %v", err)
	}

	mopt := shardOpts()
	mopt.TraceReader = chunkedFixtureReader(t, tr)
	merged, err := rvpredict.MergeShards(nil, mopt, []string{j0, j1})
	if err != nil {
		t.Fatal(err)
	}
	sopt := shardOpts()
	sopt.TraceReader = chunkedFixtureReader(t, tr)
	single, err := rvpredict.Run(nil, nil, sopt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalise(t, merged), normalise(t, single); got != want {
		t.Errorf("merge after torn-journal resume differs from single run:\n%s\n%s", got, want)
	}
}

// TestMergePartialJournals: windows missing from every shard journal
// are analysed by the merge itself, so a lost shard never silently
// shrinks coverage.
func TestMergePartialJournals(t *testing.T) {
	tr := shardFixture()
	const shards = 3
	dir := t.TempDir()
	// Only shard 0 ran.
	opt := shardOpts()
	opt.TraceReader = chunkedFixtureReader(t, tr)
	opt.Shards, opt.ShardID = shards, 0
	opt.Journal = filepath.Join(dir, "s0.journal")
	if _, err := rvpredict.Run(nil, nil, opt); err != nil {
		t.Fatal(err)
	}
	mopt := shardOpts()
	mopt.TraceReader = chunkedFixtureReader(t, tr)
	merged, err := rvpredict.MergeShards(nil, mopt, []string{opt.Journal})
	if err != nil {
		t.Fatal(err)
	}
	sopt := shardOpts()
	sopt.TraceReader = chunkedFixtureReader(t, tr)
	single, err := rvpredict.Run(nil, nil, sopt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalise(t, merged), normalise(t, single); got != want {
		t.Errorf("merge with missing shards differs from single run:\n%s\n%s", got, want)
	}
}

// TestShardValidate pins the option-validation rules for sharding.
func TestShardValidate(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*rvpredict.Options)
		field string
	}{
		{"negative shards", func(o *rvpredict.Options) { o.Shards = -1 }, "Shards"},
		{"shard id out of range", func(o *rvpredict.Options) { o.Shards, o.ShardID = 2, 2 }, "ShardID"},
		{"shard id without shards", func(o *rvpredict.Options) { o.ShardID = 1 }, "ShardID"},
		{"multi-shard without journal", func(o *rvpredict.Options) { o.Shards = 2 }, "Shards"},
		{"baseline sharded", func(o *rvpredict.Options) {
			o.Shards = 1
			o.Algorithm = rvpredict.HappensBefore
		}, "Shards"},
	}
	for _, tc := range cases {
		opt := shardOpts()
		tc.mut(&opt)
		err := opt.Validate()
		var oe *rvpredict.OptionsError
		if err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
			continue
		}
		if !errors.As(err, &oe) || oe.Field != tc.field {
			t.Errorf("%s: err = %v, want OptionsError on %s", tc.name, err, tc.field)
		}
	}
	// Exactly one trace source.
	opt := shardOpts()
	opt.Shards, opt.ShardID, opt.Journal = 1, 0, filepath.Join(t.TempDir(), "j")
	if _, err := rvpredict.Run(nil, nil, opt); err == nil {
		t.Error("Run accepted a sharded run with no trace source")
	}
	opt.TraceReader = chunkedFixtureReader(t, shardFixture())
	if _, err := rvpredict.Run(nil, shardFixture(), opt); err == nil {
		t.Error("Run accepted both TraceReader and a materialised trace")
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
