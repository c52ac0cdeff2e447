package rvpredict

import (
	"context"
	"crypto/sha256"
	"fmt"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/race"
	"repro/internal/telemetry"
	"repro/internal/tracev2"
	"repro/trace"
)

// TraceReader is the out-of-core trace source Run analyses when
// Options.TraceReader is set: windows are streamed (holding O(window +
// chunk) events live, never the whole trace) and the report is rendered
// through the random-access Event/LocName path. Both implementations
// live in internal/tracev2: the chunked-file Reader (mmap-backed) and
// the in-memory MemReader adapter over a materialised trace, which
// every in-memory run analyses through.
//
// The contract mirrors trace.Trace + race.EachWindow exactly:
// Windows must yield the same window boundaries, carried initial
// values, and per-window events as race.EachWindow over the
// materialised trace, so the reader path and the batch path confirm
// identical races. ContentHash must equal journal.TraceFingerprint of
// the materialised trace, so journals bind across formats unchanged.
type TraceReader interface {
	// NumEvents is the total event count.
	NumEvents() int
	// Stats returns the whole-trace statistics (Table 1's columns),
	// precomputed so the report never needs the materialised trace.
	Stats() trace.Stats
	// ContentHash is the canonical trace fingerprint — SHA-256 of the
	// legacy tracefile encoding, identical to journal.TraceFingerprint.
	ContentHash() [sha256.Size]byte
	// LocName renders a location for reports ("L%d" fallback included).
	LocName(l trace.Loc) string
	// Event returns event i by random access (chunk-cached for files).
	Event(i int) (trace.Event, error)
	// Windows streams the race.EachWindow windowing: f is called once
	// per window with the window's trace (whole-trace link indices
	// rebased to the window, carried initial values applied), its index,
	// and the whole-trace index of its first event. A non-nil error from
	// f stops the iteration and is returned verbatim.
	Windows(size int, f func(w *trace.Trace, widx, offset int) error) error
	// ReadAll materialises the full trace (baseline algorithms only).
	ReadAll() (*trace.Trace, error)
}

// run is the one code path behind Run, DetectContext and MergeJournal. The
// trace source is opt.TraceReader or, when that is nil, tr in an
// in-memory reader. MaximalCF streams the source's windows through one
// core.Runner: an in-memory run carries signature verdicts across
// windows, a reader run analyses each window Isolated, so any window
// assignment — fleet workers, a merge — yields the same outcomes. The
// baselines analyse the materialised trace. Every report is rendered
// through the source. merged marks MergeJournal, whose report is the
// authoritative run: the per-race Replayed flag (how the merge obtained
// each window) is cleared, so the merged report is identical to a clean
// single-process reader run's.
func run(ctx context.Context, tr *trace.Trace, opt Options, merged bool) (Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.normalise()
	inMemory := opt.TraceReader == nil
	det := baseline(opt)
	rd := opt.TraceReader
	switch {
	case rd == nil:
		rd = tracev2.FromTrace(tr)
	case det != nil:
		// Baselines hold whole-trace vector-clock state; stream-windowing
		// them buys nothing, so they analyse the materialised trace.
		var err error
		if tr, err = rd.ReadAll(); err != nil {
			return Report{}, err
		}
		rd = tracev2.FromTrace(tr)
	}
	col := opt.col
	if col == nil {
		col = newCollector(opt)
	}
	opt.col = col
	if at, ok := rd.(interface{ AttachTelemetry(*telemetry.Collector) }); ok {
		at.AttachTelemetry(col)
	}
	if opt.DebugAddr != "" {
		srv, err := startIntrospection(locOfReader(rd), &opt)
		if err != nil {
			return Report{}, err
		}
		defer srv.Close()
	}
	finish := func() error { return nil }
	if opt.Journal != "" {
		fp := journal.Fingerprint{
			Trace:   rd.ContentHash(),
			Options: journal.OptionsFingerprint(opt.fingerprintString()),
		}
		var err error
		if finish, err = attachJournalWriter(&opt, fp, col); err != nil {
			return Report{}, err
		}
	}
	// The run span is the root of every span the detectors open (windows,
	// phases, workers, journal fsyncs): its duration is the report's
	// elapsed time, and its own time is the phases' other_ns.
	runSpan := col.BeginRun()
	var res race.Result
	var err error
	if det != nil {
		res = det.DetectContext(ctx, tr)
	} else {
		res, err = detectMaximal(ctx, rd, opt, inMemory)
		if merged {
			for i := range res.Races {
				res.Races[i].Prov.Replayed = false
			}
		}
	}
	if jerr := finish(); err == nil {
		err = jerr
	}
	if err != nil {
		return Report{}, err
	}
	scan := col.Begin(telemetry.PhaseTraceScan, "trace scan", telemetry.RunLane(), nil)
	stats := rd.Stats()
	scan.End()
	res.Elapsed = runSpan.End()
	return render(rd, stats, res, opt, col)
}

// detectMaximal streams rd's windows through one core.Runner, Carried
// for an in-memory run (which also reports every window of the trace,
// analysed or not) and Isolated otherwise.
func detectMaximal(ctx context.Context, rd TraceReader, opt Options, inMemory bool) (race.Result, error) {
	state := core.Isolated
	if inMemory {
		state = core.Carried
	}
	runner := core.NewRunner(opt.runCoreOptions(opt.col), state)
	err := runner.Run(ctx, func(f func(w *trace.Trace, widx, offset int) error) error {
		return rd.Windows(opt.WindowSize, f)
	})
	res := runner.Result()
	if inMemory {
		res.Windows = race.WindowCount(rd.NumEvents(), opt.WindowSize)
	}
	return res, err
}

// locOfReader adapts a TraceReader to the event-index → location
// accessor startIntrospection renders race views through.
func locOfReader(rd TraceReader) func(int) string {
	return func(i int) string {
		e, err := rd.Event(i)
		if err != nil {
			return "?"
		}
		return rd.LocName(e.Loc)
	}
}

// render builds the report of a result through the trace source's
// random-access path: race locations and descriptions through
// Event/LocName (byte-identical to race.Describe over the materialised
// trace), so a report reads the same whatever the source.
func render(rd TraceReader, stats trace.Stats, res race.Result, opt Options, col *telemetry.Collector) (Report, error) {
	rep := Report{
		Algorithm:       opt.Algorithm,
		Stats:           stats,
		PairsChecked:    res.COPsChecked,
		Windows:         res.Windows,
		SolverTimeouts:  res.SolverAborts,
		Elapsed:         res.Elapsed,
		Interrupted:     res.Cancelled,
		BudgetExhausted: res.BudgetExhausted,
		Build:           BuildInfo(),
	}
	if opt.Telemetry {
		// The collector may exist solely for DebugAddr/Spans; the report
		// carries a snapshot only when telemetry was asked for.
		rep.Telemetry = col.Snapshot()
	}
	for _, f := range res.Failures {
		rep.WindowFailures = append(rep.WindowFailures, WindowFailure(f))
	}
	for _, r := range res.Races {
		evA, err := rd.Event(r.A)
		if err != nil {
			return Report{}, fmt.Errorf("rvpredict: rendering race event %d: %w", r.A, err)
		}
		evB, err := rd.Event(r.B)
		if err != nil {
			return Report{}, fmt.Errorf("rvpredict: rendering race event %d: %w", r.B, err)
		}
		locA, locB := rd.LocName(evA.Loc), rd.LocName(evB.Loc)
		rep.Races = append(rep.Races, Race{
			First:       r.A,
			Second:      r.B,
			Locations:   [2]string{locA, locB},
			Description: fmt.Sprintf("race(%s, %s) between %v and %v", locA, locB, evA, evB),
			Witness:     r.Witness,
			Provenance:  publicProvenance(r, opt),
		})
	}
	return rep, nil
}

// MergeJournal renders the final report of a fleet run from the
// coordinator's journal of window outcomes, identical to a
// single-process reader run over the same trace and options.
// Options.TraceReader must be set: the merge re-derives the fingerprint
// from it, verifies the journal against that fingerprint, and renders
// the report through it. Journal and Resume are ignored — the merge
// only reads the journal. Windows missing from it (leases the fleet
// never finished) are analysed in-process, so the report is always
// complete; each adopted outcome counts as a replayed window.
func MergeJournal(ctx context.Context, opt Options, journalPath string) (Report, error) {
	if opt.TraceReader == nil {
		return Report{}, &OptionsError{Field: "TraceReader", Reason: "MergeJournal renders and fingerprints through the trace reader; set it"}
	}
	opt.Journal, opt.Resume = "", false
	if err := opt.Validate(); err != nil {
		return Report{}, err
	}
	col := opt.col
	if col == nil {
		col = newCollector(opt)
	}
	opt.col = col
	fp := journal.Fingerprint{
		Trace:   opt.TraceReader.ContentHash(),
		Options: journal.OptionsFingerprint(opt.fingerprintString()),
	}
	info, err := journal.Recover(journalPath, fp)
	if err != nil {
		return Report{}, err
	}
	if info.TornTail {
		col.Add(telemetry.JournalTornTails, 1)
	}
	opt.resumeWindows = outcomesByWindow(info.Outcomes)
	return run(ctx, nil, opt, true)
}
