package stream_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/capture"
	"repro/internal/faultinject"
	"repro/internal/fixtures"
	"repro/internal/race"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/rvpredict"
	"repro/trace"
)

// richTrace builds a multi-window trace exercising every metadata and
// cross-window mechanism the session layer replicates: declared
// initials, volatiles, named locations, carried last-write state across
// window boundaries, lock-protected non-races, and wait/notify links —
// some confined to one window, some spanning a boundary (dropped by the
// batch windower, and so by the stream too).
func richTrace() *trace.Trace {
	b := trace.NewBuilder()
	b.Initial(40, 7)
	b.Volatile(41)
	lk := trace.Addr(1)
	sig := trace.Addr(2)
	for i := 0; i < 6; i++ {
		l := trace.Loc(100 * (i + 1))
		x := trace.Addr(10 + 8*i)
		y := x + 1
		z := x + 2
		b.AtNamed(l+1, fmt.Sprintf("block%d.go:1", i)).Write(1, x, 1)
		b.At(l+2).ReadV(2, x, 1)
		b.At(l+3).Write(1, y, 2)
		b.At(l+4).Write(2, y, 2)
		// The declared-initial address is read racily: window 0 sees the
		// declared value, later windows the carried write below.
		b.At(l+5).Read(2, 40)
		b.At(l+6).Write(1, 40, int64(i))
		// Lock-protected pair: quick-check filtered, not a race.
		b.At(0).Acquire(1, lk)
		b.At(l+7).Write(1, z, 1)
		b.At(0).Release(1, lk)
		b.At(0).Acquire(2, lk)
		b.At(l+8).ReadV(2, z, 1)
		b.At(0).Release(2, lk)
		// An in-window wait/notify link.
		b.Wait(2, sig, func(b *trace.Builder) int {
			n := b.Mark()
			b.At(l+9).Write(1, 41, int64(i))
			return n
		})
		b.At(l + 10).Branch(1)
		b.At(l + 11).Branch(2)
	}
	return b.Trace()
}

// smallTrace is two racy pairs in eight events — smaller than any window
// size used by the tests.
func smallTrace() *trace.Trace {
	b := trace.NewBuilder()
	b.At(11).Write(1, 5, 1)
	b.At(12).ReadV(2, 5, 1)
	b.At(13).Write(1, 6, 2)
	b.At(14).Write(2, 6, 2)
	b.At(15).Branch(1)
	b.At(16).Branch(2)
	b.At(15).Branch(1)
	b.At(16).Branch(2)
	return b.Trace()
}

func startDaemon(t *testing.T, opt stream.Options) (*stream.Daemon, string) {
	t.Helper()
	if opt.StateDir == "" {
		opt.StateDir = t.TempDir()
	}
	if opt.Detect.SolveTimeout == 0 {
		opt.Detect.SolveTimeout = 30 * time.Second
	}
	d, err := stream.New(opt)
	if err != nil {
		t.Fatalf("stream.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { d.Close() })
	return d, ln.Addr().String()
}

func streamed(t *testing.T, addr, token string, tr *trace.Trace, batch int) *rvpredict.Report {
	t.Helper()
	rep, err := capture.StreamTrace(context.Background(), tr, capture.StreamOptions{
		Addr:        addr,
		Token:       token,
		BatchEvents: batch,
		BackoffMin:  5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		MaxAttempts: 20,
	})
	if err != nil {
		t.Fatalf("StreamTrace: %v", err)
	}
	return rep
}

func batchReport(t *testing.T, tr *trace.Trace, opt rvpredict.Options) *rvpredict.Report {
	t.Helper()
	rep, err := rvpredict.Run(context.Background(), tr, opt)
	if err != nil {
		t.Fatalf("batch Run: %v", err)
	}
	return &rep
}

// normalize strips the fields that legitimately differ between a batch
// run and a streamed one: wall-clock timing and the replay flag (replays
// only exist after an interruption; the comparison tests count them
// separately first).
func normalize(rep *rvpredict.Report) *rvpredict.Report {
	rep.Elapsed = 0
	for i := range rep.Races {
		rep.Races[i].Provenance.Replayed = false
	}
	return rep
}

// TestStreamMatchesBatch is the tentpole equivalence claim: for a matrix
// of traces, window sizes and client batch sizes, the streaming daemon's
// report is bit-identical to batch detection (timing aside).
func TestStreamMatchesBatch(t *testing.T) {
	traces := map[string]*trace.Trace{
		"rich":  richTrace(),
		"small": smallTrace(),
		"empty": trace.New(0),
		// The same location pairs race in every window: the session and
		// the batch run carry signature verdicts alike.
		"recurring": fixtures.RecurringRaces(4),
	}
	for _, window := range []int{-1, 8, 24} {
		for name, tr := range traces {
			for _, batch := range []int{1, 3, 4096} {
				t.Run(fmt.Sprintf("%s/window=%d/batch=%d", name, window, batch), func(t *testing.T) {
					opt := rvpredict.Options{
						WindowSize: window,
						Witness:    true,
					}
					_, addr := startDaemon(t, stream.Options{
						StateDir: t.TempDir(),
						Detect:   opt,
					})
					got := normalize(streamed(t, addr, "tok", tr, batch))
					want := normalize(batchReport(t, tr, opt))
					if !reflect.DeepEqual(got, want) {
						t.Errorf("stream report differs from batch:\n got %+v\nwant %+v", got, want)
					}
					if got.DegradedWindows != 0 {
						t.Errorf("degraded windows = %d with no pressure", got.DegradedWindows)
					}
				})
			}
		}
	}
}

// TestStreamParallelMatchesSequential: a daemon whose Detect options set
// Parallelism 2 solves the pairs of each session window on two workers.
// Its report — races, witnesses, counters — and its candidate funnel and
// outcome counters must equal a sequential daemon's, over many windows
// and over one. Only the solver sizes and the worker counts may differ.
func TestStreamParallelMatchesSequential(t *testing.T) {
	if old := runtime.GOMAXPROCS(0); old < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
	tr := richTrace()
	for _, window := range []int{24, -1} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			run := func(par int) (*rvpredict.Report, *telemetry.Metrics) {
				col := telemetry.NewCollector()
				opt := rvpredict.Options{WindowSize: window, Witness: true, Parallelism: par}
				_, addr := startDaemon(t, stream.Options{StateDir: t.TempDir(), Detect: opt, Collector: col})
				return normalize(streamed(t, addr, "tok", tr, 5)), col.Snapshot()
			}
			want, wantM := run(0)
			got, gotM := run(2)
			if len(want.Races) == 0 {
				t.Fatal("fixture found no races; the comparison is vacuous")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Parallelism 2 report differs from the sequential one:\n got %+v\nwant %+v", got, want)
			}
			if gotM.Outcomes != wantM.Outcomes || gotM.Triage.Dispatched != wantM.Triage.Dispatched ||
				gotM.PairSched.Groups != wantM.PairSched.Groups || gotM.PairSched.SigSkips != wantM.PairSched.SigSkips {
				t.Errorf("Parallelism 2 funnel differs:\n got %+v %+v\nwant %+v %+v",
					gotM.Outcomes, gotM.PairSched, wantM.Outcomes, wantM.PairSched)
			}
			if gotM.PairSched.Replicas == 0 {
				t.Error("Parallelism 2 built no replica: no window had a second pair worker")
			}
		})
	}
}

// TestStreamTriageRungsMatchBatch is the streaming leg of the triage
// identity matrix, over richTrace ("default") and one fixture per
// provenance tier: races no rung proves ("notriage"), and races the shb
// and syncp rungs prove. With and without witnesses the daemon's report
// must be bit-identical to a batch run's, and the two must agree on which
// pairs race and on every race's tier — the witness request sends the
// ladder-proved pairs to the solver instead of the fast path, and neither
// streaming nor the solver may change a verdict or its provenance.
func TestStreamTriageRungsMatchBatch(t *testing.T) {
	cases := []struct {
		name, tier string // tier "" puts no constraint on the races' tiers
		tr         *trace.Trace
	}{
		{"default", "", richTrace()},
		{"notriage", "smt", fixtures.TierRaces("smt", 6)},
		{"shb", "shb", fixtures.TierRaces("shb", 6)},
		{"syncp", "syncp", fixtures.TierRaces("syncp", 6)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var surfaces [2]map[string]bool
			for i, witness := range []bool{false, true} {
				opt := rvpredict.Options{WindowSize: 24, Witness: witness}
				_, addr := startDaemon(t, stream.Options{
					StateDir: t.TempDir(),
					Detect:   opt,
				})
				got := normalize(streamed(t, addr, "tok", c.tr, 3))
				want := normalize(batchReport(t, c.tr, opt))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("witness=%v: stream report differs from batch:\n got %+v\nwant %+v", witness, got, want)
				}
				if len(got.Races) == 0 {
					t.Fatal("fixture found no races; the comparison is vacuous")
				}
				surfaces[i] = make(map[string]bool, len(got.Races))
				for _, r := range got.Races {
					if c.tier != "" && r.Provenance.Tier != c.tier {
						t.Errorf("race %d,%d has tier %q, want %q", r.First, r.Second, r.Provenance.Tier, c.tier)
					}
					surfaces[i][fmt.Sprintf("%d/%d/%s/%s", r.First, r.Second, r.Description, r.Provenance.Tier)] = true
				}
			}
			if !reflect.DeepEqual(surfaces[0], surfaces[1]) {
				t.Errorf("verdicts differ with a witness request: %v vs %v", surfaces[1], surfaces[0])
			}
		})
	}
}

// TestStreamTriageCountersMatchBatch: the daemon derives its detector
// options through the same mapping as a batch run, so its sessions run
// the same triage ladder. level names how far up the ladder the fixture's
// races need to go: "shb", or "" for the whole ladder (syncp). The
// daemon's triage counters must equal a batch run's, and only the syncp
// fixture may exercise the syncp rung.
func TestStreamTriageCountersMatchBatch(t *testing.T) {
	for _, level := range []string{"", "shb"} {
		t.Run("level="+level, func(t *testing.T) {
			tier := level
			if tier == "" {
				tier = "syncp"
			}
			tr := fixtures.TierRaces(tier, 6)
			opt := rvpredict.Options{WindowSize: 24, Witness: true}
			col := telemetry.NewCollector()
			_, addr := startDaemon(t, stream.Options{StateDir: t.TempDir(), Detect: opt, Collector: col})
			streamed(t, addr, "tok", tr, 3)
			got := col.Snapshot().Triage

			opt.Telemetry = true
			want := batchReport(t, tr, opt).Telemetry.Triage
			if got.Confirmed != want.Confirmed || got.SyncPConfirmed != want.SyncPConfirmed ||
				got.Dispatched != want.Dispatched {
				t.Errorf("daemon triage counters %+v, batch %+v", got, want)
			}
			if (tier == "shb") != (want.SyncPConfirmed == 0) {
				t.Errorf("batch syncp_confirmed = %d on the %s fixture; only the syncp fixture may exercise the syncp rung",
					want.SyncPConfirmed, tier)
			}
		})
	}
}

// TestStreamExactWindowMultiple pins the boundary case: a trace whose
// length is an exact multiple of the window size must produce exactly
// len/size windows — no trailing empty window — in both modes.
func TestStreamExactWindowMultiple(t *testing.T) {
	tr := richTrace()
	window := tr.Len() / 2
	if tr.Len()%2 != 0 {
		t.Fatalf("fixture length %d is odd", tr.Len())
	}
	opt := rvpredict.Options{WindowSize: window}
	_, addr := startDaemon(t, stream.Options{StateDir: t.TempDir(), Detect: opt})
	got := normalize(streamed(t, addr, "tok", tr, 7))
	want := normalize(batchReport(t, tr, opt))
	if got.Windows != 2 || !reflect.DeepEqual(got, want) {
		t.Errorf("windows = %d, report equal = %t (want 2, true)",
			got.Windows, reflect.DeepEqual(got, want))
	}
}

// TestStreamDisconnectReconnect injects a mid-stream disconnect and a
// stall: the client must reconnect, resume from the daemon's durable
// event count, and still produce the batch-identical report. This is the
// acceptance path "streaming with one injected disconnect+reconnect is
// bit-identical to batch".
func TestStreamDisconnectReconnect(t *testing.T) {
	tr := richTrace()
	opt := rvpredict.Options{WindowSize: 24, Witness: true}
	inj := faultinject.New()
	// Frame reads cross stream_stall and stream_disconnect once each per
	// frame; drop the connection at the 6th frame, then stall-suspend at
	// the 20th (counts continue across reconnects).
	inj.Script(faultinject.PointStreamDisconnect, 5, faultinject.FaultTimeout)
	inj.Script(faultinject.PointStreamStall, 19, faultinject.FaultTimeout)
	_, addr := startDaemon(t, stream.Options{
		StateDir:      t.TempDir(),
		Detect:        opt,
		FaultInjector: inj,
	})

	retries := 0
	rep, err := capture.StreamTrace(context.Background(), tr, capture.StreamOptions{
		Addr:        addr,
		Token:       "resume-me",
		BatchEvents: 4, // many frames, so the faults land mid-stream
		BackoffMin:  time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		MaxAttempts: 30,
		OnRetry:     func(int, error) { retries++ },
	})
	if err != nil {
		t.Fatalf("StreamTrace: %v", err)
	}
	if retries == 0 {
		t.Fatal("no reconnect happened; the fault script did not fire")
	}
	var replayed int
	for _, r := range rep.Races {
		if r.Provenance.Replayed {
			replayed++
		}
	}
	t.Logf("reconnects: %d, replayed races: %d", retries, replayed)
	want := normalize(batchReport(t, tr, opt))
	if !reflect.DeepEqual(normalize(rep), want) {
		t.Errorf("resumed stream differs from batch:\n got %+v\nwant %+v", rep, want)
	}
}

// TestCompletedSessionReportIsDurable: a client that reconnects with the
// token of a finished session gets the stored report back, even though
// the stream is long gone.
func TestCompletedSessionReportIsDurable(t *testing.T) {
	tr := smallTrace()
	opt := rvpredict.Options{WindowSize: 8}
	_, addr := startDaemon(t, stream.Options{StateDir: t.TempDir(), Detect: opt})
	first := normalize(streamed(t, addr, "tok", tr, 0))
	again := normalize(streamed(t, addr, "tok", tr, 0))
	if !reflect.DeepEqual(first, again) {
		t.Errorf("stored report differs:\n got %+v\nwant %+v", again, first)
	}
}

// TestDegradationSoundness saturates the solver queue by fault script so
// every window runs degraded, then checks the degradation contract:
// every reported race is sound-tier confirmed and provenance-flagged,
// and the degraded race set is a subset of the batch (full-SMT) set —
// degradation sheds findings, it never invents them.
func TestDegradationSoundness(t *testing.T) {
	tr := richTrace()
	opt := rvpredict.Options{WindowSize: 24}
	inj := faultinject.New()
	for i := 0; i < 64; i++ {
		inj.Script(faultinject.PointQueueSaturate, i, faultinject.FaultTimeout)
	}
	d, addr := startDaemon(t, stream.Options{
		StateDir:      t.TempDir(),
		Detect:        opt,
		FaultInjector: inj,
	})
	rep := streamed(t, addr, "tok", tr, 0)
	if rep.DegradedWindows == 0 || rep.DegradedWindows != rep.Windows {
		t.Fatalf("degraded %d of %d windows, want all", rep.DegradedWindows, rep.Windows)
	}
	if got := d.Collector().Load(telemetry.DegradedWindows); int(got) != rep.DegradedWindows {
		t.Errorf("collector degraded gauge = %d, want %d", got, rep.DegradedWindows)
	}
	if len(rep.Races) == 0 {
		t.Fatal("degraded run found nothing; fixture must have triage-confirmable races")
	}

	batch := batchReport(t, tr, opt)
	inBatch := make(map[string]bool, len(batch.Races))
	for _, r := range batch.Races {
		inBatch[fmt.Sprintf("%d/%d/%s", r.First, r.Second, r.Description)] = true
	}
	for _, r := range rep.Races {
		if !r.Provenance.Degraded {
			t.Errorf("race %d,%d lacks the Degraded provenance flag", r.First, r.Second)
		}
		if tier := r.Provenance.Tier; tier != race.TierSHB && tier != race.TierSyncP {
			t.Errorf("race %d,%d confirmed by tier %q under degradation, want a sound non-SMT tier",
				r.First, r.Second, tier)
		}
		if !inBatch[fmt.Sprintf("%d/%d/%s", r.First, r.Second, r.Description)] {
			t.Errorf("degraded run reported race %d,%d %q that full analysis does not",
				r.First, r.Second, r.Description)
		}
	}
	if len(rep.Races) > len(batch.Races) {
		t.Errorf("degraded run reports %d races, batch %d — degradation may only shed", len(rep.Races), len(batch.Races))
	}
}

// TestAdmissionControl covers the typed rejects: session limit, busy
// token, and draining.
func TestAdmissionControl(t *testing.T) {
	opt := rvpredict.Options{WindowSize: 8}
	d, addr := startDaemon(t, stream.Options{
		StateDir:    t.TempDir(),
		Detect:      opt,
		MaxSessions: 1,
	})

	dial := func() *stream.Client {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return stream.NewClient(conn)
	}
	expectReject := func(cl *stream.Client, token string, code byte) {
		t.Helper()
		_, err := cl.Handshake(token)
		var rej *stream.RejectError
		if !errors.As(err, &rej) || rej.Code != code {
			t.Fatalf("Handshake(%q) = %v, want reject code %d", token, err, code)
		}
	}

	first := dial()
	if _, err := first.Handshake("holder"); err != nil {
		t.Fatalf("first Handshake: %v", err)
	}
	expectReject(dial(), "holder", stream.RejectBusyToken)
	expectReject(dial(), "other", stream.RejectSessionLimit)
	if got := d.Collector().Load(telemetry.SessionsRejected); got != 2 {
		t.Errorf("sessions_rejected = %d, want 2", got)
	}
	if got := d.Collector().SessionsActive(); got != 1 {
		t.Errorf("sessions_active = %d, want 1", got)
	}
	if !d.Ready() {
		t.Error("daemon not ready before drain")
	}

	// Drain: the holder suspends, new sessions are refused, readiness
	// flips.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if d.Ready() {
		t.Error("daemon still ready after drain")
	}
	if got := d.Collector().SessionsActive(); got != 0 {
		t.Errorf("sessions_active after drain = %d, want 0", got)
	}
}

// TestConcurrentAdmissionAtomic: the admission check and the token
// reservation are one atomic step, so connections racing on the same
// token admit exactly one winner, and distinct tokens racing a
// MaxSessions bound admit exactly MaxSessions. (Regression: check and
// registration were once separate critical sections, letting two
// same-token connections both open the session's durable state.)
func TestConcurrentAdmissionAtomic(t *testing.T) {
	opt := rvpredict.Options{WindowSize: 8}
	admitRace := func(addr string, tokens []string) int32 {
		t.Helper()
		var admitted int32
		var wg sync.WaitGroup
		start := make(chan struct{})
		for _, tok := range tokens {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { conn.Close() })
			wg.Add(1)
			go func(tok string, conn net.Conn) {
				defer wg.Done()
				<-start
				if _, err := stream.NewClient(conn).Handshake(tok); err == nil {
					atomic.AddInt32(&admitted, 1)
				} else {
					var rej *stream.RejectError
					if !errors.As(err, &rej) {
						t.Errorf("Handshake(%q): %v, want a typed reject", tok, err)
					}
				}
			}(tok, conn)
		}
		close(start)
		wg.Wait()
		return admitted
	}

	_, addr1 := startDaemon(t, stream.Options{StateDir: t.TempDir(), Detect: opt, MaxSessions: 8})
	same := []string{"same", "same", "same", "same", "same", "same", "same", "same"}
	if got := admitRace(addr1, same); got != 1 {
		t.Errorf("same-token race admitted %d sessions, want exactly 1", got)
	}

	_, addr2 := startDaemon(t, stream.Options{StateDir: t.TempDir(), Detect: opt, MaxSessions: 2})
	distinct := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	if got := admitRace(addr2, distinct); got != 2 {
		t.Errorf("distinct-token race admitted %d sessions, want exactly MaxSessions (2)", got)
	}
}

// TestSuspendedSessionResumesAfterDrain: drain suspends an in-progress
// session mid-stream; a fresh daemon over the same state dir picks it up
// where it stopped and the final report matches batch.
func TestSuspendedSessionResumesAfterDrain(t *testing.T) {
	tr := richTrace()
	opt := rvpredict.Options{WindowSize: 24, Witness: true}
	state := t.TempDir()
	d1, addr1 := startDaemon(t, stream.Options{StateDir: state, Detect: opt})

	// Stream the first half by hand, then suspend via drain.
	conn, err := net.Dial("tcp", addr1)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cl := stream.NewClient(conn)
	wel, err := cl.Handshake("tok")
	if err != nil || wel.ResumeEvents != 0 {
		t.Fatalf("Handshake = %+v, %v", wel, err)
	}
	// A prefix slice is exactly what a client that stopped at event n has
	// effectively sent: shared metadata, events below n, links inside.
	half := tr.Slice(0, tr.Len()/2)
	if err := cl.SendTrace(half, 0, 5); err != nil {
		t.Fatalf("SendTrace(half): %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d1.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	_, addr2 := startDaemon(t, stream.Options{StateDir: state, Detect: opt})
	rep := normalize(streamed(t, addr2, "tok", tr, 5))
	want := normalize(batchReport(t, tr, opt))
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("resumed-after-drain report differs from batch:\n got %+v\nwant %+v", rep, want)
	}
}

// TestPanicIsolation: a panic inside one session's analysis must not
// take the daemon down — the other session completes normally.
func TestPanicIsolation(t *testing.T) {
	tr := smallTrace()
	opt := rvpredict.Options{WindowSize: 8}
	inj := faultinject.New()
	// Panic at the first window crossing of the first session.
	inj.Script(faultinject.PointWindow, 0, faultinject.FaultPanic)
	d, addr := startDaemon(t, stream.Options{
		StateDir:      t.TempDir(),
		Detect:        opt,
		FaultInjector: inj,
	})
	// The panicking window is isolated per-window by the core runner (a
	// window failure), not by the connection guard; either way the
	// daemon must survive and keep serving.
	rep1, err := capture.StreamTrace(context.Background(), tr, capture.StreamOptions{
		Addr: addr, Token: "a", BackoffMin: time.Millisecond, MaxAttempts: 3,
	})
	if err == nil && len(rep1.WindowFailures) == 0 {
		t.Errorf("first session reports no window failure despite the scripted panic")
	}
	rep2 := streamed(t, addr, "b", tr, 0)
	if len(rep2.WindowFailures) != 0 || len(rep2.Races) == 0 {
		t.Errorf("second session affected by first session's panic: %+v", rep2)
	}
	if !d.Ready() {
		t.Error("daemon not ready after an isolated panic")
	}
}
