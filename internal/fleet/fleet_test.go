package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/retry"
	"repro/internal/telemetry"
	"repro/internal/tracev2"
	"repro/rvpredict"
	"repro/trace"
)

// fleetFixture builds a trace with enough windows (at WindowSize 8) for
// a multi-shard fleet to give every shard real work — the same racy
// block shape rvpredict's shard tests use.
func fleetFixture() *trace.Trace {
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

// writeFixtureFile writes the fixture in the chunked format and returns
// its path; every party (coordinator, each worker, the baseline run)
// opens its own reader over it, as separate processes would.
func writeFixtureFile(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.rvc2")
	var buf bytes.Buffer
	if err := tracev2.WriteTrace(&buf, tr, 16); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func openReader(t *testing.T, path string) *tracev2.Reader {
	t.Helper()
	r, err := tracev2.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func fleetOpts() rvpredict.Options {
	return rvpredict.Options{WindowSize: 8, Witness: true}
}

// normalise renders a report as JSON with the operational fields that
// legitimately differ between equivalent runs removed — the remainder
// must be byte-identical.
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

// baseline runs the single-process reader analysis the fleet must
// reproduce byte-for-byte.
func baseline(t *testing.T, path string) string {
	t.Helper()
	opt := fleetOpts()
	opt.TraceReader = openReader(t, path)
	rep, err := rvpredict.Run(nil, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Races) == 0 {
		t.Fatal("fixture found no races")
	}
	return normalise(t, rep)
}

// testWorkerRetry is a fast reconnect schedule for in-process chaos.
func testWorkerRetry() retry.Policy {
	return retry.Policy{Min: time.Millisecond, Max: 20 * time.Millisecond, MaxAttempts: 200}
}

// startWorker launches one in-process worker and returns a channel
// carrying its exit error.
func startWorker(t *testing.T, addr, path, name string, inj *faultinject.Injector, hold func(int)) <-chan error {
	return startWorkerCtx(t, nil, addr, path, name, inj, hold)
}

func startWorkerCtx(t *testing.T, ctx context.Context, addr, path, name string, inj *faultinject.Injector, hold func(int)) <-chan error {
	t.Helper()
	opt := fleetOpts()
	opt.TraceReader = openReader(t, path)
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerOptions{
			Addr:           addr,
			Detect:         opt,
			Name:           name,
			Retry:          testWorkerRetry(),
			FaultInjector:  inj,
			Logf:           t.Logf,
			testHoldWindow: hold,
		})
	}()
	return done
}

// TestFleetCleanIdentity: a fault-free 3-worker fleet reproduces the
// single-process report byte-for-byte, and the lease ledger balances.
func TestFleetCleanIdentity(t *testing.T) {
	tr := fleetFixture()
	path := writeFixtureFile(t, tr)
	want := baseline(t, path)

	copt := fleetOpts()
	copt.TraceReader = openReader(t, path)
	coord, err := NewCoordinator(CoordinatorOptions{
		Detect:   copt,
		Journal:  filepath.Join(t.TempDir(), "coord.journal"),
		Shards:   3,
		LeaseTTL: 2 * time.Second,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var workers []<-chan error
	for _, name := range []string{"w0", "w1", "w2"} {
		workers = append(workers, startWorker(t, addr, path, name, nil, nil))
	}
	rep, err := coord.Run(nil, ln)
	if err != nil {
		t.Fatal(err)
	}
	for i, done := range workers {
		if werr := <-done; werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	if got := normalise(t, rep); got != want {
		t.Errorf("fleet report differs from single-process run:\nfleet:  %s\nsingle: %s", got, want)
	}
	col := coord.Collector()
	if col.Load(telemetry.LeasesGranted) == 0 {
		t.Error("no leases granted")
	}
	if col.Load(telemetry.SpeculativeWins) != 0 || col.Load(telemetry.LeasesExpired) != 0 {
		t.Errorf("clean run counted chaos: speculative=%d expired=%d",
			col.Load(telemetry.SpeculativeWins), col.Load(telemetry.LeasesExpired))
	}
}

// TestFleetChaosIdentity is the anchor invariant: with all four fault
// points injected — a worker crash mid-shard, suppressed heartbeats, a
// corrupted result, and a coordinator crash after an fsynced append —
// the fleet-merged report is byte-identical to the single-process run
// over the same chunked trace.
func TestFleetChaosIdentity(t *testing.T) {
	tr := fleetFixture()
	path := writeFixtureFile(t, tr)
	want := baseline(t, path)
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "coord.journal")

	newCoord := func(inj *faultinject.Injector) *Coordinator {
		copt := fleetOpts()
		copt.TraceReader = openReader(t, path)
		coord, err := NewCoordinator(CoordinatorOptions{
			Detect:         copt,
			Journal:        journalPath,
			Shards:         3,
			LeaseTTL:       150 * time.Millisecond,
			SpeculateAfter: 100 * time.Millisecond,
			Backoff:        retry.Policy{Min: time.Millisecond, Max: 10 * time.Millisecond},
			FaultInjector:  inj,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return coord
	}

	// Coordinator #1 crashes (in-process: aborts) on its third accepted
	// result — after the append was fsynced, before the ack.
	coordInj := faultinject.New().Script(faultinject.PointCoordCrash, 2, faultinject.FaultPanic)
	coord1 := newCoord(coordInj)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	// Worker 0 crashes mid-shard on its second outcome; worker 1 has
	// every heartbeat suppressed (stalled lease); worker 2 corrupts its
	// first result after the CRC was computed.
	injs := []*faultinject.Injector{
		faultinject.New().Script(faultinject.PointWorkerCrash, 1, faultinject.FaultPanic),
		faultinject.New(),
		faultinject.New().Script(faultinject.PointResultCorrupt, 0, faultinject.FaultPanic),
	}
	for hit := 0; hit < 64; hit++ {
		injs[1].Script(faultinject.PointLeaseStall, hit, faultinject.FaultTimeout)
	}
	var workers []<-chan error
	for i, inj := range injs {
		workers = append(workers, startWorker(t, addr, path, []string{"w0", "w1", "w2"}[i], inj, nil))
	}

	_, err = coord1.Run(nil, ln)
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("coordinator #1: err = %v, want ErrInjectedCrash", err)
	}

	// Coordinator #2 resumes from the same journal on the same address
	// (the workers are still retrying against it).
	coord2 := newCoord(nil)
	var ln2 net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("relisten on %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep, err := coord2.Run(nil, ln2)
	if err != nil {
		t.Fatal(err)
	}
	for i, done := range workers {
		// A worker may miss the shutdown handshake under chaos (it was
		// reconnecting as the coordinator exited) and exhaust its dials
		// against a gone coordinator; that is not a failure.
		werr := <-done
		var ex *retry.ExhaustedError
		if werr != nil && !errors.As(werr, &ex) {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	if got := normalise(t, rep); got != want {
		t.Errorf("chaos fleet report differs from single-process run:\nfleet:  %s\nsingle: %s", got, want)
	}
}

// TestFleetResumedCoordinatorWaitsForWorkers: a coordinator restarted
// over a journal that already holds every window must not finish before
// the crashed coordinator's workers are back from their reconnect
// backoff, or they exhaust their dials against a closed port. The
// worker here reconnects 300ms into the resumed run and gives up after
// three refused dials; it must drain through the shutdown handshake.
// A fresh-journal run still finishes as soon as its workers have
// drained, without waiting out ShutdownLinger.
func TestFleetResumedCoordinatorWaitsForWorkers(t *testing.T) {
	tr := fleetFixture()
	path := writeFixtureFile(t, tr)
	want := baseline(t, path)
	journalPath := filepath.Join(t.TempDir(), "coord.journal")
	run := func(linger time.Duration, worker func(addr string) <-chan error) (rvpredict.Report, time.Duration, error) {
		t.Helper()
		copt := fleetOpts()
		copt.TraceReader = openReader(t, path)
		coord, err := NewCoordinator(CoordinatorOptions{
			Detect:         copt,
			Journal:        journalPath,
			Shards:         2,
			ShutdownLinger: linger,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := worker(ln.Addr().String())
		start := time.Now()
		rep, err := coord.Run(nil, ln)
		elapsed := time.Since(start)
		if rerr := <-done; rerr != nil {
			t.Errorf("worker: %v", rerr)
		}
		return rep, elapsed, err
	}

	// A fresh journal: one worker covers every window.
	rep, elapsed, err := run(time.Minute, func(addr string) <-chan error {
		return startWorker(t, addr, path, "w0", nil, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 30*time.Second {
		t.Errorf("fresh-journal run took %v: it waited out ShutdownLinger", elapsed)
	}
	if got := normalise(t, rep); got != want {
		t.Errorf("fresh fleet report differs from single-process run:\nfleet:  %s\nsingle: %s", got, want)
	}

	// The same journal, now complete: a late worker with few retries.
	rep, _, err = run(2*time.Second, func(addr string) <-chan error {
		opt := fleetOpts()
		opt.TraceReader = openReader(t, path)
		done := make(chan error, 1)
		go func() {
			time.Sleep(300 * time.Millisecond)
			done <- RunWorker(nil, WorkerOptions{
				Addr:   addr,
				Detect: opt,
				Name:   "late",
				Retry:  retry.Policy{Min: 5 * time.Millisecond, Max: 10 * time.Millisecond, MaxAttempts: 3},
				Logf:   t.Logf,
			})
		}()
		return done
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := normalise(t, rep); got != want {
		t.Errorf("resumed fleet report differs from single-process run:\nfleet:  %s\nsingle: %s", got, want)
	}
}

// TestFleetDegradesToLocal: a coordinator whose fleet never shows up
// analyses every window locally and still produces the identical
// report.
func TestFleetDegradesToLocal(t *testing.T) {
	tr := fleetFixture()
	path := writeFixtureFile(t, tr)
	want := baseline(t, path)

	copt := fleetOpts()
	copt.TraceReader = openReader(t, path)
	coord, err := NewCoordinator(CoordinatorOptions{
		Detect:    copt,
		Journal:   filepath.Join(t.TempDir(), "coord.journal"),
		Shards:    2,
		IdleGrace: 50 * time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run(nil, ln)
	if err != nil {
		t.Fatal(err)
	}
	if got := normalise(t, rep); got != want {
		t.Errorf("degraded-local report differs from single-process run:\nlocal:  %s\nsingle: %s", got, want)
	}
	if coord.Collector().Load(telemetry.LeasesGranted) != 0 {
		t.Error("leases granted with no workers")
	}
}

// TestFleetSpeculativeWin: a worker held mid-shard (heartbeating, so
// its lease never expires) is hedged by a speculative duplicate lease,
// and the speculative worker's results win — first valid result per
// window — without disturbing report identity.
func TestFleetSpeculativeWin(t *testing.T) {
	tr := fleetFixture()
	path := writeFixtureFile(t, tr)
	want := baseline(t, path)

	copt := fleetOpts()
	copt.TraceReader = openReader(t, path)
	coord, err := NewCoordinator(CoordinatorOptions{
		Detect:         copt,
		Journal:        filepath.Join(t.TempDir(), "coord.journal"),
		Shards:         1,
		LeaseTTL:       30 * time.Second, // the holder's lease must NOT expire
		SpeculateAfter: 30 * time.Millisecond,
		ShutdownLinger: 200 * time.Millisecond, // the held straggler never drains
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	runCh := make(chan error, 1)
	var rep rvpredict.Report
	go func() {
		var rerr error
		rep, rerr = coord.Run(nil, ln)
		runCh <- rerr
	}()

	// The straggler holds before its first window, forever (until the
	// run is over); the hedge worker — started only once the straggler
	// provably owns the lease — does all the work speculatively.
	held := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	hctx, hcancel := context.WithCancel(context.Background())
	defer hcancel()
	holder := startWorkerCtx(t, hctx, addr, path, "straggler", nil, func(int) {
		once.Do(func() { close(held) })
		<-release
	})
	<-held
	hedge := startWorker(t, addr, path, "hedge", nil, nil)

	if err := <-runCh; err != nil {
		t.Fatal(err)
	}
	close(release)
	hcancel()
	if werr := <-hedge; werr != nil {
		t.Errorf("hedge worker: %v", werr)
	}
	<-holder // exits via the cancelled context once released
	if got := normalise(t, rep); got != want {
		t.Errorf("speculative report differs from single-process run:\nfleet:  %s\nsingle: %s", got, want)
	}
	if coord.Collector().Load(telemetry.SpeculativeWins) == 0 {
		t.Error("no speculative wins counted")
	}
}

// TestFleetLeaseExpiryReassign: a worker that goes silent (suppressed
// heartbeats while held mid-shard) loses its lease to the sweeper; the
// shard is reassigned, after backoff, to a live worker.
func TestFleetLeaseExpiryReassign(t *testing.T) {
	tr := fleetFixture()
	path := writeFixtureFile(t, tr)
	want := baseline(t, path)

	copt := fleetOpts()
	copt.TraceReader = openReader(t, path)
	coord, err := NewCoordinator(CoordinatorOptions{
		Detect:         copt,
		Journal:        filepath.Join(t.TempDir(), "coord.journal"),
		Shards:         1,
		LeaseTTL:       40 * time.Millisecond,
		SpeculateAfter: 30 * time.Second, // expiry path, not speculation
		ShutdownLinger: 200 * time.Millisecond,
		Backoff:        retry.Policy{Min: time.Millisecond, Max: 5 * time.Millisecond},
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	runCh := make(chan error, 1)
	var rep rvpredict.Report
	go func() {
		var rerr error
		rep, rerr = coord.Run(nil, ln)
		runCh <- rerr
	}()

	// The silent worker never heartbeats and holds before its first
	// window; once it provably owns the lease, the live worker starts,
	// the lease expires and the live worker takes over.
	silentInj := faultinject.New()
	for hit := 0; hit < 64; hit++ {
		silentInj.Script(faultinject.PointLeaseStall, hit, faultinject.FaultTimeout)
	}
	held := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	sctx, scancel := context.WithCancel(context.Background())
	defer scancel()
	silent := startWorkerCtx(t, sctx, addr, path, "silent", silentInj, func(int) {
		once.Do(func() { close(held) })
		<-release
	})
	<-held
	live := startWorker(t, addr, path, "live", nil, nil)

	if err := <-runCh; err != nil {
		t.Fatal(err)
	}
	close(release)
	scancel()
	if werr := <-live; werr != nil {
		t.Errorf("live worker: %v", werr)
	}
	<-silent
	if got := normalise(t, rep); got != want {
		t.Errorf("expiry report differs from single-process run:\nfleet:  %s\nsingle: %s", got, want)
	}
	col := coord.Collector()
	if col.Load(telemetry.LeasesExpired) == 0 {
		t.Error("no lease expiry counted")
	}
	if col.Load(telemetry.LeasesReassigned) == 0 {
		t.Error("no lease reassignment counted")
	}
}

// TestFleetFingerprintReject: a worker whose options differ from the
// coordinator's is rejected permanently at the handshake — it must not
// be able to contribute outcomes computed under the wrong options.
func TestFleetFingerprintReject(t *testing.T) {
	tr := fleetFixture()
	path := writeFixtureFile(t, tr)

	copt := fleetOpts()
	copt.TraceReader = openReader(t, path)
	coord, err := NewCoordinator(CoordinatorOptions{
		Detect:    copt,
		Journal:   filepath.Join(t.TempDir(), "coord.journal"),
		Shards:    1,
		IdleGrace: 24 * time.Hour, // the test finishes before any degrade
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cctx, ccancel := context.WithCancel(context.Background())
	coordDone := make(chan struct{})
	go func() {
		defer close(coordDone)
		coord.Run(cctx, ln) //nolint:errcheck
	}()
	t.Cleanup(func() { ccancel(); <-coordDone })

	wopt := fleetOpts()
	wopt.Witness = !wopt.Witness // result-affecting difference
	wopt.TraceReader = openReader(t, path)
	err = RunWorker(nil, WorkerOptions{
		Addr:   ln.Addr().String(),
		Detect: wopt,
		Name:   "misconfigured",
		Retry:  testWorkerRetry(),
	})
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Code != RejectFingerprint {
		t.Fatalf("err = %v, want *RejectError with RejectFingerprint", err)
	}
	if !rej.Permanent() {
		t.Error("fingerprint rejection not permanent")
	}
}
