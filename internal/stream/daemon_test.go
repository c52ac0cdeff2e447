package stream

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
	"repro/internal/tracefile"
	"repro/rvpredict"
	"repro/trace"
)

// TestDegradeAfterTimeout exercises the timer path of graceful
// degradation: the daemon's only solver slot is occupied, so the session
// blocks in ingest until DegradeAfter expires and the window runs
// degraded. White-box: the slot is seized directly, so the pressure is
// deterministic rather than a timing game against a real solver run.
func TestDegradeAfterTimeout(t *testing.T) {
	b := trace.NewBuilder()
	b.At(11).Write(1, 5, 1)
	b.At(12).ReadV(2, 5, 1)
	b.At(13).Write(1, 6, 2)
	b.At(14).Write(2, 6, 2)
	tr := b.Trace()

	d, err := New(Options{
		StateDir:           t.TempDir(),
		Detect:             rvpredict.Options{WindowSize: 8, SolveTimeout: 30 * time.Second},
		MaxInFlightWindows: 1,
		DegradeAfter:       10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { d.Close() })

	d.slots <- struct{}{} // hold the only slot for the whole test

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cl := NewClient(conn)
	if _, err := cl.Handshake("tok"); err != nil {
		t.Fatal(err)
	}
	if err := cl.SendTrace(tr, 0, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := cl.End()
	if err != nil {
		t.Fatal(err)
	}
	if rep.DegradedWindows != 1 {
		t.Fatalf("degraded windows = %d, want 1 (report %+v)", rep.DegradedWindows, rep)
	}
	for _, r := range rep.Races {
		if !r.Provenance.Degraded {
			t.Errorf("race %d,%d not flagged degraded", r.First, r.Second)
		}
	}
	if d.col.Load(telemetry.IngestBackpressureNS) <= 0 {
		t.Error("no ingest backpressure accounted despite the saturated queue")
	}
}

// TestReadyDuringRecovery: /readyz must report not-ready while a
// suspended session's recovery re-analysis is still draining, and
// become ready again once it has. White-box: the testRecoveryHook
// observes Ready() at the exact moment the recovering gauge is held, so
// the assertion is deterministic rather than a race against the replay.
func TestReadyDuringRecovery(t *testing.T) {
	b := trace.NewBuilder()
	b.At(11).Write(1, 5, 1)
	b.At(12).ReadV(2, 5, 1)
	b.At(13).Write(1, 6, 2)
	b.At(14).Write(2, 6, 2)
	tr := b.Trace()
	dir := t.TempDir()
	detect := rvpredict.Options{WindowSize: 8, SolveTimeout: 30 * time.Second}

	// Phase 1: stream the events but inject a stall before End, so the
	// session suspends with a durable ingest log. The stall is scripted
	// at the frame after the metadata plus two single-event batches, so
	// exactly two events are durable when the session suspends.
	vols, inits, names := tracefile.CollectMeta(tr)
	metaFrames := len(vols) + len(inits) + len(names)
	inj := faultinject.New().Script(faultinject.PointStreamStall, metaFrames+2, faultinject.FaultTimeout)
	d1, err := New(Options{StateDir: dir, Detect: detect, FaultInjector: inj})
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d1.Serve(ln1) //nolint:errcheck
	conn1, err := net.Dial("tcp", ln1.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cl1 := NewClient(conn1)
	if _, err := cl1.Handshake("tok"); err != nil {
		t.Fatal(err)
	}
	if err := cl1.SendTrace(tr, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Wait for the scripted stall to fire (the hit after the suspension
	// point), proving the session suspended with its two events durable.
	deadline := time.Now().Add(5 * time.Second)
	for inj.Hits(faultinject.PointStreamStall) <= metaFrames+2 {
		if time.Now().After(deadline) {
			t.Fatalf("stall never fired: %d hits", inj.Hits(faultinject.PointStreamStall))
		}
		time.Sleep(time.Millisecond)
	}
	d1.Close()
	conn1.Close()

	// Phase 2: a fresh daemon over the same state dir. Reconnecting
	// triggers the suspended session's recovery; the hook snapshots
	// Ready() while that recovery is in flight.
	var readyDuring atomic.Bool
	readyDuring.Store(true)
	var d2 *Daemon
	opt2 := Options{StateDir: dir, Detect: detect}
	opt2.testRecoveryHook = func() { readyDuring.Store(d2.Ready()) }
	d2, err = New(opt2)
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d2.Serve(ln2) //nolint:errcheck
	t.Cleanup(func() { d2.Close() })
	if !d2.Ready() {
		t.Fatal("fresh daemon reports not-ready before any recovery")
	}
	conn2, err := net.Dial("tcp", ln2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	cl2 := NewClient(conn2)
	wel, err := cl2.Handshake("tok")
	if err != nil {
		t.Fatal(err)
	}
	if wel.ResumeEvents == 0 {
		t.Fatal("resumed session reports no durable events; recovery never ran")
	}
	if readyDuring.Load() {
		t.Error("Ready() was true while recovery re-analysis was draining")
	}
	if !d2.Ready() {
		t.Error("Ready() still false after recovery drained")
	}
	if err := cl2.SendTrace(tr, wel.ResumeEvents, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := cl2.End()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Races) == 0 {
		t.Error("recovered session found no races")
	}
}
