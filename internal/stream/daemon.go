package stream

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/rvpredict"
)

// Options configures a Daemon.
type Options struct {
	// StateDir holds the per-session durable state: <token>.ingest,
	// <token>.journal and <token>.report.json. Created if missing.
	StateDir string
	// Detect is the detection configuration applied to every session.
	// Only the MaximalCF algorithm is supported, and the batch-only
	// plumbing (Journal, Resume, DebugAddr, Telemetry snapshot, Spans)
	// must be unset — the daemon owns durability and observation
	// itself.
	Detect rvpredict.Options
	// MaxSessions bounds concurrently admitted sessions (default 16).
	// Excess connections are rejected with RejectSessionLimit — typed
	// admission control, not a hung accept queue.
	MaxSessions int
	// MaxInFlightWindows bounds windows in SMT analysis across all
	// sessions (default GOMAXPROCS). When every slot is busy, sessions
	// block in ingest — TCP backpressure — until a slot frees or
	// DegradeAfter fires.
	MaxInFlightWindows int
	// DegradeAfter is how long a session waits for a solver slot before
	// degrading the window: the SMT tier is shed and only the races the
	// sound triage ladder proves are reported, flagged Degraded in
	// provenance. 0 disables degradation (pure backpressure, exact
	// results — the default).
	DegradeAfter time.Duration
	// IdleTimeout suspends a session whose client goes silent (default
	// 2m). Suspended sessions keep their durable state and resume on
	// reconnect.
	IdleTimeout time.Duration
	// HandshakeTimeout bounds the hello/welcome exchange (default 10s).
	HandshakeTimeout time.Duration
	// JournalGroupCommit batches session-journal fsyncs, as in batch
	// mode. The daemon default (0) syncs every outcome — durability
	// first; raise it for throughput.
	JournalGroupCommit time.Duration
	// Collector receives the daemon's telemetry: session gauges,
	// backpressure accounting, degraded/replayed window counts and all
	// per-window detection counters. A fresh collector is created when
	// nil, so the gauges always work.
	Collector *telemetry.Collector
	// FaultInjector arms the daemon's deterministic fault points
	// (stream_stall, stream_disconnect, queue_saturate, plus the
	// journal and solver points of the inner pipeline). Test-only.
	FaultInjector *faultinject.Injector
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)

	// testRecoveryHook, when non-nil, is called at the start of a
	// suspended session's recovery, while the recovering gauge is held —
	// in-package tests use it to observe the /readyz window
	// deterministically.
	testRecoveryHook func()
}

// Daemon is the streaming detection service: it accepts client
// connections, runs one durable session per token, and degrades
// gracefully under pressure instead of failing unpredictably.
type Daemon struct {
	opt    Options
	col    *telemetry.Collector
	inj    *faultinject.Injector
	slots  chan struct{}
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	active    map[string]net.Conn // token → owning connection
	listeners map[net.Listener]bool
	draining  bool

	// recovering counts suspended sessions whose journal-lost windows
	// are still being re-analysed from their ingest logs. While it is
	// non-zero the daemon reports not-ready: a load balancer must not
	// route fresh work at a daemon still paying down its recovery spike.
	recovering atomic.Int64

	wg sync.WaitGroup
}

// New validates opt and returns a daemon ready to Serve.
func New(opt Options) (*Daemon, error) {
	if opt.StateDir == "" {
		return nil, fmt.Errorf("stream: Options.StateDir is required")
	}
	if err := opt.Detect.Validate(); err != nil {
		return nil, err
	}
	if opt.Detect.Algorithm != rvpredict.MaximalCF {
		return nil, fmt.Errorf("stream: the daemon supports the %s algorithm only", rvpredict.MaximalCF)
	}
	switch {
	case opt.Detect.Journal != "" || opt.Detect.Resume:
		return nil, fmt.Errorf("stream: Options.Detect.Journal/Resume are owned by the daemon; leave them unset")
	case opt.Detect.DebugAddr != "" || opt.Detect.OnDebugAddr != nil:
		return nil, fmt.Errorf("stream: Options.Detect.DebugAddr is owned by the daemon process; leave it unset")
	case opt.Detect.Telemetry || opt.Detect.Spans != nil:
		return nil, fmt.Errorf("stream: Options.Detect observation plumbing must be unset; use Options.Collector")
	}
	opt.Detect = opt.Detect.Normalised()
	if opt.MaxSessions <= 0 {
		opt.MaxSessions = 16
	}
	if opt.MaxInFlightWindows <= 0 {
		opt.MaxInFlightWindows = runtime.GOMAXPROCS(0)
	}
	if opt.IdleTimeout <= 0 {
		opt.IdleTimeout = 2 * time.Minute
	}
	if opt.HandshakeTimeout <= 0 {
		opt.HandshakeTimeout = 10 * time.Second
	}
	if err := os.MkdirAll(opt.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("stream: state dir: %w", err)
	}
	col := opt.Collector
	if col == nil {
		col = telemetry.NewCollector()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Daemon{
		opt:       opt,
		col:       col,
		inj:       opt.FaultInjector,
		slots:     make(chan struct{}, opt.MaxInFlightWindows),
		ctx:       ctx,
		cancel:    cancel,
		active:    make(map[string]net.Conn),
		listeners: make(map[net.Listener]bool),
	}, nil
}

// Collector returns the daemon's telemetry collector (for the
// introspection server's gauges).
func (d *Daemon) Collector() *telemetry.Collector { return d.col }

// Ready reports whether the daemon should receive new work — the
// /readyz signal. It is false while any suspended session's recovery
// re-analysis is still draining (live sessions keep running; only the
// readiness advertisement is withheld) and turns false permanently once
// draining starts.
func (d *Daemon) Ready() bool {
	return !d.drainingNow() && d.recovering.Load() == 0
}

// drainingNow reports whether shutdown draining has started — the
// condition under which sessions must suspend. Distinct from Ready:
// recovery withholds readiness without suspending anyone.
func (d *Daemon) drainingNow() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

func (d *Daemon) logf(format string, args ...any) {
	if d.opt.Logf != nil {
		d.opt.Logf(format, args...)
	}
}

func (d *Daemon) statePath(name string) string {
	return d.opt.StateDir + string(os.PathSeparator) + name
}

// Serve accepts sessions on ln until the listener closes (Drain and
// Close close it). One goroutine per connection; a panic in a session
// is isolated to that session.
func (d *Daemon) Serve(ln net.Listener) error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		ln.Close()
		return fmt.Errorf("stream: daemon is draining")
	}
	d.listeners[ln] = true
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		delete(d.listeners, ln)
		d.mu.Unlock()
	}()
	for {
		c, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || d.drainingNow() {
				return nil
			}
			return err
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.serveConn(c)
		}()
	}
}

// Drain stops admitting sessions, closes the listeners, nudges every
// active session to suspend at its next frame boundary (in-flight
// window analyses complete first), and waits for them up to ctx's
// deadline. Suspended sessions keep their durable state; a restarted
// daemon resumes each one bit-identically.
func (d *Daemon) Drain(ctx context.Context) error {
	d.mu.Lock()
	d.draining = true
	for ln := range d.listeners {
		ln.Close()
	}
	conns := make([]net.Conn, 0, len(d.active))
	for _, c := range d.active {
		conns = append(conns, c)
	}
	d.mu.Unlock()
	for _, c := range conns {
		// Wake blocked reads; the session loop sees draining and
		// suspends cleanly.
		c.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close shuts down hard: listeners close, in-flight window analyses
// are cancelled (their windows are not journaled, so a resume simply
// re-analyses them), connections drop, and all session goroutines are
// awaited. Durable state survives.
func (d *Daemon) Close() error {
	d.mu.Lock()
	d.draining = true
	for ln := range d.listeners {
		ln.Close()
	}
	conns := make([]net.Conn, 0, len(d.active))
	for _, c := range d.active {
		conns = append(conns, c)
	}
	d.mu.Unlock()
	d.cancel()
	for _, c := range conns {
		c.Close()
	}
	d.wg.Wait()
	return nil
}

// acquireSlot obtains a solver slot for one window, blocking while the
// daemon-wide queue is saturated (the ingest loop stalls with it: TCP
// backpressure). Returns holding=true when a slot was acquired, or
// degrade=true when the window must run degraded — either the scripted
// queue_saturate fault fired or DegradeAfter expired first. Blocked
// time is accounted to the ingest_backpressure gauge either way.
func (d *Daemon) acquireSlot(ctx context.Context) (holding, degrade bool) {
	if d.inj.Fire(faultinject.PointQueueSaturate) == faultinject.FaultTimeout {
		return false, true
	}
	select {
	case d.slots <- struct{}{}:
		return true, false
	default:
	}
	t0 := time.Now()
	defer func() { d.col.Add(telemetry.IngestBackpressureNS, int64(time.Since(t0))) }()
	if d.opt.DegradeAfter > 0 {
		timer := time.NewTimer(d.opt.DegradeAfter)
		defer timer.Stop()
		select {
		case d.slots <- struct{}{}:
			return true, false
		case <-timer.C:
			return false, true
		case <-ctx.Done():
			return false, false
		}
	}
	select {
	case d.slots <- struct{}{}:
		return true, false
	case <-ctx.Done():
		return false, false
	}
}

// acquireRecoverySlot obtains a solver slot for a window whose
// journaled outcome was lost and is being re-analysed during recovery.
// Recovery respects the same daemon-wide MaxInFlightWindows bound as
// live ingest — a restart with many suspended sessions must not run
// MaxSessions concurrent SMT analyses in its recovery spike — but it
// never degrades and never trips the queue_saturate fault point:
// resuming a session reproduces its exact pre-crash results. Returns
// false only when ctx is cancelled (the caller's RunWindow is then cut
// and surfaces ctx.Err, as on the live path).
func (d *Daemon) acquireRecoverySlot(ctx context.Context) bool {
	select {
	case d.slots <- struct{}{}:
		return true
	default:
	}
	t0 := time.Now()
	defer func() { d.col.Add(telemetry.IngestBackpressureNS, int64(time.Since(t0))) }()
	select {
	case d.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (d *Daemon) releaseSlot() { <-d.slots }

// admit reserves the session token under admission control. On success
// the token is bound to c inside the same critical section that checked
// it — check and reservation are one atomic step, so two concurrent
// connections presenting the same token (a client retry racing a
// stalled first attempt) can never both own the session's durable
// state, and MaxSessions is a hard bound. The returned release func
// undoes the reservation; it must run only after the session's file
// handles are closed. On failure it returns a reject code (and counts
// the rejection).
func (d *Daemon) admit(token string, c net.Conn) (release func(), code byte, msg string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.draining:
		d.col.Add(telemetry.SessionsRejected, 1)
		return nil, RejectDraining, "daemon is draining"
	case d.active[token] != nil:
		d.col.Add(telemetry.SessionsRejected, 1)
		return nil, RejectBusyToken, "another connection owns this session"
	case len(d.active) >= d.opt.MaxSessions:
		d.col.Add(telemetry.SessionsRejected, 1)
		return nil, RejectSessionLimit, fmt.Sprintf("session limit (%d) reached", d.opt.MaxSessions)
	}
	d.active[token] = c
	return func() {
		d.mu.Lock()
		delete(d.active, token)
		d.mu.Unlock()
	}, 0, ""
}

// serveConn runs one connection's lifecycle: handshake, admission,
// session open/recover, the frame loop, and completion or suspension.
// Any panic is isolated here: the session suspends (durable state
// synced best-effort) and the daemon lives on.
func (d *Daemon) serveConn(c net.Conn) {
	var sess *session
	var release func()
	defer func() {
		if r := recover(); r != nil {
			d.logf("stream: session panic isolated: %v\n%s", r, debug.Stack())
		}
		// Close the session (flushing and syncing its ingest log and
		// journal) strictly before releasing the token: a reconnecting
		// client admitted any earlier could reopen the same durable
		// files while these handles still hold buffered data.
		// sess.close is idempotent, so the normal paths' inline closes
		// make this a no-op.
		if sess != nil {
			sess.close()
		}
		if release != nil {
			release()
		}
		c.Close()
	}()

	br := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(d.opt.HandshakeTimeout))
	token, err := readHello(br)
	if err != nil {
		d.col.Add(telemetry.SessionsRejected, 1)
		d.writeDeadline(c)
		writeReject(c, RejectBadHandshake, err.Error())
		return
	}
	var code byte
	var msg string
	if release, code, msg = d.admit(token, c); code != 0 {
		d.writeDeadline(c)
		writeReject(c, code, msg)
		return
	}
	d.col.Add(telemetry.SessionsStarted, 1)
	defer d.col.Add(telemetry.SessionsFinished, 1)

	// A completed session's report survives as its durable artifact;
	// reconnects (including a client whose report frame was lost in a
	// crash) get it back immediately.
	if data, err := os.ReadFile(d.ReportPath(token)); err == nil {
		d.writeDeadline(c)
		if writeWelcome(c, Welcome{Complete: true}) == nil {
			WriteFrame(c, reportPayload(data))
		}
		return
	}

	sess, err = d.openSession(d.ctx, token)
	if err != nil {
		d.logf("stream: session %s: open: %v", token, err)
		d.writeDeadline(c)
		writeReject(c, RejectInternal, "session state unavailable")
		return
	}
	if sess.ended {
		// Recovery replayed a complete stream whose report was never
		// persisted: finish it now and deliver.
		d.finishSession(c, sess, true)
		return
	}
	d.writeDeadline(c)
	if err := writeWelcome(c, Welcome{ResumeEvents: sess.total}); err != nil {
		sess.close()
		return
	}

	for {
		if d.drainingNow() {
			d.logf("stream: session %s: suspended for drain (%d events, %d windows)", token, sess.total, sess.widx)
			sess.close()
			return
		}
		c.SetReadDeadline(time.Now().Add(d.opt.IdleTimeout))
		payload, err := ReadFrame(br)
		if err != nil {
			d.logf("stream: session %s: suspended: %v", token, err)
			sess.close()
			return
		}
		if d.inj.Fire(faultinject.PointStreamStall) == faultinject.FaultTimeout {
			d.logf("stream: session %s: suspended: injected stall", token)
			sess.close()
			return
		}
		if f := d.inj.Fire(faultinject.PointStreamDisconnect); f != faultinject.FaultNone {
			d.logf("stream: session %s: injected disconnect", token)
			sess.close()
			return
		}
		rec, err := decodeRecord(payload)
		if err == nil {
			err = sess.checkRecord(rec)
		}
		if err != nil {
			d.logf("stream: session %s: suspended: %v", token, err)
			sess.close()
			return
		}
		if err := sess.ingest.append(AppendFrame(nil, payload)); err != nil {
			d.logf("stream: session %s: suspended: %v", token, err)
			sess.close()
			return
		}
		if err := sess.applyRecord(d.ctx, rec, true); err != nil {
			d.logf("stream: session %s: suspended: %v", token, err)
			sess.close()
			return
		}
		if sess.ended {
			if err := sess.finalize(d.ctx, true); err != nil {
				d.logf("stream: session %s: suspended at finalize: %v", token, err)
				sess.close()
				return
			}
			d.finishSession(c, sess, false)
			return
		}
	}
}

// finishSession persists the completed session's report atomically,
// discards the now-redundant ingest log and journal, and delivers the
// report to the client — preceded by a Complete welcome when the
// handshake reply is still owed (the recovered-complete path). A
// failed report write suspends instead: the durable state survives and
// a reconnect retries completion.
func (d *Daemon) finishSession(c net.Conn, sess *session, sendWelcome bool) {
	rep := sess.report()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		d.logf("stream: session %s: encoding report: %v", sess.token, err)
		sess.close()
		return
	}
	data = append(data, '\n')
	if err := journal.WriteFileAtomic(d.ReportPath(sess.token), data, d.inj); err != nil {
		d.logf("stream: session %s: writing report: %v", sess.token, err)
		sess.close()
		return
	}
	sess.close()
	sess.discardState()
	d.logf("stream: session %s: complete (%d events, %d windows, %d races, %d replayed, %d degraded)",
		sess.token, sess.total, rep.Windows, len(rep.Races), sess.replayed, sess.degraded)
	d.writeDeadline(c)
	if sendWelcome {
		if err := writeWelcome(c, Welcome{ResumeEvents: sess.total, Complete: true}); err != nil {
			return
		}
	}
	WriteFrame(c, reportPayload(data))
}

// writeDeadline arms a write deadline so a dead client cannot wedge a
// session goroutine on a blocked write.
func (d *Daemon) writeDeadline(c net.Conn) {
	c.SetWriteDeadline(time.Now().Add(d.opt.HandshakeTimeout))
}
