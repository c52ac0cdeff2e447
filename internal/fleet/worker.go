package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/retry"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/rvpredict"
	"repro/trace"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Addr is the coordinator's TCP address.
	Addr string
	// Detect must carry the same trace (TraceReader) and
	// result-affecting options as the coordinator's — the handshake
	// fingerprint is derived from them and a mismatch is rejected
	// permanently.
	Detect rvpredict.Options
	// Name identifies the worker in coordinator logs.
	Name string
	// Retry is the reconnect schedule (defaults: internal/retry's). An
	// attempt that got at least one result acked counts as progress and
	// resets the consecutive-failure counter.
	Retry retry.Policy
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// FaultInjector arms the worker's fault points (worker_crash,
	// lease_stall, result_corrupt). Test-only.
	FaultInjector *faultinject.Injector
	// AllowCrash permits a worker_crash FaultCrash script to kill the
	// process via faultinject.CrashNow (re-exec harnesses only);
	// without it every worker_crash fault aborts the connection
	// instead, simulating the crash in-process.
	AllowCrash bool
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)

	// testHoldWindow, when non-nil, is called before each owned
	// window's analysis — in-package chaos tests use it to hold a
	// worker mid-shard deterministically (the straggler the speculative
	// path hedges against).
	testHoldWindow func(widx int)
}

// errShutdown marks the coordinator's clean shutdown order. It
// implements retry.Permanent so the reconnect loop stops instead of
// dialling a coordinator that just said goodbye.
var errShutdown error = shutdownSignal{}

type shutdownSignal struct{}

func (shutdownSignal) Error() string   { return "fleet: coordinator ordered shutdown" }
func (shutdownSignal) Permanent() bool { return true }

// errWorkerCrash marks an in-process injected worker crash: the
// connection is abandoned mid-shard and the reconnect loop takes over.
var errWorkerCrash = errors.New("fleet: injected worker crash")

// RunWorker connects to the coordinator, leases shards and analyses
// their windows until the coordinator orders shutdown (returning nil).
// Connection failures reconnect under opt.Retry with exponential
// backoff and jitter; a fingerprint rejection is permanent and is
// returned immediately.
func RunWorker(ctx context.Context, opt WorkerOptions) error {
	if opt.Addr == "" {
		return fmt.Errorf("fleet: WorkerOptions.Addr is required")
	}
	if opt.Detect.TraceReader == nil {
		return fmt.Errorf("fleet: WorkerOptions.Detect.TraceReader is required")
	}
	if err := opt.Detect.Validate(); err != nil {
		return err
	}
	if opt.DialTimeout <= 0 {
		opt.DialTimeout = 5 * time.Second
	}
	w := &worker{
		opt: opt,
		det: opt.Detect.Normalised(),
		fp:  journalFingerprint(opt.Detect.TraceReader.ContentHash(), opt.Detect.ResultFingerprint()),
	}
	err := retry.Do(ctx, opt.Retry, func(ctx context.Context) (bool, error) {
		return w.serveOnce(ctx)
	})
	if errors.Is(err, errShutdown) {
		return nil
	}
	return err
}

type worker struct {
	opt WorkerOptions
	det rvpredict.Options
	fp  journal.Fingerprint
}

func (w *worker) logf(format string, args ...any) {
	if w.opt.Logf != nil {
		w.opt.Logf(format, args...)
	}
}

// serveOnce runs one connection's lifetime: dial, handshake, then the
// lease/analyse loop until shutdown or failure. progressed reports
// whether any result was acked on this connection.
func (w *worker) serveOnce(ctx context.Context) (progressed bool, err error) {
	d := net.Dialer{Timeout: w.opt.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", w.opt.Addr)
	if err != nil {
		return false, err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	br := bufio.NewReader(conn)
	conn.SetWriteDeadline(time.Now().Add(w.opt.DialTimeout))
	if err := writeHello(conn, w.fp, w.opt.Name); err != nil {
		return false, err
	}
	conn.SetReadDeadline(time.Now().Add(w.opt.DialTimeout))
	if err := readReply(br); err != nil {
		return false, err
	}

	for {
		if ctx.Err() != nil {
			return progressed, ctx.Err()
		}
		reply, err := w.call(conn, br, []byte{msgReq}, 0)
		if err != nil {
			return progressed, err
		}
		switch reply[0] {
		case msgGrant:
			g, err := parseGrant(reply[1:])
			if err != nil {
				return progressed, err
			}
			w.logf("fleet: worker %s: leased shard %d/%d (lease %d, speculative=%t)",
				w.opt.Name, g.shard, g.shards, g.leaseID, g.speculative)
			acked, err := w.analyseShard(ctx, conn, br, g)
			progressed = progressed || acked
			if err != nil {
				return progressed, err
			}
		case msgNone:
			waitMS, err := parseUvarint(reply[1:])
			if err != nil {
				return progressed, err
			}
			select {
			case <-time.After(time.Duration(waitMS) * time.Millisecond):
			case <-ctx.Done():
				return progressed, ctx.Err()
			}
		case msgShutdown:
			w.logf("fleet: worker %s: shutdown", w.opt.Name)
			return progressed, errShutdown
		default:
			return progressed, fmt.Errorf("%w: unexpected reply 0x%02x", ErrProtocol, reply[0])
		}
	}
}

// call sends one message and reads its reply. ttl, when non-zero,
// stretches the read deadline past the coordinator's grant cadence.
func (w *worker) call(conn net.Conn, br *bufio.Reader, payload []byte, ttl time.Duration) ([]byte, error) {
	deadline := 10 * time.Second
	if ttl > deadline {
		deadline = 2 * ttl
	}
	conn.SetWriteDeadline(time.Now().Add(deadline))
	if err := stream.WriteFrame(conn, payload); err != nil {
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(deadline))
	kind, body, err := readMsg(br)
	if err != nil {
		return nil, err
	}
	return append([]byte{kind}, body...), nil
}

// analyseShard walks the trace's windows, analyses the leased shard's
// own (window index ≡ shard mod shards, exactly rvpredict's sharded
// reader path), and streams each outcome back, heartbeating at every
// window boundary. acked reports whether at least one result reached
// the coordinator's journal.
func (w *worker) analyseShard(ctx context.Context, conn net.Conn, br *bufio.Reader, g grant) (acked bool, err error) {
	// The same rvpredict.Options.CoreOptions mapping as the sharded
	// reader path, so a worker-analysed window's outcome is
	// byte-identical to the single-process run's.
	copt := w.det.CoreOptions()
	copt.FaultInjector = w.opt.FaultInjector
	if w.det.Spans != nil {
		// The recorder's consumer (the CLI's -progress) sees the window
		// and query spans a collector opens.
		copt.Telemetry = telemetry.NewCollector()
		copt.Telemetry.AttachSpans(w.det.Spans)
	}
	runner := core.NewRunner(copt, core.Isolated)
	ttl := time.Duration(g.ttlMS) * time.Millisecond
	inj := w.opt.FaultInjector
	err = w.det.TraceReader.Windows(w.det.WindowSize, func(win *trace.Trace, widx, offset int) error {
		if widx%g.shards != g.shard {
			return nil
		}
		// Heartbeat at the window boundary, keeping the lease alive
		// across the analysis below. The lease_stall fault suppresses
		// it, so a scripted run of stalls lets the deadline lapse while
		// this worker is still computing.
		if inj.Fire(faultinject.PointLeaseStall) == faultinject.FaultTimeout {
			w.logf("fleet: worker %s: heartbeat suppressed (injected stall)", w.opt.Name)
		} else {
			if _, err := w.call(conn, br, uvarintPayload(msgHeartbeat, g.leaseID), ttl); err != nil {
				return err
			}
		}
		if w.opt.testHoldWindow != nil {
			w.opt.testHoldWindow(widx)
		}
		out, status := runner.RunWindow(ctx, win, widx, offset, false)
		if status == core.WindowCut {
			return ctx.Err()
		}
		enc := journal.EncodeOutcome(out)
		payload := resultPayload(g.leaseID, widx, enc)
		// The worker_crash point fires per outcome about to be
		// reported: FaultCrash kills a re-exec worker outright;
		// in-process, any fault abandons the connection mid-shard.
		if f := inj.Fire(faultinject.PointWorkerCrash); f != faultinject.FaultNone {
			if w.opt.AllowCrash && (f == faultinject.FaultCrash || f == faultinject.FaultCrashTorn) {
				faultinject.CrashNow()
			}
			return errWorkerCrash
		}
		// The result_corrupt point flips a byte of the encoded outcome
		// after its CRC went into the frame: the coordinator's gate
		// must reject it.
		if inj.Fire(faultinject.PointResultCorrupt) != faultinject.FaultNone {
			// The payload tail is enc ‖ crc; flip a byte inside enc.
			payload[len(payload)-5] ^= 0xFF
			w.logf("fleet: worker %s: corrupting result for window %d (injected)", w.opt.Name, widx)
		}
		reply, err := w.call(conn, br, payload, ttl)
		if err != nil {
			return err
		}
		if reply[0] != msgAck || len(reply) != 2 {
			return fmt.Errorf("%w: unexpected result reply 0x%02x", ErrProtocol, reply[0])
		}
		if reply[1] == ackOK {
			acked = true
		} else {
			w.logf("fleet: worker %s: result for window %d rejected", w.opt.Name, widx)
		}
		return nil
	})
	if err != nil {
		return acked, err
	}
	reply, err := w.call(conn, br, uvarintPayload(msgShardDone, g.leaseID), ttl)
	if err != nil {
		return acked, err
	}
	if reply[0] != msgAck {
		return acked, fmt.Errorf("%w: unexpected shard-done reply 0x%02x", ErrProtocol, reply[0])
	}
	return acked, nil
}
