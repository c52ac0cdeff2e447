package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/retry"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/rvpredict"
	"repro/trace"
)

// ErrInjectedCrash is returned by Coordinator.Run when an in-process
// coord_crash fault aborted the run after the triggering result was
// durably journaled. A new coordinator over the same journal resumes
// without losing any acked window.
var ErrInjectedCrash = errors.New("fleet: injected coordinator crash")

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// Detect is the detection configuration the fleet executes.
	// TraceReader must be set (every worker opens the same chunked
	// trace); Journal and Resume are owned by the coordinator and must
	// be unset.
	Detect rvpredict.Options
	// Journal is the coordinator's durable window journal (required).
	// Every accepted result is appended and fsynced here before the
	// worker is acked; a killed coordinator resumes from it.
	Journal string
	// Shards is the number of lease partitions (window index mod
	// Shards), the unit of work a lease covers. Default 4.
	Shards int
	// LeaseTTL is how long a lease lives without a heartbeat before its
	// shard is reassigned (default 10s).
	LeaseTTL time.Duration
	// SpeculateAfter is the lease age past which an idle worker may be
	// granted a speculative duplicate lease on a still-leased shard —
	// the straggler hedge; the first valid result per window wins
	// (default LeaseTTL).
	SpeculateAfter time.Duration
	// IdleGrace is how long the coordinator tolerates an empty fleet
	// (no workers, no live leases, windows still missing) before
	// degrading to local analysis of the uncovered windows (default 2s).
	IdleGrace time.Duration
	// ShutdownLinger bounds the wait for connected workers to drain
	// through their shutdown handshake once all windows are durable
	// (default 5s); stragglers past it are disconnected. A coordinator
	// restarted over a non-empty journal also keeps accepting workers
	// for this long after Run starts, so the crashed coordinator's
	// workers, still in their reconnect backoff, drain through the
	// handshake too.
	ShutdownLinger time.Duration
	// Backoff is the reassignment schedule for expired or disconnected
	// leases (defaults: internal/retry's).
	Backoff retry.Policy
	// Collector receives the fleet telemetry (lease and speculative
	// counters) and the merge-time shard counters. A fresh collector is
	// created when nil.
	Collector *telemetry.Collector
	// FaultInjector arms the coordinator's coord_crash point. Test-only.
	FaultInjector *faultinject.Injector
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// lease is one live shard lease.
type lease struct {
	id          uint64
	shard       int
	conn        net.Conn
	deadline    time.Time
	granted     time.Time
	speculative bool
}

// Coordinator owns the fleet run: the window journal, the lease table
// and the final merge.
type Coordinator struct {
	opt CoordinatorOptions
	col *telemetry.Collector
	inj *faultinject.Injector
	fp  journal.Fingerprint

	numWindows   int
	shardWindows [][]int // shard → its window indices

	mu           sync.Mutex
	jw           *journal.Writer
	done         map[int]bool
	doneCount    int
	leases       map[uint64]*lease
	nextLeaseID  uint64
	shardLive    []int // live lease count per shard
	shardDone    []bool
	attempts     []int // consecutive failed leases per shard, for backoff
	notBefore    []time.Time
	workers      int
	lastActivity time.Time
	draining     bool
	crashed      error
	// resumed: the journal already held acked windows at start, so
	// workers of the crashed predecessor may still be reconnecting.
	resumed bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewCoordinator validates opt, opens (or resumes) the coordinator
// journal, and indexes the trace's windows. The returned coordinator is
// ready to Run.
func NewCoordinator(opt CoordinatorOptions) (*Coordinator, error) {
	if opt.Detect.TraceReader == nil {
		return nil, fmt.Errorf("fleet: CoordinatorOptions.Detect.TraceReader is required")
	}
	if opt.Journal == "" {
		return nil, fmt.Errorf("fleet: CoordinatorOptions.Journal is required")
	}
	if opt.Detect.Journal != "" || opt.Detect.Resume {
		return nil, fmt.Errorf("fleet: Detect.Journal/Resume are owned by the coordinator; leave them unset")
	}
	if err := opt.Detect.Validate(); err != nil {
		return nil, err
	}
	if opt.Shards <= 0 {
		opt.Shards = 4
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = 10 * time.Second
	}
	if opt.SpeculateAfter <= 0 {
		opt.SpeculateAfter = opt.LeaseTTL
	}
	if opt.IdleGrace <= 0 {
		opt.IdleGrace = 2 * time.Second
	}
	if opt.ShutdownLinger <= 0 {
		opt.ShutdownLinger = 5 * time.Second
	}
	col := opt.Collector
	if col == nil {
		col = telemetry.NewCollector()
	}
	rd := opt.Detect.TraceReader
	c := &Coordinator{
		opt:    opt,
		col:    col,
		inj:    opt.FaultInjector,
		fp:     journalFingerprint(rd.ContentHash(), opt.Detect.ResultFingerprint()),
		done:   make(map[int]bool),
		leases: make(map[uint64]*lease),
	}

	// Index the windows once: the lease table needs to know which
	// windows each shard owns and when a shard (and the run) is
	// complete.
	ws := opt.Detect.Normalised().WindowSize
	c.shardWindows = make([][]int, opt.Shards)
	err := rd.Windows(ws, func(_ *trace.Trace, widx, _ int) error {
		s := widx % opt.Shards
		c.shardWindows[s] = append(c.shardWindows[s], widx)
		c.numWindows++
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.shardLive = make([]int, opt.Shards)
	c.shardDone = make([]bool, opt.Shards)
	c.attempts = make([]int, opt.Shards)
	c.notBefore = make([]time.Time, opt.Shards)

	// Open the journal: resume an existing one (the crash-recovery
	// path — every previously acked window is recovered), create
	// otherwise. GroupCommit stays 0: every accepted result is fsynced
	// before its ack, the durability the protocol promises.
	jopt := journal.Options{Telemetry: col, FaultInjector: opt.FaultInjector}
	if _, statErr := os.Stat(opt.Journal); statErr == nil {
		jw, info, rerr := journal.Resume(opt.Journal, c.fp, jopt)
		if rerr != nil {
			return nil, rerr
		}
		c.jw = jw
		if info.TornTail {
			col.Add(telemetry.JournalTornTails, 1)
		}
		c.resumed = len(info.Outcomes) > 0
		for _, out := range info.Outcomes {
			if !c.done[out.Window] {
				c.done[out.Window] = true
				c.doneCount++
			}
		}
	} else {
		jw, cerr := journal.Create(opt.Journal, c.fp, jopt)
		if cerr != nil {
			return nil, cerr
		}
		c.jw = jw
	}
	for s := range c.shardDone {
		c.shardDone[s] = c.shardCompleteLocked(s)
	}
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Logf != nil {
		c.opt.Logf(format, args...)
	}
}

// Collector returns the coordinator's telemetry collector.
func (c *Coordinator) Collector() *telemetry.Collector { return c.col }

// shardCompleteLocked reports whether every window of shard s is
// durable.
func (c *Coordinator) shardCompleteLocked(s int) bool {
	for _, w := range c.shardWindows[s] {
		if !c.done[w] {
			return false
		}
	}
	return true
}

// Run serves the fleet on ln until every window is durable (or the
// fleet stays empty past IdleGrace), then merges the coordinator
// journal into the final report — analysing any windows no worker
// covered locally, so the report is always complete. The report is
// byte-identical to a single-process run over the same trace and
// options.
func (c *Coordinator) Run(ctx context.Context, ln net.Listener) (rvpredict.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.ctx, c.cancel = context.WithCancel(ctx)
	defer c.cancel()
	c.mu.Lock()
	c.lastActivity = time.Now()
	c.mu.Unlock()

	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.handleConn(conn)
			}()
		}
	}()

	// The monitor drives lease expiry and decides when the run is over.
	// A resumed coordinator may find every window durable at once (the
	// crashed one journaled them all) or finish them before every worker
	// of its predecessor is back from backoff: until rejoinUntil it keeps
	// accepting those workers, which are sent the shutdown handshake,
	// instead of closing the port on them. A fresh run never waits.
	drainStart := time.Time{}
	var rejoinUntil time.Time
	if c.resumed {
		rejoinUntil = time.Now().Add(c.opt.ShutdownLinger)
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-c.ctx.Done():
		case <-tick.C:
		}
		rejoining := time.Now().Before(rejoinUntil)
		c.mu.Lock()
		c.sweepLocked(time.Now())
		crashed := c.crashed
		allDone := c.doneCount == c.numWindows
		idle := c.workers == 0 && len(c.leases) == 0 &&
			time.Since(c.lastActivity) > c.opt.IdleGrace
		workers := c.workers
		if allDone && !rejoining {
			c.draining = true
		}
		c.mu.Unlock()

		switch {
		case crashed != nil:
			ln.Close()
			c.cancel()
			c.wg.Wait()
			c.jw.Close()
			return rvpredict.Report{}, crashed
		case c.ctx.Err() != nil:
			ln.Close()
			c.wg.Wait()
			c.jw.Close()
			return rvpredict.Report{}, ctx.Err()
		case allDone && rejoining:
			// Keep accepting the predecessor's reconnecting workers.
		case allDone:
			// Linger so connected workers drain through their shutdown
			// handshake instead of seeing an abrupt close.
			if drainStart.IsZero() {
				drainStart = time.Now()
			}
			if workers == 0 || time.Since(drainStart) > c.opt.ShutdownLinger {
				return c.finish(ln)
			}
		case idle:
			c.mu.Lock()
			c.draining = true
			missing := c.numWindows - c.doneCount
			c.mu.Unlock()
			c.logf("fleet: no workers and %d windows uncovered; degrading to local analysis", missing)
			return c.finish(ln)
		}
	}
}

// finish closes the fleet and produces the report by merging the
// coordinator journal — rvpredict.MergeJournal analyses any windows
// missing from it in-process, which is both the graceful-degradation
// path (fleet shrank to zero) and a no-op on a fully covered run.
func (c *Coordinator) finish(ln net.Listener) (rvpredict.Report, error) {
	ln.Close()
	c.cancel()
	c.wg.Wait()
	if err := c.jw.Close(); err != nil {
		return rvpredict.Report{}, err
	}
	det := c.opt.Detect
	det.Collector = c.col
	return rvpredict.MergeJournal(context.Background(), det, c.opt.Journal)
}

// sweepLocked expires leases whose deadline lapsed: the shard returns
// to the pending pool behind an exponential-backoff gate.
func (c *Coordinator) sweepLocked(now time.Time) {
	for id, l := range c.leases {
		if now.After(l.deadline) {
			c.col.Add(telemetry.LeasesExpired, 1)
			c.logf("fleet: lease %d (shard %d) expired", id, l.shard)
			c.releaseLeaseLocked(id, true)
		}
	}
}

// releaseLeaseLocked removes a lease; backoff arms the reassignment
// gate (expiry and disconnect do, voluntary release does not).
func (c *Coordinator) releaseLeaseLocked(id uint64, backoff bool) {
	l := c.leases[id]
	if l == nil {
		return
	}
	delete(c.leases, id)
	c.shardLive[l.shard]--
	if backoff && !c.shardDone[l.shard] {
		c.attempts[l.shard]++
		c.notBefore[l.shard] = time.Now().Add(c.opt.Backoff.Delay(c.attempts[l.shard]))
	}
}

// grantLocked picks work for an idle worker: a pending shard first
// (past its backoff gate), then a speculative duplicate of the oldest
// straggling lease, else nothing.
func (c *Coordinator) grantLocked(conn net.Conn, now time.Time) []byte {
	c.sweepLocked(now)
	if c.draining || c.doneCount == c.numWindows {
		return []byte{msgShutdown}
	}
	pick, speculative := -1, false
	for s := 0; s < c.opt.Shards; s++ {
		if !c.shardDone[s] && c.shardLive[s] == 0 && !now.Before(c.notBefore[s]) {
			pick = s
			break
		}
	}
	if pick < 0 {
		// Speculative hedge: duplicate the oldest lease that has been
		// running past SpeculateAfter and is not already duplicated.
		var oldest time.Time
		for _, l := range c.leases {
			age := now.Sub(l.granted)
			if age < c.opt.SpeculateAfter || c.shardLive[l.shard] > 1 || l.conn == conn {
				continue
			}
			if pick < 0 || l.granted.Before(oldest) {
				pick, oldest = l.shard, l.granted
			}
		}
		speculative = pick >= 0
	}
	if pick < 0 {
		// Idle workers poll at the faster of the lease and speculation
		// cadences (bounded), so a hedge shows up promptly once a lease
		// ages past SpeculateAfter.
		wait := c.opt.LeaseTTL / 4
		if s := c.opt.SpeculateAfter / 4; s < wait {
			wait = s
		}
		if wait < 5*time.Millisecond {
			wait = 5 * time.Millisecond
		}
		if wait > time.Second {
			wait = time.Second
		}
		return uvarintPayload(msgNone, uint64(wait/time.Millisecond))
	}
	c.nextLeaseID++
	l := &lease{
		id:          c.nextLeaseID,
		shard:       pick,
		conn:        conn,
		deadline:    now.Add(c.opt.LeaseTTL),
		granted:     now,
		speculative: speculative,
	}
	c.leases[l.id] = l
	c.shardLive[pick]++
	c.col.Add(telemetry.LeasesGranted, 1)
	if c.attempts[pick] > 0 && !speculative {
		c.col.Add(telemetry.LeasesReassigned, 1)
	}
	c.logf("fleet: lease %d: shard %d/%d (speculative=%t)", l.id, pick, c.opt.Shards, speculative)
	return grantPayload(grant{
		leaseID:     l.id,
		shard:       pick,
		shards:      c.opt.Shards,
		ttlMS:       uint64(c.opt.LeaseTTL / time.Millisecond),
		speculative: speculative,
	})
}

// handleResult gates, journals and acks one reported window outcome.
// First valid result wins: a window already durable is acked and
// ignored, so the coordinator journal holds each window once. The ack
// is written only after the journal append has been fsynced.
func (c *Coordinator) handleResult(conn net.Conn, body []byte) ([]byte, error) {
	leaseID, window, enc, err := parseResult(body)
	if err != nil {
		c.logf("fleet: rejecting result: %v", err)
		return []byte{msgAck, ackRejected}, nil
	}
	out, err := journal.DecodeOutcome(enc)
	if err != nil || out.Window != window {
		c.logf("fleet: rejecting undecodable result for window %d: %v", window, err)
		return []byte{msgAck, ackRejected}, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if l := c.leases[leaseID]; l != nil && l.conn == conn {
		l.deadline = time.Now().Add(c.opt.LeaseTTL) // a result is liveness too
	}
	if !c.done[window] {
		if err := c.jw.Append(out); err != nil {
			c.crashed = fmt.Errorf("fleet: journal append: %w", err)
			return nil, c.crashed
		}
		c.done[window] = true
		c.doneCount++
		if l := c.leases[leaseID]; l != nil && l.speculative {
			c.col.Add(telemetry.SpeculativeWins, 1)
		}
		// The result is durable (appended and fsynced) but unacked —
		// the exact instant coord_crash simulates dying at.
		switch c.inj.Fire(faultinject.PointCoordCrash) {
		case faultinject.FaultNone:
		case faultinject.FaultCrash, faultinject.FaultCrashTorn:
			faultinject.CrashNow()
		default:
			c.crashed = ErrInjectedCrash
			return nil, c.crashed
		}
	}
	return []byte{msgAck, ackOK}, nil
}

// handleConn runs one worker connection: handshake, then the
// request/reply message loop.
func (c *Coordinator) handleConn(conn net.Conn) {
	defer conn.Close()
	// Unblock any in-flight read when the coordinator stops.
	stop := context.AfterFunc(c.ctx, func() { conn.Close() })
	defer stop()
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	conn.SetWriteDeadline(time.Now().Add(20 * time.Second))
	name, code, err := readHello(br, c.fp)
	if err != nil {
		writeReply(conn, code, err.Error())
		return
	}
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		writeReply(conn, RejectDraining, "coordinator is draining")
		return
	}
	c.workers++
	c.lastActivity = time.Now()
	c.mu.Unlock()
	if werr := writeReply(conn, 0, ""); werr != nil {
		err = werr
	} else {
		c.logf("fleet: worker %q connected", name)
		err = c.serveWorker(conn, br)
	}
	c.mu.Lock()
	c.workers--
	c.lastActivity = time.Now()
	for id, l := range c.leases {
		if l.conn == conn {
			c.releaseLeaseLocked(id, true)
		}
	}
	if !errors.Is(err, errCleanShutdown) {
		c.col.Add(telemetry.WorkerDisconnects, 1)
		c.logf("fleet: worker %q disconnected: %v", name, err)
	}
	c.mu.Unlock()
}

// errCleanShutdown marks a worker that left through the shutdown
// handshake, not a failure.
var errCleanShutdown = errors.New("fleet: worker shut down cleanly")

// readTimeout bounds one message gap on a worker connection. It is far
// larger than the lease TTL on purpose: a silent straggler must take
// the lease-expiry path (and maybe still win speculatively), not be
// forcibly disconnected.
func (c *Coordinator) readTimeout() time.Duration {
	t := 10 * c.opt.LeaseTTL
	if t < 30*time.Second {
		t = 30 * time.Second
	}
	return t
}

func (c *Coordinator) serveWorker(conn net.Conn, br *bufio.Reader) error {
	for {
		if c.ctx.Err() != nil {
			return c.ctx.Err()
		}
		conn.SetReadDeadline(time.Now().Add(c.readTimeout()))
		kind, body, err := readMsg(br)
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.lastActivity = time.Now()
		c.mu.Unlock()
		var reply []byte
		switch kind {
		case msgReq:
			c.mu.Lock()
			reply = c.grantLocked(conn, time.Now())
			c.mu.Unlock()
		case msgHeartbeat:
			id, perr := parseUvarint(body)
			if perr != nil {
				return perr
			}
			c.mu.Lock()
			if l := c.leases[id]; l != nil && l.conn == conn {
				l.deadline = time.Now().Add(c.opt.LeaseTTL)
				reply = []byte{msgAck, ackOK}
			} else {
				// Expired or reassigned: the worker may keep computing
				// (it can still win speculatively) but must know its
				// lease is gone.
				reply = []byte{msgAck, ackRejected}
			}
			c.mu.Unlock()
		case msgResult:
			reply, err = c.handleResult(conn, body)
			if err != nil {
				return err
			}
		case msgShardDone:
			id, perr := parseUvarint(body)
			if perr != nil {
				return perr
			}
			c.mu.Lock()
			status := ackRejected
			if l := c.leases[id]; l != nil && l.conn == conn {
				if c.shardCompleteLocked(l.shard) {
					c.shardDone[l.shard] = true
					status = ackOK
				} else {
					// Some window was rejected (e.g. a corrupt result):
					// the shard goes back to the pool for re-analysis.
					c.logf("fleet: shard %d reported done but has missing windows; repooling", l.shard)
				}
				c.releaseLeaseLocked(id, status == ackRejected)
			}
			c.mu.Unlock()
			reply = []byte{msgAck, status}
		default:
			return fmt.Errorf("%w: unknown message 0x%02x", ErrProtocol, kind)
		}
		conn.SetWriteDeadline(time.Now().Add(20 * time.Second))
		if err := stream.WriteFrame(conn, reply); err != nil {
			return err
		}
		if len(reply) == 1 && reply[0] == msgShutdown {
			return errCleanShutdown
		}
	}
}
