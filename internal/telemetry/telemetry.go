// Package telemetry instruments the detection pipeline: where the time
// goes (per phase), what the solvers did (CDCL, theory and encoding
// counters), how each conflicting-pair query ended (SAT / UNSAT / timeout /
// cancelled), and how the work distributed over trace windows.
//
// The literature is unambiguous that SMT solving dominates predictive
// race-detection cost — the linear-time lines of work (Kini et al.,
// Pavlogiannis) exist precisely because of this bottleneck — so every
// future performance change to this repository (sharding, incremental
// solving, window-parallelism tuning) needs numbers to regress against.
// This package provides them without perturbing what it measures:
//
//   - Collector is a set of atomic counters safe under
//     core.Options.Parallelism > 1. All methods are nil-receiver safe: a
//     nil *Collector is the disabled state, and every record call returns
//     immediately without reading the clock, so the instrumented code path
//     costs nothing measurable when telemetry is off.
//   - Span (spans.go) marks every stage boundary: one span feeds the
//     phase totals, the -trace-out timeline and the live -progress lines.
//   - Metrics is the machine-readable snapshot (stable JSON field names)
//     exposed on rvpredict.Report and by cmd/rvpredict -json and
//     cmd/table1 -json.
//
// Only timing fields vary between runs; every count in Metrics is
// deterministic for a sequential run, and enabling telemetry never changes
// a detector's reported result set (asserted by the determinism tests in
// internal/core).
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sat"
)

// Phase identifies one stage of the detection pipeline.
type Phase uint8

// Pipeline phases, in pipeline order.
const (
	// PhaseTraceScan is the initial trace statistics/metadata scan.
	PhaseTraceScan Phase = iota
	// PhaseEnumerate is conflicting-pair (or candidate) enumeration.
	PhaseEnumerate
	// PhaseMHB is must-happen-before computation (vector clocks over the
	// window), the input to both the quick-check prefilter and Φ_mhb.
	PhaseMHB
	// PhaseQuickCheck is the hybrid lockset/weak-HB prefilter.
	PhaseQuickCheck
	// PhaseEncode is constraint generation (Φ_mhb, Φ_lock, cf, queries).
	PhaseEncode
	// PhaseSolve is DPLL(T) solving.
	PhaseSolve
	// PhaseWitness is witness-schedule reconstruction from models.
	PhaseWitness
	// PhaseRollback is restoring a window solver to its checkpointed base
	// before a pair-scheduler signature group (it runs between encode and
	// solve; it is last only so the other phases keep their numbers).
	PhaseRollback
	// PhaseSHB is the triage ladder's SHB rung: its clock pass and
	// per-pair checks, nested in the quick check (reported as
	// triage.shb_ns; with PhaseSyncP it makes triage.fast_path_ns).
	PhaseSHB
	// PhaseJournalFsync is the durable journal's fsyncs (reported as
	// journal.fsync_ns).
	PhaseJournalFsync
	// PhaseOther is the run span's own time: whatever no other phase
	// covers, so the phases of a run add up to its elapsed time.
	PhaseOther
	// PhaseSyncP is the triage ladder's sync-preserving witness rung over
	// the pairs the SHB rung left, nested in the quick check (reported as
	// triage.syncp_ns; last only so the other phases keep their numbers).
	PhaseSyncP

	numPhases

	// NoPhase marks a structural span (a window, a pair group, a query)
	// whose time stays with the enclosing phase span or the run.
	NoPhase Phase = 255
)

// String returns the phase's stable lower-case name (the JSON vocabulary).
func (p Phase) String() string {
	switch p {
	case PhaseTraceScan:
		return "trace_scan"
	case PhaseEnumerate:
		return "cop_enumeration"
	case PhaseMHB:
		return "mhb"
	case PhaseQuickCheck:
		return "quick_check"
	case PhaseEncode:
		return "encode"
	case PhaseSolve:
		return "solve"
	case PhaseWitness:
		return "witness"
	case PhaseRollback:
		return "rollback"
	case PhaseSHB:
		return "shb"
	case PhaseJournalFsync:
		return "journal_fsync"
	case PhaseOther:
		return "other"
	case PhaseSyncP:
		return "syncp"
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Outcome classifies how one solver query (one COP, deadlock candidate or
// atomicity candidate) ended.
type Outcome uint8

// Query outcomes.
const (
	// OutcomeSat: the query is satisfiable — a real race/deadlock/violation.
	OutcomeSat Outcome = iota
	// OutcomeUnsat: proven infeasible.
	OutcomeUnsat
	// OutcomeTimeout: the wall-clock solve deadline expired.
	OutcomeTimeout
	// OutcomeCancelled: the run's context was cancelled mid-solve.
	OutcomeCancelled
)

// String returns the outcome's stable lower-case name.
func (o Outcome) String() string {
	switch o {
	case OutcomeSat:
		return "sat"
	case OutcomeUnsat:
		return "unsat"
	case OutcomeTimeout:
		return "timeout"
	case OutcomeCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Aborted reports whether the outcome is an abort (timeout or
// cancellation) rather than a verdict.
func (o Outcome) Aborted() bool {
	return o == OutcomeTimeout || o == OutcomeCancelled
}

// Collector accumulates pipeline metrics. A nil *Collector is the disabled
// state: every method returns immediately. Construct with NewCollector;
// the zero value is also usable. All methods are safe for concurrent use.
type Collector struct {
	phases [numPhases]atomic.Int64 // nanoseconds per phase

	// CDCL core counters (rolled up from sat.Stats per solver).
	decisions    atomic.Int64
	propagations atomic.Int64
	conflicts    atomic.Int64
	restarts     atomic.Int64
	learned      atomic.Int64
	theoryProps  atomic.Int64
	theoryConfl  atomic.Int64

	// IDL theory counters (mirrored by idl.Stats).
	idlAsserts   atomic.Int64
	idlNegCycles atomic.Int64
	idlRepairs   atomic.Int64

	// Encoding counters (mirrored by smt.EncodeStats) and sizes.
	theoryFacts    atomic.Int64
	internedAtoms  atomic.Int64
	tseitinVars    atomic.Int64
	tseitinClauses atomic.Int64
	boolVars       atomic.Int64
	clauses        atomic.Int64
	intVars        atomic.Int64
	solvers        atomic.Int64

	// Query outcome tallies.
	outSat       atomic.Int64
	outUnsat     atomic.Int64
	outTime      atomic.Int64
	outCancelled atomic.Int64

	// Resilience tallies: global-budget exhaustion and recovered
	// window-worker panics.
	budgetExhausted atomic.Int64
	windowFailures  atomic.Int64

	// Pipeline funnel tallies.
	enumerated    atomic.Int64
	quickFiltered atomic.Int64
	sigDedups     atomic.Int64
	mhbFiltered   atomic.Int64

	// Pair-scheduler tallies (intra-window parallel COP solving).
	pairGroups    atomic.Int64
	pairWorkers   atomic.Int64
	pairReplicas  atomic.Int64
	pairRollbacks atomic.Int64
	pairSkips     atomic.Int64
	warmSkipped   atomic.Int64
	queueWait     atomic.Int64

	// Live gauges (never part of the Metrics snapshot: they describe the
	// instant, not the run, and are read by the introspection server).
	windowsStarted  atomic.Int64
	windowsFinished atomic.Int64
	groupsDone      atomic.Int64

	// Streaming-daemon tallies (internal/stream): session lifecycle,
	// admission rejects, ingest time lost to solver backpressure, and
	// windows that shed the SMT tier under sustained pressure. Like the
	// live gauges above they feed the introspection server only.
	sessionsStarted  atomic.Int64
	sessionsFinished atomic.Int64
	sessionsRejected atomic.Int64
	backpressureNS   atomic.Int64
	degradedWindows  atomic.Int64

	// Triage-tier tallies (sound fast paths before SMT, per ladder rung).
	triConfirmed   atomic.Int64
	triSPConfirmed atomic.Int64
	triDispatched  atomic.Int64

	// Durable-journal tallies (internal/journal).
	journalRecords  atomic.Int64
	journalBytes    atomic.Int64
	journalReplayed atomic.Int64
	journalTorn     atomic.Int64

	// Out-of-core reader tallies (internal/tracev2).
	chunkCacheHits   atomic.Int64
	chunkCacheMisses atomic.Int64
	mmapBytes        atomic.Int64

	// Fleet tallies (internal/fleet): lease lifecycle and worker-fault
	// accounting of the distributed shard coordinator. Introspection
	// only, like the daemon tallies above — fault timing is
	// non-deterministic, so none of these may reach the Metrics
	// snapshot the identity tests compare.
	leasesGranted     atomic.Int64
	leasesExpired     atomic.Int64
	leasesReassigned  atomic.Int64
	speculativeWins   atomic.Int64
	workerDisconnects atomic.Int64

	// spans is the optionally attached span recorder, root the open run
	// span (spans.go).
	spans atomic.Pointer[SpanRecorder]
	root  atomic.Pointer[Span]

	mu      sync.Mutex
	windows []WindowRecord
}

// NewCollector returns an empty, enabled collector.
func NewCollector() *Collector { return &Collector{} }

// Enabled reports whether the collector records anything (i.e. is
// non-nil). Detectors use it to skip work that only feeds telemetry.
func (c *Collector) Enabled() bool { return c != nil }

// AddSAT rolls the CDCL core counters of one solver into the collector.
// Call it once per solver lifetime (the per-window shared solver, or each
// per-query solver on the ablation paths) — sat.Stats counters are
// cumulative, so adding a live solver twice double-counts.
func (c *Collector) AddSAT(st sat.Stats) {
	if c == nil {
		return
	}
	c.decisions.Add(st.Decisions)
	c.propagations.Add(st.Propagations)
	c.conflicts.Add(st.Conflicts)
	c.restarts.Add(st.Restarts)
	c.learned.Add(st.Learned)
	c.theoryProps.Add(st.TheoryProps)
	c.theoryConfl.Add(st.TheoryConfl)
}

// AddIDL rolls up the IDL theory counters of one solver (see idl.Stats;
// the parameters mirror its fields to keep this package free of an idl
// import cycle risk — idl must stay importable by sat-level code).
func (c *Collector) AddIDL(asserts, negCycles, repairSteps int64) {
	if c == nil {
		return
	}
	c.idlAsserts.Add(asserts)
	c.idlNegCycles.Add(negCycles)
	c.idlRepairs.Add(repairSteps)
}

// AddEncoding rolls up one solver's encoding counters: root theory facts,
// interned IDL atoms, Tseitin auxiliary variables and clauses (see
// smt.EncodeStats), and the final encoding sizes (boolean variables,
// problem clauses, integer variables).
func (c *Collector) AddEncoding(facts, atoms, tvars, tclauses, boolVars, clauses, intVars int64) {
	if c == nil {
		return
	}
	c.theoryFacts.Add(facts)
	c.internedAtoms.Add(atoms)
	c.tseitinVars.Add(tvars)
	c.tseitinClauses.Add(tclauses)
	c.boolVars.Add(boolVars)
	c.clauses.Add(clauses)
	c.intVars.Add(intVars)
	c.solvers.Add(1)
}

// CountOutcome tallies one solver-query outcome.
func (c *Collector) CountOutcome(o Outcome) {
	if c == nil {
		return
	}
	switch o {
	case OutcomeSat:
		c.outSat.Add(1)
	case OutcomeUnsat:
		c.outUnsat.Add(1)
	case OutcomeTimeout:
		c.outTime.Add(1)
	case OutcomeCancelled:
		c.outCancelled.Add(1)
	}
}

// CountBudgetExhausted tallies one candidate skipped (not solved)
// because the run's global wall-clock budget was exhausted.
func (c *Collector) CountBudgetExhausted() {
	if c == nil {
		return
	}
	c.budgetExhausted.Add(1)
}

// CountWindowFailure tallies one window worker that panicked and was
// isolated (its window's results are lost, the run continued).
func (c *Collector) CountWindowFailure() {
	if c == nil {
		return
	}
	c.windowFailures.Add(1)
}

// CountEnumerated tallies n enumerated candidates (COPs, inversions,
// triples).
func (c *Collector) CountEnumerated(n int) {
	if c == nil {
		return
	}
	c.enumerated.Add(int64(n))
}

// CountQuickCheckFiltered tallies n candidates removed by the hybrid
// quick-check prefilter.
func (c *Collector) CountQuickCheckFiltered(n int) {
	if c == nil {
		return
	}
	c.quickFiltered.Add(int64(n))
}

// CountSigDedup tallies n candidates skipped because their signature was
// already decided (seen-set hit, shared parallel verdict, or per-signature
// attempt budget).
func (c *Collector) CountSigDedup(n int) {
	if c == nil {
		return
	}
	c.sigDedups.Add(int64(n))
}

// CountMHBFiltered tallies one candidate discarded by a must-happen-before
// pre-check without reaching the solver.
func (c *Collector) CountMHBFiltered() {
	if c == nil {
		return
	}
	c.mhbFiltered.Add(1)
}

// CountPairGroups tallies n signature groups dispatched by the pair
// scheduler (one group per distinct signature surviving the prefilters in
// one window). Groups is deterministic — it depends only on the trace and
// the options, never on worker timing.
func (c *Collector) CountPairGroups(n int) {
	if c == nil {
		return
	}
	c.pairGroups.Add(int64(n))
}

// CountPairWorker tallies one pair worker that actually ran for a window
// (including the coordinator when it solves inline). The count depends on
// the global worker budget at window start, so it varies between runs.
func (c *Collector) CountPairWorker() {
	if c == nil {
		return
	}
	c.pairWorkers.Add(1)
}

// CountPairReplica tallies one replica window encoding built for an extra
// pair worker (base Φ_mhb + Φ_lock + CF definitions, rebuilt per worker).
func (c *Collector) CountPairReplica() {
	if c == nil {
		return
	}
	c.pairReplicas.Add(1)
}

// CountPairRollback tallies one solver rollback to the window's
// checkpointed base encoding (between signature groups).
func (c *Collector) CountPairRollback() {
	if c == nil {
		return
	}
	c.pairRollbacks.Add(1)
}

// CountWarmSkipped tallies n group instances whose control-flow
// definitions a window's base encoding left out, counted once per window
// however many replicas it builds.
func (c *Collector) CountWarmSkipped(n int) {
	if c == nil {
		return
	}
	c.warmSkipped.Add(int64(n))
}

// CountPairSkip tallies one dispatched signature-group instance skipped at
// solve time because the group's verdict was already decided (an earlier
// instance raced, a cross-slice shared verdict arrived, or the signature's
// attempt budget ran out between dispatch and dequeue). Distinct from
// CountSigDedup, which counts candidates deduplicated at partition time:
// keeping the two apart is what makes the candidate funnel identity exact
// (enumerated = filtered + deduped + confirmed + dispatched).
func (c *Collector) CountPairSkip() {
	if c == nil {
		return
	}
	c.pairSkips.Add(1)
}

// WindowsInFlight returns the number of windows currently being analysed.
func (c *Collector) WindowsInFlight() int64 {
	if c == nil {
		return 0
	}
	return c.windowsStarted.Load() - c.windowsFinished.Load()
}

// CountGroupDone marks one dispatched signature group fully handled
// (solved, skipped, or abandoned); GroupsQueued derives the live queue
// depth from it.
func (c *Collector) CountGroupDone() {
	if c == nil {
		return
	}
	c.groupsDone.Add(1)
}

// GroupsQueued returns the number of dispatched signature groups not yet
// fully handled — the live depth of the pair-scheduler queues.
func (c *Collector) GroupsQueued() int64 {
	if c == nil {
		return 0
	}
	n := c.pairGroups.Load() - c.groupsDone.Load()
	if n < 0 {
		return 0
	}
	return n
}

// CountSessionStarted / CountSessionFinished move the sessions-active
// gauge of the streaming daemon; a session counts as finished whether it
// completed, failed or was suspended for later resume.
func (c *Collector) CountSessionStarted() {
	if c == nil {
		return
	}
	c.sessionsStarted.Add(1)
}

// CountSessionFinished marks one streaming session no longer active.
func (c *Collector) CountSessionFinished() {
	if c == nil {
		return
	}
	c.sessionsFinished.Add(1)
}

// SessionsActive returns the number of streaming sessions currently open.
func (c *Collector) SessionsActive() int64 {
	if c == nil {
		return 0
	}
	n := c.sessionsStarted.Load() - c.sessionsFinished.Load()
	if n < 0 {
		return 0
	}
	return n
}

// CountSessionRejected tallies one client turned away by admission
// control (session limit reached, bad handshake, or drain in progress).
func (c *Collector) CountSessionRejected() {
	if c == nil {
		return
	}
	c.sessionsRejected.Add(1)
}

// SessionsRejected returns the admission-reject tally.
func (c *Collector) SessionsRejected() int64 {
	if c == nil {
		return 0
	}
	return c.sessionsRejected.Load()
}

// AddIngestBackpressure accumulates wall-clock time a session's ingest
// loop spent blocked because the solver queue was full — the time TCP
// backpressure was being exerted on the client.
func (c *Collector) AddIngestBackpressure(d time.Duration) {
	if c == nil {
		return
	}
	c.backpressureNS.Add(int64(d))
}

// IngestBackpressureNS returns the accumulated ingest backpressure time.
func (c *Collector) IngestBackpressureNS() int64 {
	if c == nil {
		return 0
	}
	return c.backpressureNS.Load()
}

// CountDegradedWindow tallies one window analysed in degraded mode (SMT
// tier shed under sustained pressure; sound-tier verdicts only).
func (c *Collector) CountDegradedWindow() {
	if c == nil {
		return
	}
	c.degradedWindows.Add(1)
}

// DegradedWindows returns the degraded-window tally.
func (c *Collector) DegradedWindows() int64 {
	if c == nil {
		return 0
	}
	return c.degradedWindows.Load()
}

// AddQueueWait accumulates one signature group's dispatch latency: the
// wall-clock time from the window's queue opening until a worker dequeued
// the group.
func (c *Collector) AddQueueWait(d time.Duration) {
	if c == nil {
		return
	}
	c.queueWait.Add(int64(d))
}

// CountTriageConfirmed tallies one COP the triage ladder soundly proves
// racy, so its solver query may be skipped, attributed to the cheapest
// rung that proves it: "shb" (epoch/clock fast path) or "syncp"
// (sync-preserving witness). Unknown tiers count as "shb" defensively.
func (c *Collector) CountTriageConfirmed(tier string) {
	if c == nil {
		return
	}
	if tier == "syncp" {
		c.triSPConfirmed.Add(1)
	} else {
		c.triConfirmed.Add(1)
	}
}

// CountTriageDispatched tallies one COP the triage ladder could not
// prove — or, under the NoQuickCheck ablation, a quick-check failure it
// never classifies — dispatched to the SMT pair scheduler unchanged.
func (c *Collector) CountTriageDispatched() {
	if c == nil {
		return
	}
	c.triDispatched.Add(1)
}

// CountJournalWrite tallies one write to the durable window journal:
// records is 1 for a window record, 0 for the header, and bytes the
// framed size written.
func (c *Collector) CountJournalWrite(records int, bytes int) {
	if c == nil {
		return
	}
	c.journalRecords.Add(int64(records))
	c.journalBytes.Add(int64(bytes))
}

// CountWindowReplayed tallies one window whose journaled outcome was
// replayed on resume instead of being re-analysed — the window issued no
// solver queries this run.
func (c *Collector) CountWindowReplayed() {
	if c == nil {
		return
	}
	c.journalReplayed.Add(1)
}

// CountChunkCacheHit tallies one random-access event lookup served from
// an already-decoded chunk (internal/tracev2's report-rendering path).
func (c *Collector) CountChunkCacheHit() {
	if c == nil {
		return
	}
	c.chunkCacheHits.Add(1)
}

// CountChunkCacheMiss tallies one random-access lookup that had to
// decode its chunk from the mapped file.
func (c *Collector) CountChunkCacheMiss() {
	if c == nil {
		return
	}
	c.chunkCacheMisses.Add(1)
}

// ChunkCacheHits returns the chunk-cache hit tally.
func (c *Collector) ChunkCacheHits() int64 {
	if c == nil {
		return 0
	}
	return c.chunkCacheHits.Load()
}

// ChunkCacheMisses returns the chunk-cache miss tally.
func (c *Collector) ChunkCacheMisses() int64 {
	if c == nil {
		return 0
	}
	return c.chunkCacheMisses.Load()
}

// SetMmapBytes records the bytes of trace file currently mapped into
// the address space (0 when the reader fell back to an in-memory read).
func (c *Collector) SetMmapBytes(n int64) {
	if c == nil {
		return
	}
	c.mmapBytes.Store(n)
}

// MmapBytes returns the mapped trace bytes gauge.
func (c *Collector) MmapBytes() int64 {
	if c == nil {
		return 0
	}
	return c.mmapBytes.Load()
}

// CountLeaseGranted tallies one window-shard lease handed to a fleet
// worker (speculative re-executions included).
func (c *Collector) CountLeaseGranted() {
	if c == nil {
		return
	}
	c.leasesGranted.Add(1)
}

// LeasesGranted returns the granted-lease tally.
func (c *Collector) LeasesGranted() int64 {
	if c == nil {
		return 0
	}
	return c.leasesGranted.Load()
}

// CountLeaseExpired tallies one lease whose deadline lapsed without a
// renewing heartbeat (worker stalled, crashed or disconnected).
func (c *Collector) CountLeaseExpired() {
	if c == nil {
		return
	}
	c.leasesExpired.Add(1)
}

// LeasesExpired returns the expired-lease tally.
func (c *Collector) LeasesExpired() int64 {
	if c == nil {
		return 0
	}
	return c.leasesExpired.Load()
}

// CountLeaseReassigned tallies one shard put back on the pending queue
// for another worker after its lease expired or its worker vanished.
func (c *Collector) CountLeaseReassigned() {
	if c == nil {
		return
	}
	c.leasesReassigned.Add(1)
}

// LeasesReassigned returns the reassigned-lease tally.
func (c *Collector) LeasesReassigned() int64 {
	if c == nil {
		return 0
	}
	return c.leasesReassigned.Load()
}

// CountSpeculativeWin tallies one window whose first valid result came
// from a speculative re-execution lease rather than the original one.
func (c *Collector) CountSpeculativeWin() {
	if c == nil {
		return
	}
	c.speculativeWins.Add(1)
}

// SpeculativeWins returns the speculative-win tally.
func (c *Collector) SpeculativeWins() int64 {
	if c == nil {
		return 0
	}
	return c.speculativeWins.Load()
}

// CountWorkerDisconnect tallies one fleet worker connection lost before
// the coordinator released it.
func (c *Collector) CountWorkerDisconnect() {
	if c == nil {
		return
	}
	c.workerDisconnects.Add(1)
}

// WorkerDisconnects returns the lost-worker tally.
func (c *Collector) WorkerDisconnects() int64 {
	if c == nil {
		return 0
	}
	return c.workerDisconnects.Load()
}

// CountTornTailTruncated tallies one torn journal tail (truncated or
// corrupt final region) detected and truncated away during recovery.
func (c *Collector) CountTornTailTruncated() {
	if c == nil {
		return
	}
	c.journalTorn.Add(1)
}

// Snapshot returns the collector's current totals as a Metrics value. The
// collector may keep accumulating afterwards; the snapshot is detached.
func (c *Collector) Snapshot() *Metrics {
	if c == nil {
		return nil
	}
	m := &Metrics{
		Phases: PhaseNanos{
			TraceScan:  c.phases[PhaseTraceScan].Load(),
			Enumerate:  c.phases[PhaseEnumerate].Load(),
			MHB:        c.phases[PhaseMHB].Load(),
			QuickCheck: c.phases[PhaseQuickCheck].Load(),
			Encode:     c.phases[PhaseEncode].Load(),
			Solve:      c.phases[PhaseSolve].Load(),
			Witness:    c.phases[PhaseWitness].Load(),
			Rollback:   c.phases[PhaseRollback].Load(),
			Other:      c.phases[PhaseOther].Load(),
		},
		Solver: SolverCounters{
			Decisions:         c.decisions.Load(),
			Propagations:      c.propagations.Load(),
			Conflicts:         c.conflicts.Load(),
			Restarts:          c.restarts.Load(),
			Learned:           c.learned.Load(),
			TheoryProps:       c.theoryProps.Load(),
			TheoryConflicts:   c.theoryConfl.Load(),
			IDLAsserts:        c.idlAsserts.Load(),
			IDLNegativeCycles: c.idlNegCycles.Load(),
			IDLRepairSteps:    c.idlRepairs.Load(),
			TheoryFacts:       c.theoryFacts.Load(),
			InternedAtoms:     c.internedAtoms.Load(),
			TseitinVars:       c.tseitinVars.Load(),
			TseitinClauses:    c.tseitinClauses.Load(),
			BoolVars:          c.boolVars.Load(),
			Clauses:           c.clauses.Load(),
			IntVars:           c.intVars.Load(),
			Solvers:           c.solvers.Load(),
		},
		Outcomes: OutcomeTally{
			Sat:                c.outSat.Load(),
			Unsat:              c.outUnsat.Load(),
			Timeout:            c.outTime.Load(),
			Cancelled:          c.outCancelled.Load(),
			Enumerated:         c.enumerated.Load(),
			QuickCheckFiltered: c.quickFiltered.Load(),
			SigDedupHits:       c.sigDedups.Load(),
			MHBFiltered:        c.mhbFiltered.Load(),
			BudgetExhausted:    c.budgetExhausted.Load(),
			WindowFailures:     c.windowFailures.Load(),
		},
		PairSched: PairSchedCounters{
			Groups:      c.pairGroups.Load(),
			Workers:     c.pairWorkers.Load(),
			Replicas:    c.pairReplicas.Load(),
			Rollbacks:   c.pairRollbacks.Load(),
			SigSkips:    c.pairSkips.Load(),
			WarmSkipped: c.warmSkipped.Load(),
			QueueWaitNS: c.queueWait.Load(),
		},
		Triage: TriageCounters{
			Confirmed:      c.triConfirmed.Load(),
			SyncPConfirmed: c.triSPConfirmed.Load(),
			Dispatched:     c.triDispatched.Load(),
			SHBNS:          c.phases[PhaseSHB].Load(),
			SyncPNS:        c.phases[PhaseSyncP].Load(),
		},
		Journal: JournalCounters{
			RecordsWritten:    c.journalRecords.Load(),
			WindowsReplayed:   c.journalReplayed.Load(),
			Bytes:             c.journalBytes.Load(),
			FsyncNS:           c.phases[PhaseJournalFsync].Load(),
			TornTailTruncated: c.journalTorn.Load(),
		},
	}
	m.Triage.FastPathNS = m.Triage.SHBNS + m.Triage.SyncPNS
	m.Outcomes.Solved = m.Outcomes.Sat + m.Outcomes.Unsat +
		m.Outcomes.Timeout + m.Outcomes.Cancelled

	c.mu.Lock()
	m.Windows = append([]WindowRecord(nil), c.windows...)
	c.mu.Unlock()
	sort.Slice(m.Windows, func(i, j int) bool {
		return m.Windows[i].Offset < m.Windows[j].Offset
	})
	for i := range m.Windows {
		m.Windows[i].Index = i
	}
	m.WindowCount = len(m.Windows)
	return m
}

// Metrics is the machine-readable telemetry snapshot. Field names are
// stable: they are the contract of cmd/rvpredict -json and cmd/table1
// -json, tracked across PRs to follow the performance trajectory.
//
// All durations are integer nanoseconds so the structure round-trips
// losslessly through encoding/json. Only the *_ns fields and WindowRecord
// elapsed times vary between runs; every other field is deterministic for
// a sequential run.
type Metrics struct {
	Phases      PhaseNanos        `json:"phases"`
	Solver      SolverCounters    `json:"solver"`
	Outcomes    OutcomeTally      `json:"outcomes"`
	PairSched   PairSchedCounters `json:"pair_scheduler"`
	Triage      TriageCounters    `json:"triage"`
	Journal     JournalCounters   `json:"journal"`
	WindowCount int               `json:"window_count"`
	Windows     []WindowRecord    `json:"windows,omitempty"`
}

// NonTiming returns a copy of m with every timing field zeroed — the
// deterministic remainder used by regression and determinism tests.
func (m *Metrics) NonTiming() Metrics {
	out := *m
	out.Phases = PhaseNanos{}
	// Groups is deterministic, but worker/replica/rollback counts depend on
	// the global worker budget and queue timing, so they are zeroed along
	// with the queue-wait clock.
	out.PairSched.Workers = 0
	out.PairSched.Replicas = 0
	out.PairSched.Rollbacks = 0
	out.PairSched.QueueWaitNS = 0
	out.Triage.FastPathNS = 0
	out.Triage.SHBNS = 0
	out.Triage.SyncPNS = 0
	// The journal block describes this run's persistence activity, not the
	// detection result: a resumed run legitimately differs from a clean one
	// (that is the point), and bytes/fsync time vary with group commit.
	out.Journal = JournalCounters{}
	out.Windows = append([]WindowRecord(nil), m.Windows...)
	for i := range out.Windows {
		out.Windows[i].ElapsedNS = 0
	}
	return out
}

// PhaseNanos is cumulative exclusive wall-clock time per pipeline phase,
// in nanoseconds: a phase excludes the phases nested in it. On a
// sequential run these fields plus triage.fast_path_ns and
// journal.fsync_ns add up to the run's elapsed time, Other being the
// part no other phase covers. Parallel windows and pair workers
// accumulate concurrently, so there the phases can exceed the elapsed
// time and Other, floored at 0, is a lower bound.
type PhaseNanos struct {
	TraceScan  int64 `json:"trace_scan_ns"`
	Enumerate  int64 `json:"cop_enumeration_ns"`
	MHB        int64 `json:"mhb_ns"`
	QuickCheck int64 `json:"quick_check_ns"`
	Encode     int64 `json:"encode_ns"`
	Solve      int64 `json:"solve_ns"`
	Witness    int64 `json:"witness_ns"`
	Rollback   int64 `json:"rollback_ns"`
	Other      int64 `json:"other_ns"`
}

// Total returns the summed phase time, Other included.
func (p PhaseNanos) Total() time.Duration {
	return time.Duration(p.TraceScan + p.Enumerate + p.MHB + p.QuickCheck +
		p.Encode + p.Solve + p.Witness + p.Rollback + p.Other)
}

// PairSchedCounters describes the intra-window pair scheduler: how many
// signature groups were dispatched, how many workers and replica encodings
// served them, and the aggregate queue-wait. Groups is deterministic; the
// other fields vary with scheduling and are excluded from NonTiming.
type PairSchedCounters struct {
	Groups    int64 `json:"groups"`
	Workers   int64 `json:"workers"`
	Replicas  int64 `json:"replicas"`
	Rollbacks int64 `json:"rollbacks"`
	// SigSkips counts dispatched group instances skipped at solve time
	// because their signature's verdict was already decided. Deterministic
	// for sequential and pair-parallel runs; under window parallelism the
	// cross-slice verdict share makes it timing-dependent.
	SigSkips int64 `json:"sig_skips"`
	// WarmSkipped counts group instances within their attempt budget
	// whose control-flow definitions the window's base encoding left out:
	// those at or past the group's first ladder-proved instance.
	// Deterministic, counted once per window whatever the worker count.
	WarmSkipped int64 `json:"warm_skipped"`
	QueueWaitNS int64 `json:"queue_wait_ns"`
}

// TriageCounters describes the sound triage ladder that runs before the
// pair scheduler, one counter per rung: Confirmed COPs were proven races
// by the SHB epoch/clock fast path alone (no solver query unless a
// witness was requested), SyncPConfirmed by the sync-preserving witness
// check, and Dispatched COPs went to the SMT scheduler unchanged. The counts are
// deterministic (classification happens in canonical order before
// dispatch, attributed to the cheapest rung that proves the pair);
// FastPathNS is the ladder's wall-clock cost, SHBNS and SyncPNS its two
// rungs' shares of it, all excluded from NonTiming.
type TriageCounters struct {
	Confirmed      int64 `json:"confirmed"`
	SyncPConfirmed int64 `json:"syncp_confirmed"`
	Dispatched     int64 `json:"dispatched"`
	FastPathNS     int64 `json:"fast_path_ns"`
	SHBNS          int64 `json:"shb_ns"`
	SyncPNS        int64 `json:"syncp_ns"`
}

// JournalCounters describes the durable window journal's activity:
// records written (window records only — the header is counted in Bytes
// but not RecordsWritten), windows replayed from the journal on resume,
// total framed bytes written, cumulative fsync wall-clock, and torn tails
// truncated during recovery. Excluded from NonTiming wholesale: a resumed
// run's journal block is expected to differ from a clean run's.
type JournalCounters struct {
	RecordsWritten    int64 `json:"records_written"`
	WindowsReplayed   int64 `json:"windows_replayed"`
	Bytes             int64 `json:"bytes"`
	FsyncNS           int64 `json:"fsync_ns"`
	TornTailTruncated int64 `json:"torn_tail_truncated"`
}

// SolverCounters aggregates the solver-stack counters over every solver
// the run constructed: the CDCL core (sat.Stats), the IDL theory
// (idl.Stats) and the formula encoder (smt.EncodeStats), plus final
// encoding sizes.
type SolverCounters struct {
	// CDCL core (sat.Stats).
	Decisions       int64 `json:"decisions"`
	Propagations    int64 `json:"propagations"`
	Conflicts       int64 `json:"conflicts"`
	Restarts        int64 `json:"restarts"`
	Learned         int64 `json:"learned_clauses"`
	TheoryProps     int64 `json:"theory_propagations"`
	TheoryConflicts int64 `json:"theory_conflicts"`
	// IDL theory (idl.Stats).
	IDLAsserts        int64 `json:"idl_atom_assertions"`
	IDLNegativeCycles int64 `json:"idl_negative_cycles"`
	IDLRepairSteps    int64 `json:"idl_repair_steps"`
	// Encoder (smt.EncodeStats) and encoding sizes.
	TheoryFacts    int64 `json:"theory_facts"`
	InternedAtoms  int64 `json:"interned_atoms"`
	TseitinVars    int64 `json:"tseitin_vars"`
	TseitinClauses int64 `json:"tseitin_clauses"`
	BoolVars       int64 `json:"bool_vars"`
	Clauses        int64 `json:"clauses"`
	IntVars        int64 `json:"int_vars"`
	// Solvers is how many solver instances contributed to the sizes above.
	Solvers int64 `json:"solvers"`
}

// OutcomeTally is the candidate funnel: how many candidates were
// enumerated, how many each prefilter removed, how every solver query
// ended, and how the run degraded (timeouts, budget exhaustion, cancelled
// queries, isolated window panics). Solved counts solver queries, one per
// pair that reached the solver; the degraded-outcome fields make every soundness-relevant gap — a pair not
// decided sat/unsat, a window lost to a panic — visible in the JSON
// output rather than silent.
type OutcomeTally struct {
	Enumerated         int64 `json:"candidates_enumerated"`
	QuickCheckFiltered int64 `json:"quick_check_filtered"`
	SigDedupHits       int64 `json:"signature_dedup_hits"`
	MHBFiltered        int64 `json:"mhb_filtered"`
	Solved             int64 `json:"queries_solved"`
	Sat                int64 `json:"sat"`
	Unsat              int64 `json:"unsat"`
	Timeout            int64 `json:"timeout"`
	// Cancelled counts queries aborted by context cancellation.
	Cancelled int64 `json:"cancelled"`
	// BudgetExhausted counts candidates skipped outright because the
	// run's global wall-clock budget was exhausted.
	BudgetExhausted int64 `json:"budget_exhausted"`
	// WindowFailures counts window workers that panicked and were
	// isolated (see the report's window_failures list for coordinates).
	WindowFailures int64 `json:"window_failures"`
}

// WindowRecord summarises one analysis window.
type WindowRecord struct {
	// Index is the window's position in trace order (assigned by
	// Snapshot); Offset is the index of its first event in the input
	// trace.
	Index  int `json:"index"`
	Offset int `json:"offset"`
	// Events is the window length; Candidates the enumerated candidate
	// count; Solved the solver queries issued; Findings the
	// races/deadlocks/violations attributed to the window.
	Events     int `json:"events"`
	Candidates int `json:"candidates"`
	Solved     int `json:"solved"`
	Findings   int `json:"findings"`
	// ElapsedNS is the window's wall-clock analysis time.
	ElapsedNS int64 `json:"elapsed_ns"`
}
