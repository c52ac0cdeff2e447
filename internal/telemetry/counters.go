package telemetry

// Counter names one scalar counter of a Collector. Every counter is an
// atomic.Int64 in one array, read and written through Add, Load and Set.
//
// Adding a counter takes one constant here and, when /metrics exports it
// as a family of its own, one counterDefs row plus one row in the metrics
// reference of doc/observability.md (the drift guard in
// internal/introspect checks the doc). Exported counters come in /metrics
// exposition order.
type Counter uint8

// Counters. Those without a counterDefs row are read by Snapshot or by a
// derived gauge only.
const (
	// CDCL core (sat.Stats), rolled up per solver by AddSolver.
	Decisions Counter = iota
	Propagations
	Conflicts
	Restarts
	Learned
	TheoryProps
	TheoryConflicts
	WatchMoves
	UndoLogEntries
	// TheoryFacts and the rest of the encoding block mirror
	// smt.EncodeStats and the final encoding sizes; Solvers counts the
	// solvers rolled up.
	TheoryFacts
	InternedAtoms
	TseitinVars
	TseitinClauses
	BoolVars
	Clauses
	IntVars
	Solvers
	// IDL theory (idl.Stats).
	IDLAsserts
	IDLNegativeCycles
	IDLRepairSteps

	// Query outcomes, in Outcome order (CountOutcome).
	QueriesSat
	QueriesUnsat
	QueriesTimeout
	QueriesCancelled

	// Candidate funnel. SigDedup counts candidates skipped before the
	// solver because their signature was already proved earlier in the
	// run. MHBFiltered is counted by atomicity detection only: the race
	// detector's quick check already drops MHB-ordered pairs.
	Enumerated
	QuickCheckFiltered
	SigDedup
	MHBFiltered

	// Resilience: candidates skipped once the global budget ran out, and
	// window workers that panicked and were isolated.
	BudgetExhausted
	WindowFailures

	// Pair scheduler. PairGroups is deterministic; PairWorkers and
	// PairReplicas depend on the pair worker count, which GOMAXPROCS caps,
	// and PairRollbacks on which worker solved which group. PairSkips
	// counts dispatched group instances skipped at solve time because an
	// earlier instance of the group raced (kept apart from SigDedup so the
	// funnel identity is exact). WarmSkipped counts group instances whose
	// control-flow definitions a window's base encoding left out, once
	// per window whatever the worker count. QueueWaitNS is each group's
	// dispatch latency.
	PairGroups
	PairWorkers
	PairReplicas
	PairRollbacks
	PairSkips
	WarmSkipped
	QueueWaitNS

	// Triage ladder, one counter per rung that proves a pair racy, plus
	// the pairs it dispatched to the SMT scheduler.
	TriageConfirmed
	TriageSyncPConfirmed
	TriageDispatched

	// Durable journal. JournalRecords counts window records only; the
	// header is counted in JournalBytes.
	JournalRecords
	JournalWindowsReplayed
	JournalBytes
	JournalTornTails

	// Out-of-core reader (internal/tracev2). MmapBytes is a gauge (Set).
	ChunkCacheHits
	ChunkCacheMisses
	MmapBytes

	// Fleet coordinator. Fault timing is not deterministic, so none of
	// these reach Snapshot.
	LeasesGranted
	LeasesExpired
	LeasesReassigned
	SpeculativeWins
	WorkerDisconnects

	// Streaming daemon (internal/stream), /metrics only.
	SessionsRejected
	IngestBackpressureNS
	DegradedWindows

	// Inputs of the derived gauges WindowsInFlight, GroupsQueued and
	// SessionsActive.
	WindowsStarted
	WindowsFinished
	GroupsDone
	SessionsStarted
	SessionsFinished

	// NumCounters is the number of counters.
	NumCounters
)

// CounterDef is a counter's /metrics family: its name, Prometheus type
// and help text. A family whose name ends in _seconds_total holds
// nanoseconds and is exported in seconds.
type CounterDef struct {
	Name, Type, Help string
}

// Def returns k's /metrics family; its Name is empty when /metrics does
// not export k as a family of its own.
func (k Counter) Def() CounterDef { return counterDefs[k] }

var counterDefs = [NumCounters]CounterDef{
	Decisions: {"rvpredict_solver_decisions_total", "counter",
		"CDCL decisions across all solver instances."},
	Propagations: {"rvpredict_solver_propagations_total", "counter",
		"CDCL unit propagations across all solver instances."},
	Conflicts: {"rvpredict_solver_conflicts_total", "counter",
		"CDCL conflicts across all solver instances."},
	Restarts: {"rvpredict_solver_restarts_total", "counter",
		"CDCL restarts across all solver instances."},
	Learned: {"rvpredict_solver_learned_clauses_total", "counter",
		"Clauses learned across all solver instances."},
	TheoryProps: {"rvpredict_solver_theory_propagations_total", "counter",
		"IDL theory propagations across all solver instances."},
	TheoryConflicts: {"rvpredict_solver_theory_conflicts_total", "counter",
		"IDL theory conflicts across all solver instances."},
	WatchMoves: {"rvpredict_solver_watch_moves_total", "counter",
		"Watchers unit propagation moved to another literal's watch list, across all solver instances."},
	UndoLogEntries: {"rvpredict_solver_undo_log_entries_total", "counter",
		"Watch lists, clause literal orders and definition-index entries the rollback undo log recorded, across all solver instances."},
	TheoryFacts: {"rvpredict_theory_facts_total", "counter",
		"Atoms asserted as root IDL facts, with no SAT variable, across all solver instances."},
	Enumerated: {"rvpredict_candidates_enumerated_total", "counter",
		"Conflicting operation pairs enumerated."},
	QuickCheckFiltered: {"rvpredict_quick_check_filtered_total", "counter",
		"Candidates removed by the lockset/weak-HB quick check."},
	SigDedup: {"rvpredict_signature_dedup_total", "counter",
		"Candidates removed at partition time because their signature was already decided."},
	MHBFiltered: {"rvpredict_mhb_filtered_total", "counter",
		"Candidates removed by a must-happen-before pre-check."},
	BudgetExhausted: {"rvpredict_budget_exhausted_total", "counter",
		"Candidates skipped because the global wall-clock budget expired."},
	WindowFailures: {"rvpredict_window_failures_total", "counter",
		"Window workers that panicked and were isolated."},
	PairGroups: {"rvpredict_pair_groups_total", "counter",
		"Signature groups dispatched to the pair scheduler."},
	PairWorkers: {"rvpredict_pair_workers_total", "counter",
		"Pair workers that ran (coordinators included)."},
	PairReplicas: {"rvpredict_pair_replicas_total", "counter",
		"Replica window encodings built by extra pair workers."},
	PairRollbacks: {"rvpredict_pair_rollbacks_total", "counter",
		"Solver rollbacks to the checkpointed window base."},
	PairSkips: {"rvpredict_pair_skips_total", "counter",
		"Dispatched group instances skipped at solve time (verdict already decided)."},
	WarmSkipped: {"rvpredict_pair_warm_skipped_total", "counter",
		"Group instances whose control-flow definitions the window base encoding left out."},
	QueueWaitNS: {"rvpredict_pair_queue_wait_seconds_total", "counter",
		"Aggregate signature-group dispatch latency."},
	TriageConfirmed: {"rvpredict_triage_confirmed_total", "counter",
		"COPs confirmed as races by the SHB vector-clock triage tier."},
	TriageSyncPConfirmed: {"rvpredict_triage_syncp_confirmed_total", "counter",
		"COPs confirmed as races by the sync-preserving witness triage tier."},
	TriageDispatched: {"rvpredict_triage_dispatched_total", "counter",
		"COPs the triage tier passed to the SMT scheduler."},
	JournalRecords: {"rvpredict_journal_records_total", "counter",
		"Window records appended to the durable journal."},
	JournalWindowsReplayed: {"rvpredict_journal_windows_replayed_total", "counter",
		"Windows replayed from the journal on resume."},
	JournalBytes: {"rvpredict_journal_bytes_total", "counter",
		"Framed bytes written to the journal."},
	JournalTornTails: {"rvpredict_journal_torn_tails_total", "counter",
		"Torn journal tails truncated during recovery."},
	ChunkCacheHits: {"rvpredict_chunk_cache_hits_total", "counter",
		"Chunked-trace random accesses served from the decoded-chunk cache."},
	ChunkCacheMisses: {"rvpredict_chunk_cache_misses_total", "counter",
		"Chunked-trace random accesses that decoded a chunk."},
	MmapBytes: {"rvpredict_mmap_bytes", "gauge",
		"Bytes of chunked trace currently memory-mapped (0 when the reader fell back to a heap copy)."},
	LeasesGranted: {"rvpredict_fleet_leases_granted_total", "counter",
		"Shard leases granted to fleet workers (including speculative duplicates)."},
	LeasesExpired: {"rvpredict_fleet_leases_expired_total", "counter",
		"Fleet leases whose heartbeat deadline lapsed before the shard finished."},
	LeasesReassigned: {"rvpredict_fleet_leases_reassigned_total", "counter",
		"Shards re-leased to another worker after an expiry or disconnect."},
	SpeculativeWins: {"rvpredict_fleet_speculative_wins_total", "counter",
		"Window outcomes won by a speculative duplicate lease (straggler hedging paid off)."},
	WorkerDisconnects: {"rvpredict_fleet_worker_disconnects_total", "counter",
		"Fleet worker connections that ended without a clean shutdown handshake."},
	SessionsRejected: {"rvpredict_sessions_rejected_total", "counter",
		"Streaming clients turned away by admission control (session limit, busy token, draining, bad handshake)."},
	IngestBackpressureNS: {"rvpredict_ingest_backpressure_seconds_total", "counter",
		"Wall-clock time streaming ingest spent blocked waiting for an analysis slot."},
	DegradedWindows: {"rvpredict_degraded_windows_total", "counter",
		"Windows analysed in degraded mode (SMT tier shed; sound-tier verdicts only)."},
}

// Add adds n to counter k.
func (c *Collector) Add(k Counter, n int64) {
	if c == nil {
		return
	}
	c.counters[k].Add(n)
}

// Set stores n in counter k: the gauges (MmapBytes) move both ways.
func (c *Collector) Set(k Counter, n int64) {
	if c == nil {
		return
	}
	c.counters[k].Store(n)
}

// Load returns counter k's current value (0 on a nil collector).
func (c *Collector) Load(k Counter) int64 {
	if c == nil {
		return 0
	}
	return c.counters[k].Load()
}
