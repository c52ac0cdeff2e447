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
	phases   [numPhases]atomic.Int64 // nanoseconds per phase
	counters [NumCounters]atomic.Int64

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

// CountOutcome tallies one solver-query outcome.
func (c *Collector) CountOutcome(o Outcome) {
	if c == nil || o > OutcomeCancelled {
		return
	}
	c.counters[QueriesSat+Counter(o)].Add(1)
}

// WindowsInFlight returns the number of windows currently being analysed.
func (c *Collector) WindowsInFlight() int64 {
	return c.Load(WindowsStarted) - c.Load(WindowsFinished)
}

// GroupsQueued returns the number of dispatched signature groups not yet
// fully handled — the live depth of the pair-scheduler queues.
func (c *Collector) GroupsQueued() int64 {
	return max(c.Load(PairGroups)-c.Load(GroupsDone), 0)
}

// SessionsActive returns the number of streaming sessions currently open;
// a session counts as finished whether it completed, failed or was
// suspended for later resume.
func (c *Collector) SessionsActive() int64 {
	return max(c.Load(SessionsStarted)-c.Load(SessionsFinished), 0)
}

// Snapshot returns the collector's current totals as a Metrics value. The
// collector may keep accumulating afterwards; the snapshot is detached.
func (c *Collector) Snapshot() *Metrics {
	if c == nil {
		return nil
	}
	n := func(k Counter) int64 { return c.counters[k].Load() }
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
			Decisions:         n(Decisions),
			Propagations:      n(Propagations),
			Conflicts:         n(Conflicts),
			Restarts:          n(Restarts),
			Learned:           n(Learned),
			TheoryProps:       n(TheoryProps),
			TheoryConflicts:   n(TheoryConflicts),
			IDLAsserts:        n(IDLAsserts),
			IDLNegativeCycles: n(IDLNegativeCycles),
			IDLRepairSteps:    n(IDLRepairSteps),
			TheoryFacts:       n(TheoryFacts),
			InternedAtoms:     n(InternedAtoms),
			TseitinVars:       n(TseitinVars),
			TseitinClauses:    n(TseitinClauses),
			BoolVars:          n(BoolVars),
			Clauses:           n(Clauses),
			IntVars:           n(IntVars),
			Solvers:           n(Solvers),
		},
		Outcomes: OutcomeTally{
			Sat:                n(QueriesSat),
			Unsat:              n(QueriesUnsat),
			Timeout:            n(QueriesTimeout),
			Cancelled:          n(QueriesCancelled),
			Enumerated:         n(Enumerated),
			QuickCheckFiltered: n(QuickCheckFiltered),
			SigDedupHits:       n(SigDedup),
			MHBFiltered:        n(MHBFiltered),
			BudgetExhausted:    n(BudgetExhausted),
			WindowFailures:     n(WindowFailures),
		},
		PairSched: PairSchedCounters{
			Groups:      n(PairGroups),
			Workers:     n(PairWorkers),
			Replicas:    n(PairReplicas),
			Rollbacks:   n(PairRollbacks),
			SigSkips:    n(PairSkips),
			WarmSkipped: n(WarmSkipped),
			QueueWaitNS: n(QueueWaitNS),
		},
		Triage: TriageCounters{
			Confirmed:      n(TriageConfirmed),
			SyncPConfirmed: n(TriageSyncPConfirmed),
			Dispatched:     n(TriageDispatched),
			SHBNS:          c.phases[PhaseSHB].Load(),
			SyncPNS:        c.phases[PhaseSyncP].Load(),
		},
		Journal: JournalCounters{
			RecordsWritten:    n(JournalRecords),
			WindowsReplayed:   n(JournalWindowsReplayed),
			Bytes:             n(JournalBytes),
			FsyncNS:           c.phases[PhaseJournalFsync].Load(),
			TornTailTruncated: n(JournalTornTails),
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
	// the pair worker count and queue timing, so they are zeroed along
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
	// because an earlier instance of their group raced. Deterministic:
	// windows are analysed in isolation, also under -parallel.
	SigSkips int64 `json:"sig_skips"`
	// WarmSkipped counts group instances whose control-flow definitions
	// the window's base encoding left out: those at or past the group's
	// first ladder-proved instance.
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
