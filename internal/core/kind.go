package core

import (
	"repro/internal/encode"
	"repro/internal/smt"
	"repro/internal/telemetry"
	"repro/internal/vc"
	"repro/trace"
)

// Kind is a property the Runner checks window by window. The paper's
// Section 2.5 makes the maximal causal model a model for any property,
// not only races: a kind supplies what is particular to its property,
// and the Runner owns everything else (windowing, cancellation, the
// global budget, panic isolation, fault points, spans, the funnel
// counters, signature dedup and the in-order merge).
//
// C is one candidate instance, S its static signature (the dedup key: a
// run reports one finding per signature) and F the report entry of a
// finding. Races are the kind built into this package (NewRunner);
// internal/deadlock and internal/atomicity supply the other two.
type Kind[C any, S comparable, F any] interface {
	// Partition enumerates the window's candidates in canonical order
	// and groups those whose signature is not in seen (nil when the
	// window is analysed Isolated) by signature, in order of each
	// group's first instance. Every enumerated candidate is tallied in
	// exactly one bin of fn. It also returns the window's
	// must-happen-before relation if it computed one, which a kind
	// computes only for a window with unseen candidates; the window
	// solver reuses it and the Runner releases it.
	Partition(wspan *telemetry.Span, w *trace.Trace, seen map[S]bool, fn *Funnel) ([]*Group[C, S], *vc.MHB)
	// Base asserts the window base beyond Φ_mhb, which the Runner has
	// asserted, and returns the window encoding's query hooks. It is
	// called once per window solver, before the checkpoint every group
	// is rolled back to. The hooks are returned even with an error,
	// which marks the window's constraints unsatisfiable.
	Base(s *smt.Solver, enc *encode.Encoder, cf *encode.CF) (Queries[C], error)
	// Events names the two events of c's query span, in window
	// coordinates.
	Events(c C) (a, b int)
	// Entry is the finding of group g's instance h.K, in whole-trace
	// coordinates.
	Entry(g *Group[C, S], h Hit) F
	// Sig is a finding's signature.
	Sig(f F) S
}

// Queries are the per-candidate hooks of one window encoding.
type Queries[C any] interface {
	// Warm encodes, before the base checkpoint, definitions c's guard
	// will need. Definitions a guard creates after the checkpoint are
	// encoded again for every group that needs them.
	Warm(c C)
	// Guard is c's query: the formulas its guard literal implies, in
	// order.
	Guard(c C) []*smt.Formula
	// Witness extracts c's witness schedule from the model of its
	// satisfiable query, in window coordinates.
	Witness(c C) []int
}

// Group is the unit of dispatch, rollback and dedup: every instance of
// one signature in one window that survived the kind's prefilters, in
// enumeration order. Instances are tried in order until one is
// satisfiable.
type Group[C any, S comparable] struct {
	Sig   S
	Cands []C
	// Proved is the index of the first instance a sound fast path proves
	// (the race kind's triage ladder, triage.go), -1 if none, and Tier
	// the rung that proved it. A proved instance is reported without a
	// solver query unless a witness is requested.
	Proved int
	Tier   string
}

// Grouper collects a window's signature groups in order of each group's
// first instance, for a kind's Partition.
type Grouper[C any, S comparable] struct {
	Groups []*Group[C, S]
	index  map[S]int
}

// Add appends c to the group of sig, opening the group if it is new.
func (gr *Grouper[C, S]) Add(sig S, c C) {
	gi, ok := gr.index[sig]
	if !ok {
		if gr.index == nil {
			gr.index = make(map[S]int)
		}
		gi = len(gr.Groups)
		gr.index[sig] = gi
		gr.Groups = append(gr.Groups, &Group[C, S]{Sig: sig, Proved: -1})
	}
	gr.Groups[gi].Cands = append(gr.Groups[gi].Cands, c)
}

// Hit locates the instance of a group a finding reports.
type Hit struct {
	// K is the instance's index in its group.
	K int
	// Window and Offset are the window's index and the whole-trace index
	// of its first event.
	Window, Offset int
	// Witness is the witness schedule in whole-trace coordinates, nil
	// unless requested.
	Witness []int
	// Stats is the CDCL work of the query that proved the instance.
	Stats QueryStats
	// Degraded marks a finding of a window analysed with its SMT tier
	// shed.
	Degraded bool
}

// QueryStats is the CDCL work of one solver query, captured for race
// provenance. On the shared window solver the values are deltas around
// the query; every group is solved from the identical checkpointed base
// state, so the deltas are deterministic across worker assignment.
type QueryStats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
}

// Funnel is one window's candidate-funnel tallies. Every enumerated
// candidate lands in exactly one of the other bins, and the Runner adds
// a window's tallies to the telemetry counters in one step, right after
// Partition.
type Funnel struct {
	Enumerated         int
	SigDedup           int
	MHBFiltered        int
	QuickCheckFiltered int
	Confirmed          int // proved by the SHB rung of the triage ladder
	SyncPConfirmed     int // proved by the SyncP rung
	Dispatched         int // handed to the solver undecided
}

// publish adds the tallies to col's counters.
func (f *Funnel) publish(col *telemetry.Collector) {
	col.Add(telemetry.Enumerated, int64(f.Enumerated))
	col.Add(telemetry.SigDedup, int64(f.SigDedup))
	col.Add(telemetry.MHBFiltered, int64(f.MHBFiltered))
	col.Add(telemetry.QuickCheckFiltered, int64(f.QuickCheckFiltered))
	col.Add(telemetry.TriageConfirmed, int64(f.Confirmed))
	col.Add(telemetry.TriageSyncPConfirmed, int64(f.SyncPConfirmed))
	col.Add(telemetry.TriageDispatched, int64(f.Dispatched))
}
