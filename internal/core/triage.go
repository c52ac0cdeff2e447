// Triage ladder: sound fast paths that confirm races before SMT (the
// detection-side counterpart of the paper's Table 1 inclusion chain
// HB ⊆ CP ⊆ RV, refined with the linear-time sound orders of the
// follow-up literature).
//
// Every candidate pair surviving the prefilters used to pay a full
// IDL/SMT solve, yet on real traces the overwhelming majority of reported
// races are decidable by cheap sound passes. The ladder classifies each
// quick-check survivor once, in canonical enumeration order, before the
// pair scheduler dispatches anything; each rung only sees the previous
// rung's survivors:
//
//   - shb: the pair is concurrent under schedulable happens-before (SHB:
//     full HB plus a reads-from edge from every read's justifying write —
//     hb.SHBClocks), or is a write–read pair ordered only by its own
//     reads-from edge (the pre-join check, hb.RFRaceable). Together with
//     the quick check's disjoint locksets this soundly proves the SMT
//     query satisfiable.
//   - syncp: the SHB rung cannot confirm the pair, but the
//     sync-preserving witness check (internal/syncp) constructs an
//     explicit reads-from-preserving witness. This is the top rung.
//   - dispatched: everything else goes to the pair scheduler unchanged.
//
// The ladder never changes a verdict: the race set is the solver's. It
// only decides which queries may be skipped because they are certainly
// satisfiable. A group's first proved instance skips the solver (unless
// Options.Witness demands a schedule, when it runs the normal,
// guaranteed-SAT solve), ends the group's warm prefix in the pair
// scheduler (pairsched.go), and names the reported race's provenance
// tier.
//
// Why SHB and not bare HB for the first rung: HB concurrency alone is NOT
// sufficient under maximal-causality semantics. A non-volatile
// write→read value flow carries no HB edge, yet the read may guard (via a
// branch) one of the racing accesses, forcing an order HB never sees —
// the pair is HB-concurrent but the SMT query is UNSAT. The reads-from
// edges close exactly that hole; the witness rung inherits the same
// discipline by building on the SR order (hb.SRClocks), which keeps
// every reads-from edge.
package core

import (
	"repro/internal/hb"
	"repro/internal/race"
	"repro/internal/syncp"
	"repro/trace"
)

// ladder is one window's sound-tier classifier, run once per window by
// partition, which charges the ladder's whole cost to the triage phase.
// Clock computations are lazy: the SHB pass runs on construction, the SR
// clocks and witness index only when some pair reaches the syncp rung.
// All clock state lives on the vc slab pool and is returned by release.
type ladder struct {
	w    *trace.Trace
	shb  *hb.EventClocks
	sr   *hb.EventClocks // lazy, syncp rung only
	sidx *syncp.Index    // lazy, borrows sr
}

func newLadder(w *trace.Trace) *ladder {
	return &ladder{w: w, shb: hb.SHBClocks(w)}
}

// tier returns the cheapest tier that proves cop (window-local) a race:
// TierSHB, TierSyncP, else TierSMT. Callers guarantee the pair already
// passed the lockset quick check (disjoint locksets, MHB-concurrent) — the
// lockset half of the SHB confirmation condition — so only the order
// checks remain. The SHB rung is O(1) per pair (FastTrack-style epochs
// against full clocks); the witness rung scans the pair's trace span once.
func (l *ladder) tier(cop race.COP) string {
	if syncp.ConfirmSHB(l.shb, cop.A, cop.B) {
		return race.TierSHB
	}
	if l.sr == nil {
		l.sr = hb.SRClocks(l.w)
		l.sidx = syncp.NewIndex(l.w, l.sr)
	}
	if l.sidx.Check(cop.A, cop.B) {
		return race.TierSyncP
	}
	return race.TierSMT
}

// release returns the ladder's clock storage to the shared slab pool once
// classification for the window is complete.
func (l *ladder) release() {
	if l.sr != nil {
		l.sr.Release() // the witness index borrows these clocks
	}
	l.shb.Release()
}
