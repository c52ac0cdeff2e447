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
	"repro/internal/lockset"
	"repro/internal/race"
	"repro/internal/syncp"
	"repro/internal/telemetry"
	"repro/trace"
)

// triage classifies every instance of groups (window-local, canonical
// group order), tallies it in one of fn's triage bins, and sets each
// group's first proved instance and its tier.
// The ladder is stateless per pair, so it runs rung by rung, one phase
// span each under the quick-check span qc: the SHB rung over every
// instance, then the syncp rung over the instances SHB left. A group's
// proved instance is its first proved by either rung, the same as if each
// instance climbed the ladder in turn. Both rungs' clocks come from the
// shared slab pool and are released before triage returns; the SR clocks
// and the witness index are built only when some instance reaches the
// syncp rung. Callers guarantee every instance passed the lockset quick
// check (disjoint locksets, MHB-concurrent), the lockset half of the SHB
// confirmation condition, except under NoQuickCheck, where a failing
// instance is dispatched unclassified. The SHB rung is O(1) per pair
// (FastTrack-style epochs against full clocks); the witness rung scans
// the pair's trace span once.
func (k raceKind) triage(qc *telemetry.Span, w *trace.Trace, sets *lockset.Sets, groups []*Group[race.COP, race.Signature], fn *Funnel) {
	if len(groups) == 0 {
		return
	}
	type instance struct {
		g *Group[race.COP, race.Signature]
		i int
	}
	var rest []instance
	span := qc.Child(telemetry.PhaseSHB, "shb")
	shb := hb.SHBClocks(w)
	for _, g := range groups {
		for i, cop := range g.Cands {
			switch {
			case k.opt.NoQuickCheck && !sets.Pass(cop.A, cop.B):
				fn.Dispatched++
			case syncp.ConfirmSHB(shb, cop.A, cop.B):
				fn.Confirmed++
				if g.Proved < 0 {
					g.Proved, g.Tier = i, race.TierSHB
				}
			default:
				rest = append(rest, instance{g, i})
			}
		}
	}
	shb.Release()
	span.End()
	if len(rest) == 0 {
		return
	}
	span = qc.Child(telemetry.PhaseSyncP, "syncp")
	defer span.End()
	sr := hb.SRClocks(w)
	defer sr.Release() // the witness index borrows these clocks
	sidx := syncp.NewIndex(w, sr)
	for _, in := range rest {
		cop := in.g.Cands[in.i]
		if !sidx.Check(cop.A, cop.B) {
			fn.Dispatched++
			continue
		}
		fn.SyncPConfirmed++
		if in.g.Proved < 0 || in.i < in.g.Proved {
			in.g.Proved, in.g.Tier = in.i, race.TierSyncP
		}
	}
}
