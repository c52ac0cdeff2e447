package core

import (
	"repro/internal/encode"
	"repro/internal/lockset"
	"repro/internal/race"
	"repro/internal/smt"
	"repro/internal/telemetry"
	"repro/internal/vc"
	"repro/trace"
)

// raceKind is the Runner's race query kind, the paper's own property: a
// candidate is a conflicting operation pair, its signature the pair's
// static locations, its guard the adjacency of the pair plus ⟨cf⟩ of both
// accesses, on a window base of Φ_mhb ∧ Φ_lock.
type raceKind struct {
	opt Options
}

// Partition counts the window's candidates, then groups the quick-check
// survivors (lockset.Sets.Survivors over the window's Accesses, in
// canonical order; only they are ever materialised) by signature, in
// order of each signature's first surviving instance, skipping the
// signatures in seen. seen is stable for the whole window (it is only
// updated at merge time), so the partition is deterministic. When no
// candidate is unseen no clocks are computed and nil is returned. The
// single MHB pass is shared by the quick check, the triage ladder and
// (via the returned value) the window encoders. The candidates that are
// neither seen nor survivors are tallied as quick-check filtered. Every
// survivor is then classified by the triage ladder (triage.go) here,
// once, so its tallies are deterministic under any worker count. Under
// NoQuickCheck every unseen candidate is grouped, streamed by
// race.EachCOP, and a quick-check failure is dispatched unclassified (the
// rungs assume the quick check passed). Counting is one enumerate span;
// the rest is one quick-check span, with the MHB pass and each ladder
// rung one phase span each nested in it.
func (k raceKind) Partition(wspan *telemetry.Span, w *trace.Trace, seen map[race.Signature]bool, fn *Funnel) ([]*Group[race.COP, race.Signature], *vc.MHB) {
	esp := wspan.Child(telemetry.PhaseEnumerate, "enumerate")
	acc := race.GroupAccesses(w)
	fn.Enumerated, fn.SigDedup = acc.Count(w, seen)
	esp.End()
	unseen := fn.Enumerated - fn.SigDedup
	if unseen == 0 {
		return nil, nil
	}
	qc := wspan.Child(telemetry.PhaseQuickCheck, "quick check")
	defer qc.End()
	span := qc.Child(telemetry.PhaseMHB, "mhb")
	mhb := vc.ComputeMHB(w)
	span.End()
	sets := lockset.ComputeWith(w, mhb)
	var (
		gr   Grouper[race.COP, race.Signature]
		kept int
	)
	group := func(cop race.COP) {
		if sig := race.SigOf(w, cop.A, cop.B); !seen[sig] {
			kept++
			gr.Add(sig, cop)
		}
	}
	if k.opt.NoQuickCheck {
		race.EachCOP(w, group)
	} else {
		for _, cop := range sets.Survivors(w, acc) {
			group(cop)
		}
	}
	fn.QuickCheckFiltered = unseen - kept
	k.triage(qc, w, sets, gr.Groups, fn)
	return gr.Groups, mhb
}

// Base asserts Φ_lock.
func (raceKind) Base(_ *smt.Solver, enc *encode.Encoder, cf *encode.CF) (Queries[race.COP], error) {
	return raceQueries{enc: enc, cf: cf}, enc.AssertLocks()
}

// Events names a race query by its pair.
func (raceKind) Events(cop race.COP) (a, b int) { return cop.A, cop.B }

// Entry records instance h.K of g as the group's race, in whole-trace
// coordinates, with its provenance. The instance takes the group's
// ladder tier when it is the proved one and the SMT tier otherwise. The
// query stats are kept only for an SMT-tier race: a sound-tier race's
// query is optional (the fast path skips it), so its stats would make
// provenance depend on the witness request.
func (raceKind) Entry(g *Group[race.COP, race.Signature], h Hit) race.Race {
	cop := g.Cands[h.K]
	x := race.Race{
		COP:     race.COP{A: cop.A + h.Offset, B: cop.B + h.Offset},
		Sig:     g.Sig,
		Witness: h.Witness,
		Prov: race.Provenance{Tier: race.TierSMT, Window: h.Window, WitnessLen: len(h.Witness),
			Degraded: h.Degraded},
	}
	if h.K == g.Proved {
		x.Prov.Tier = g.Tier
	} else {
		x.Prov.Decisions = h.Stats.Decisions
		x.Prov.Propagations = h.Stats.Propagations
		x.Prov.Conflicts = h.Stats.Conflicts
	}
	return x
}

// Sig is the race's signature.
func (raceKind) Sig(x race.Race) race.Signature { return x.Sig }

// raceQueries are a window encoding's race hooks. Only warm-prefix
// instances are ever prepared, and their cf definitions all predate the
// checkpoint, so a race query adds no cf definition of its own.
type raceQueries struct {
	enc *encode.Encoder
	cf  *encode.CF
}

func (q raceQueries) Warm(cop race.COP) {
	q.cf.ControlFlow(cop.A)
	q.cf.ControlFlow(cop.B)
}

// Guard is the pair's adjacency and the control-flow feasibility of both
// accesses.
func (q raceQueries) Guard(cop race.COP) []*smt.Formula {
	return []*smt.Formula{q.enc.Adjacent(cop.A, cop.B), q.cf.ControlFlow(cop.A), q.cf.ControlFlow(cop.B)}
}

func (q raceQueries) Witness(cop race.COP) []int { return q.enc.Witness(cop.A, cop.B) }
