// Provenance attribution: which sound tier confirms each reported race.
//
// Attribution is computed at merge time, once per reported race, and is
// deliberately independent of the run's triage configuration: a race is
// attributed to the cheapest tier of the inclusion chain (SHB → SyncP →
// SMT) that proves it, whether or not that tier's fast path actually
// fired this run. That independence is what lets the triage identity
// matrix include provenance in its bit-identity contract — a triage-off
// run, an SHB-triage run and a full-ladder run all stamp the same tier
// on the same race. Only windows that report races pay for the clock
// passes, so the cost is negligible next to the solves that found them.
package core

import "repro/internal/race"

// stamp fills one merged race's provenance: the confirming tier, the
// global window index and the witness length. Solver query stats were
// captured at solve time; they are kept only for SMT-tier races — for
// races a sound tier confirms the solver is optional (the triage fast
// path skips it), so keeping its stats would break bit-identity between
// triage modes.
func (l *ladder) stamp(r *race.Race, widx, offset int) {
	r.Prov.Tier = l.tier(race.COP{A: r.A - offset, B: r.B - offset})
	r.Prov.Window = widx
	r.Prov.WitnessLen = len(r.Witness)
	if r.Prov.Tier != race.TierSMT {
		r.Prov.Decisions, r.Prov.Propagations, r.Prov.Conflicts = 0, 0, 0
	}
}
