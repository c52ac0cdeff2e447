package syncp_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/lockset"
	"repro/internal/race"
	"repro/internal/syncp"
	"repro/internal/vc"
	"repro/internal/workloads"
	"repro/trace"
)

// sigSet collects the distinct race signatures of a result.
func sigSet(res race.Result) map[race.Signature]bool {
	out := make(map[race.Signature]bool, len(res.Races))
	for _, r := range res.Races {
		out[r.Sig] = true
	}
	return out
}

// shbRaces computes the SHB-tier race set standalone: per window, the
// lockset quick check plus syncp.ConfirmSHB — the first rung of the
// ladder, with no witness construction.
func shbRaces(tr *trace.Trace, window int) map[race.Signature]bool {
	out := make(map[race.Signature]bool)
	race.Windows(tr, window, func(w *trace.Trace, _ int) {
		mhb := vc.ComputeMHB(w)
		sets := lockset.ComputeWith(w, mhb)
		shb := hb.SHBClocks(w)
		for _, cop := range sets.Survivors(w, race.GroupAccesses(w)) {
			if syncp.ConfirmSHB(shb, cop.A, cop.B) {
				out[race.SigOf(w, cop.A, cop.B)] = true
			}
		}
		shb.Release()
		mhb.Release()
	})
	return out
}

// subset asserts a ⊆ b, reporting the offending signatures.
func subset(t *testing.T, label string, a, b map[race.Signature]bool) {
	t.Helper()
	for sig := range a {
		if !b[sig] {
			t.Errorf("%s: signature %v missing from the larger set — inclusion chain broken", label, sig)
		}
	}
}

// TestInclusionChainOracle fuzzes minilang workload traces across seeds,
// motif mixes and window sizes (including windows small enough to
// truncate critical sections) and asserts the tier inclusion chain on
// race-signature sets:
//
//	races(SHB) ⊆ races(SyncP) ⊆ races(maximal)
//
// Any violation is a model bug: the left two detectors confirm races by
// explicit sound argument, so each must under-approximate the next; in
// particular a SyncP signature absent from the maximal detector means
// the witness check confirmed an unsatisfiable query.
func TestInclusionChainOracle(t *testing.T) {
	mixes := []struct {
		name string
		m    workloads.MotifCounts
	}{
		{"all-motifs", workloads.MotifCounts{
			Plain: 2, HBNotSaid: 1, CP: 1, CPNotSaid: 1, Said: 1,
			RVRegion: 1, RVIncomplete: 1, QCOnly: 1,
		}},
		{"lock-heavy", workloads.MotifCounts{CP: 2, Said: 2, RVRegion: 2}},
		{"plain-heavy", workloads.MotifCounts{Plain: 3, HBNotSaid: 2}},
	}
	for _, mix := range mixes {
		for seed := int64(0); seed < 4; seed++ {
			tr, _ := workloads.Build(workloads.Spec{
				Name: mix.name, Workers: 4, Events: 400, Window: 10000,
				Seed: 1700 + seed, Motifs: mix.m,
			})
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s/seed%d: fuzzed trace invalid: %v", mix.name, seed, err)
			}
			for _, window := range []int{10000, 64} {
				label := fmt.Sprintf("%s/seed%d/window%d", mix.name, seed, window)
				shbSet := shbRaces(tr, window)
				spSet := sigSet(syncp.New(syncp.Options{WindowSize: window}).Detect(tr))
				maxSet := sigSet(core.New(core.Options{WindowSize: window}).Detect(tr))
				subset(t, label+": SHB ⊆ SyncP", shbSet, spSet)
				subset(t, label+": SyncP ⊆ maximal", spSet, maxSet)
				if len(maxSet) > 0 && len(shbSet) == 0 && mix.name == "plain-heavy" {
					t.Errorf("%s: plain-heavy mix found no SHB races — fixture degenerate", label)
				}
			}
		}
	}
}
