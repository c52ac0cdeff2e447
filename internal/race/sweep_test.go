package race_test

import (
	"slices"
	"testing"

	"repro/internal/lockset"
	"repro/internal/race"
	"repro/internal/workloads"
	"repro/trace"
)

// sweepInput is one FuzzSweep input: a workload motif mix, a window of
// the generated trace, and which of the window's signatures count as
// already seen.
type sweepInput struct {
	seed      int64
	workers   uint8
	events    uint16
	mix       uint32 // one nibble per motif kind: its count mod 4
	lo, size  uint16 // the window: lo mod the trace length, size 0 to the end
	seenEvery uint8  // every seenEvery-th signature is seen; 0: none
}

// build generates the input's window and seen set.
func (in sweepInput) build() (*trace.Trace, map[race.Signature]bool) {
	n := func(k int) int { return int(in.mix>>(4*k)) & 3 }
	tr, _ := workloads.Build(workloads.Spec{
		Workers: 2 + int(in.workers%6),
		Events:  60 + int(in.events%1500),
		Window:  10000,
		Seed:    in.seed,
		Motifs: workloads.MotifCounts{
			Plain: n(0), HBNotSaid: n(1), CP: n(2), CPNotSaid: n(3),
			Said: n(4), RVRegion: n(5), RVIncomplete: n(6), QCOnly: n(7),
		},
	})
	lo, hi := int(in.lo)%tr.Len(), tr.Len()
	if in.size > 0 {
		hi = min(hi, lo+int(in.size))
	}
	w := tr.Slice(lo, hi)
	seen := make(map[race.Signature]bool)
	if in.seenEvery > 0 {
		k := 0
		race.EachCOP(w, func(c race.COP) {
			sig := race.SigOf(w, c.A, c.B)
			if _, ok := seen[sig]; !ok {
				seen[sig] = k%int(in.seenEvery) == 0
				k++
			}
		})
	}
	for sig, ok := range seen {
		if !ok {
			delete(seen, sig)
		}
	}
	return w, seen
}

// sweepSeeds cover workload motif mixes, windows that open inside a
// critical section, volatile addresses, fork/join and notify links, and
// non-empty seen sets (TestSweepSeedsCover checks that they do).
var sweepSeeds = []sweepInput{
	{seed: 1, workers: 2, events: 400, mix: 0x11111111, lo: 0, size: 0, seenEvery: 0},
	{seed: 2, workers: 4, events: 900, mix: 0x30000123, lo: 124, size: 300, seenEvery: 2},
	{seed: 3, workers: 6, events: 1400, mix: 0x00332211, lo: 501, size: 700, seenEvery: 1},
	{seed: 4, workers: 3, events: 1200, mix: 0x21212121, lo: 151, size: 0, seenEvery: 3},
	{seed: 5, workers: 5, events: 700, mix: 0x33330000, lo: 101, size: 250, seenEvery: 0},
	{seed: 6, workers: 1, events: 1000, mix: 0x00000000, lo: 333, size: 400, seenEvery: 2},
}

// FuzzSweep checks the quick-check sweep, the streaming enumeration and
// the candidate and dedup counts (Accesses.Count) against the
// materialising oracle (EnumerateCOPs filtered by lockset.Sets.Pass).
func FuzzSweep(f *testing.F) {
	for _, in := range sweepSeeds {
		f.Add(in.seed, in.workers, in.events, in.mix, in.lo, in.size, in.seenEvery)
	}
	f.Fuzz(func(t *testing.T, seed int64, workers uint8, events uint16, mix uint32, lo, size uint16, seenEvery uint8) {
		w, seen := sweepInput{seed, workers, events, mix, lo, size, seenEvery}.build()
		all := race.EnumerateCOPs(w)
		if got := race.CollectCOPs(w); !slices.Equal(got, all) {
			t.Fatalf("EachCOP visits %d pairs, the oracle enumerates %d (or in another order)", len(got), len(all))
		}
		sets := lockset.Compute(w)
		var pass []race.COP
		dedup := 0
		for _, c := range all {
			if sets.Pass(c.A, c.B) {
				pass = append(pass, c)
			}
			if seen[race.SigOf(w, c.A, c.B)] {
				dedup++
			}
		}
		acc := race.GroupAccesses(w)
		if got := sets.Survivors(w, acc); !slices.Equal(got, pass) {
			t.Fatalf("sweep survivors %v, oracle %v", got, pass)
		}
		if n, d := acc.Count(w, seen); n != len(all) || d != dedup {
			t.Fatalf("Count = %d candidates, %d dedup; oracle %d, %d", n, d, len(all), dedup)
		}
	})
}

// TestSweepSeedsCover checks that FuzzSweep's seed corpus exercises what
// it claims to.
func TestSweepSeedsCover(t *testing.T) {
	var inSection, volatile, forkJoin, notify, seenHit, survivor bool
	for _, in := range sweepSeeds {
		w, seen := in.build()
		acquired := make(map[trace.Addr]bool)
		var fork, join bool
		for i := 0; i < w.Len(); i++ {
			e := w.Event(i)
			switch e.Op {
			case trace.OpAcquire:
				acquired[e.Addr] = true
			case trace.OpRelease:
				inSection = inSection || !acquired[e.Addr]
			case trace.OpFork:
				fork = true
			case trace.OpJoin:
				join = true
			case trace.OpRead, trace.OpWrite:
				volatile = volatile || w.Volatile(e.Addr)
			}
		}
		forkJoin = forkJoin || fork && join
		notify = notify || len(w.NotifyLinks()) > 0
		acc := race.GroupAccesses(w)
		if _, d := acc.Count(w, seen); d > 0 {
			seenHit = true
		}
		survivor = survivor || len(lockset.Compute(w).Survivors(w, acc)) > 0
	}
	for what, ok := range map[string]bool{
		"a window opening inside a critical section": inSection,
		"volatile accesses":                          volatile,
		"fork and join":                              forkJoin,
		"notify links":                               notify,
		"a seen signature":                           seenHit,
	} {
		if !ok {
			t.Errorf("no FuzzSweep seed has %s", what)
		}
	}
}
