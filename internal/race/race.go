// Package race defines the vocabulary shared by all detectors in this
// repository: conflicting operation pairs (COPs, Definition 3 of the
// paper), race signatures (the static location pairs used for
// deduplication, Section 4), detection results, and the windowing driver
// every technique uses on long traces.
package race

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/trace"
)

// COP is a conflicting operation pair: indices A < B of two events in one
// trace that access the same location from different threads, at least one
// writing (Definition 3).
type COP struct {
	A, B int
}

// Signature is the static identity of a race: the unordered pair of program
// locations of its two accesses. The paper prunes all COPs sharing a
// signature once one of them is proven to race.
type Signature struct {
	First, Second trace.Loc // First ≤ Second
}

// String renders the signature as "first:second".
func (s Signature) String() string { return fmt.Sprintf("%d:%d", s.First, s.Second) }

// SigOf returns the signature of the COP (a, b) in tr.
func SigOf(tr *trace.Trace, a, b int) Signature {
	l1, l2 := tr.Event(a).Loc, tr.Event(b).Loc
	if l2 < l1 {
		l1, l2 = l2, l1
	}
	return Signature{First: l1, Second: l2}
}

// Confirming-tier names used in Provenance.Tier, ordered by the triage
// ladder SHB → SyncP → SMT (the detection-side refinement of the paper's
// Table 1 inclusion chain HB ⊆ CP ⊆ RV): the named tier is the cheapest
// rung that proves the reported pair, decided once per pair by the
// window's triage partition, so it does not depend on whether the fast
// path or the solver produced the verdict in a given run (a witness
// request sends proved pairs to the solver too). The remaining names mark
// the fixed tiers of the Table 1 baseline detectors.
const (
	// TierSHB: the pair is concurrent under schedulable happens-before
	// (SHB clocks, including the reads-from pre-join check), which —
	// together with disjoint locksets — soundly proves the SMT query
	// satisfiable (see internal/core/triage.go).
	TierSHB = "shb"
	// TierSyncP: SHB cannot confirm the pair, but the sync-preserving
	// witness check (internal/syncp) proves the race with an explicit
	// reads-from-preserving reordering.
	TierSyncP = "syncp"
	// TierSMT: only the full DPLL(T) solve proves the race; solver query
	// stats are recorded alongside.
	TierSMT = "smt"
	// TierCausallyPrecedes marks races reported by the
	// causally-precedes baseline detector (Algorithm CausallyPrecedes).
	TierCausallyPrecedes = "cp"
	// TierHB marks races reported by the happens-before baseline
	// detector (Algorithm HappensBefore).
	TierHB = "hb"
	// TierQuickCheck marks reports of the unsound hybrid prefilter
	// (Algorithm QuickCheck) — potential races, not confirmed ones.
	TierQuickCheck = "quick-check"
)

// Provenance records why one reported race is trusted: the confirming
// tier, the analysis window that produced it, the solver's query stats
// when the SMT tier ran, and whether the race was replayed from a
// durable journal rather than re-derived.
//
// Everything except Replayed is deterministic — bit-identical across
// Parallelism, at both its levels, and resume (test-enforced by the triage
// identity matrix); Tier, Window and the race itself also agree with and
// without a witness request. Replayed is operational metadata: a
// resumed run legitimately differs from a clean one there, exactly like
// the telemetry Journal block excluded by Metrics.NonTiming.
type Provenance struct {
	// Tier is the confirming tier (one of the Tier* constants).
	Tier string `json:"tier"`
	// Window is the analysis window (whole-trace index) whose solve — or
	// replay — produced the race.
	Window int `json:"window"`
	// Decisions/Propagations/Conflicts are the CDCL deltas of the solver
	// query that proved the race; set only when Tier is TierSMT (every
	// group is solved from the same checkpointed base state, so the
	// deltas are deterministic across worker assignment).
	Decisions    int64 `json:"decisions,omitempty"`
	Propagations int64 `json:"propagations,omitempty"`
	Conflicts    int64 `json:"conflicts,omitempty"`
	// WitnessLen is the length of the reconstructed witness schedule
	// (0 when no witness was requested).
	WitnessLen int `json:"witness_len,omitempty"`
	// Replayed marks a race merged from a journaled window outcome on
	// resume instead of being re-derived this run.
	Replayed bool `json:"replayed,omitempty"`
	// Degraded marks a race reported by a window analysed in degraded
	// mode (streaming daemon under sustained pressure): the SMT tier was
	// shed and the race rests solely on the sound triage ladder's proof. The verdict is still sound — degradation can only
	// miss races, never invent them — but the window it came from is not
	// maximal. Always false in batch runs.
	Degraded bool `json:"degraded,omitempty"`
}

// Race is one detected race, with an optional witness schedule.
type Race struct {
	COP
	Sig Signature
	// Witness, when non-nil, lists event indices of a consistent reordered
	// prefix ending with the two racing accesses adjacent — the trace τ₁ab
	// of Definition 4. Only the SMT-based detectors produce witnesses.
	Witness []int
	// Prov records why the race is trusted (confirming tier, window,
	// solver stats, replay origin). The core detector stamps it on every
	// race; the public rvpredict layer fills in the baseline detectors'
	// tiers.
	Prov Provenance
}

// Describe renders the race with location names from tr.
func (r Race) Describe(tr *trace.Trace) string {
	return fmt.Sprintf("race(%s, %s) between %v and %v",
		tr.LocName(tr.Event(r.A).Loc), tr.LocName(tr.Event(r.B).Loc),
		tr.Event(r.A), tr.Event(r.B))
}

// Result is the outcome of running one race detector on one trace.
type Result = ResultOf[Race]

// ResultOf is the outcome of checking one property on one trace: Result
// for races, and the same record over the findings of the core pipeline's
// other query kinds (deadlocks, atomicity violations), whose findings
// are in Races and whose decided candidate instances (by a solver query
// or a fast path) are counted in COPsChecked.
type ResultOf[F any] struct {
	// Races holds one finding per distinct signature, in detection order:
	// races, or the query kind's findings.
	Races []F
	// COPsChecked counts candidate pairs (or a query kind's candidates)
	// decided after quick-check filtering and signature deduplication.
	COPsChecked int
	// Windows is the number of trace windows analysed.
	Windows int
	// Elapsed is the total detection wall-clock time.
	Elapsed time.Duration
	// SolverAborts counts per-COP solver timeouts/budget exhaustions
	// (SMT-based detectors only); aborted COPs are conservatively treated
	// as non-races, like the paper's one-minute timeout.
	SolverAborts int
	// Cancelled reports the run was interrupted by context cancellation:
	// the results cover only the windows (and pairs) completed before the
	// cancel and are sound but not maximal.
	Cancelled bool
	// BudgetExhausted reports the run's global wall-clock budget expired
	// before every candidate was solved; skipped candidates are counted
	// in telemetry and the results are sound but not maximal.
	BudgetExhausted bool
	// Failures lists windows whose analysis panicked and was isolated;
	// every other window's results are intact. A non-empty list means the
	// run is sound but not maximal (the failed windows' races are
	// unknown).
	Failures []WindowFailure
}

// WindowFailure records one analysis window whose worker panicked. The
// panic was recovered, the window's results were dropped (all-or-nothing,
// so the drop is deterministic even with parallel pair workers), and the
// run continued with every other window intact — the failure is surfaced
// here (and in telemetry) so the coverage gap is never silent.
type WindowFailure struct {
	// Window is the window's index in trace order; Offset the index of
	// its first event in the input trace; Events its length.
	Window int `json:"window"`
	Offset int `json:"offset"`
	Events int `json:"events"`
	// PanicValue renders the recovered panic value.
	PanicValue string `json:"panic"`
	// Stack is the goroutine stack at the recovery point, truncated.
	Stack string `json:"stack,omitempty"`
}

// WindowOutcome is the complete, replayable record of one analysis
// window's contribution to a Result — the checkpoint unit of the durable
// window journal (internal/journal). Windows are analysed independently
// and merged deterministically, so replaying a journaled outcome into
// the merge reproduces the window's effect without re-entering the
// solver.
//
// Races (including witness indices) and Failures are in whole-trace
// coordinates, whichever mode analysed the window.
type WindowOutcome = OutcomeOf[Race]

// OutcomeOf is WindowOutcome over the findings F of any query kind of the
// core pipeline; as in ResultOf, Races are the kind's findings and
// COPsChecked its decided candidate instances.
type OutcomeOf[F any] struct {
	// Window is the window's index in trace order; Offset the index of
	// its first event in the whole trace; Events its length.
	Window int
	Offset int
	Events int

	// Candidates is the window's enumerated COP count; Solved its solver
	// query count; the remaining counters are the window's deltas to the
	// corresponding Result fields.
	Candidates   int
	Solved       int
	COPsChecked  int
	SolverAborts int
	// ElapsedNS is the window's original analysis wall-clock time
	// (telemetry only; replay reports it unchanged).
	ElapsedNS int64

	// Races are the window's new findings, in detection order.
	Races []F
	// Failures is non-empty when the window's worker panicked and was
	// isolated: the outcome then records the durable fact that the
	// window contributed nothing, so a resumed run reproduces the
	// faulted run's report exactly instead of silently retrying.
	Failures []WindowFailure

	// Degraded marks a window analysed in degraded mode (SMT tier shed
	// under pressure): every reported race is ladder-proved and sound,
	// but PairsShed candidate instances were never solved, so the window
	// is not maximal. Replaying a degraded outcome reproduces exactly the
	// degraded verdict — resume never silently upgrades it.
	Degraded bool
	// PairsShed counts the candidate COP instances the degraded window
	// dropped without a verdict.
	PairsShed int
}

// Count returns the number of distinct races found.
func (r ResultOf[F]) Count() int { return len(r.Races) }

// Detector is the common interface of the four techniques (RV, Said, CP,
// HB), used by the evaluation harness.
type Detector interface {
	Name() string
	Detect(tr *trace.Trace) Result
}

// Accesses lists, for every address of a trace that carries at least
// one conflicting operation pair, the trace's accesses to it in trace
// order. Accesses to volatile locations are left out: conflicting
// volatile accesses are not data races (Section 4). It is the grouping
// Count and the quick-check sweep (lockset.Sets.Survivors) work from,
// built once per window.
type Accesses map[trace.Addr][]int32

// GroupAccesses builds tr's Accesses in one pass, then drops every
// address that only one thread touches or that nobody writes.
func GroupAccesses(tr *trace.Trace) Accesses {
	acc := make(Accesses)
	for i := 0; i < tr.Len(); i++ {
		if e := tr.Event(i); e.Op.IsAccess() && !tr.Volatile(e.Addr) {
			acc[e.Addr] = append(acc[e.Addr], int32(i))
		}
	}
	for addr, evs := range acc {
		t := tr.Event(int(evs[0])).Tid
		shared, written := false, false
		for _, i := range evs {
			e := tr.Event(int(i))
			shared = shared || e.Tid != t
			written = written || e.Op == trace.OpWrite
		}
		if !shared || !written {
			delete(acc, addr)
		}
	}
	return acc
}

// EachCOP calls f on every conflicting operation pair of tr, in the
// canonical order (by A, then B), without materialising or sorting them.
// Accesses to volatile locations are skipped: conflicting volatile
// accesses are not data races (Section 4).
func EachCOP(tr *trace.Trace, f func(COP)) {
	// next links every access to the next access to its address; 0 ends
	// the chain (a successor always has a positive index).
	next := make([]int32, tr.Len())
	later := make(map[trace.Addr]int32)
	for i := tr.Len() - 1; i >= 0; i-- {
		if e := tr.Event(i); e.Op.IsAccess() && !tr.Volatile(e.Addr) {
			next[i] = later[e.Addr]
			later[e.Addr] = int32(i)
		}
	}
	for i := 0; i < tr.Len(); i++ {
		e := tr.Event(i)
		if !e.Op.IsAccess() || tr.Volatile(e.Addr) {
			continue
		}
		for j := next[i]; j != 0; j = next[j] {
			if e.ConflictsWith(tr.Event(int(j))) {
				f(COP{A: i, B: int(j)})
			}
		}
	}
}

// Count returns the number of conflicting operation pairs of tr (the
// pairs EachCOP visits), acc being GroupAccesses(tr), and, of those, the
// number whose signature is in seen, without building any pair. A pair is two
// accesses to one address by different threads, at least one writing,
// so an address with W writes and R reads in all, w_t and r_t of them by
// thread t, has (W² − Σ w_t²)/2 + W·R − Σ w_t·r_t pairs. The same count
// over the accesses at two locations of an address gives the pairs of
// their signature.
func (acc Accesses) Count(tr *trace.Trace, seen map[Signature]bool) (candidates, dedup int) {
	// A tally is the reads and writes of one thread (at one location)
	// among an address's accesses.
	type tally struct {
		loc  trace.Loc
		tid  trace.TID
		r, w int
	}
	// tallies sorts evs by (location when byLoc, thread) and returns one
	// tally per run, reusing out.
	tallies := func(out []tally, evs []int32, byLoc bool) []tally {
		slices.SortFunc(evs, func(x, y int32) int {
			ex, ey := tr.Event(int(x)), tr.Event(int(y))
			if byLoc && ex.Loc != ey.Loc {
				return cmp.Compare(ex.Loc, ey.Loc)
			}
			return cmp.Compare(ex.Tid, ey.Tid)
		})
		out = out[:0]
		for k, i := range evs {
			e := tr.Event(int(i))
			if k == 0 || e.Tid != out[len(out)-1].tid || byLoc && e.Loc != out[len(out)-1].loc {
				out = append(out, tally{loc: e.Loc, tid: e.Tid})
			}
			if t := &out[len(out)-1]; e.Op == trace.OpWrite {
				t.w++
			} else {
				t.r++
			}
		}
		return out
	}
	var (
		evs []int32
		ts  []tally
	)
	var seenLoc map[trace.Loc]bool
	for sig := range seen {
		if seenLoc == nil {
			seenLoc = make(map[trace.Loc]bool)
		}
		seenLoc[sig.First], seenLoc[sig.Second] = true, true
	}
	for _, all := range acc {
		evs = append(evs[:0], all...)
		ts = tallies(ts, evs, false)
		var w, r, ww, wr int
		for _, t := range ts {
			w, r, ww, wr = w+t.w, r+t.r, ww+t.w*t.w, wr+t.w*t.r
		}
		candidates += (w*w-ww)/2 + w*r - wr
		if len(seen) == 0 {
			continue
		}
		evs = evs[:0]
		for _, i := range all {
			if seenLoc[tr.Event(int(i)).Loc] {
				evs = append(evs, i)
			}
		}
		ts = tallies(ts, evs, true)
		for x := range ts {
			for y := x + 1; y < len(ts); y++ {
				if a, b := ts[x], ts[y]; a.tid != b.tid && seen[Signature{First: a.loc, Second: b.loc}] {
					dedup += a.w*(b.w+b.r) + a.r*b.w
				}
			}
		}
	}
	return candidates, dedup
}

// EachWindow calls f on consecutive fixed-size windows of tr (the
// strategy of Section 4; the last window may be shorter), in order, with
// the window's trace, its index, and offset, the index of its first event
// in tr. A size ≤ 0 means a single window covering the whole trace. A
// non-nil error from f stops the iteration and is returned verbatim.
// Windows are built one at a time, never all up front.
//
// Each window is analysed as an execution in its own right whose initial
// memory state is the state observed at the window boundary: the last
// written value of every location in the preceding prefix is installed as
// the window's initial value. Without this, any read whose writer fell in
// an earlier window would be unsatisfiable under the read-consistency
// encodings, silently suppressing races near window boundaries.
func EachWindow(tr *trace.Trace, size int, f func(w *trace.Trace, widx, offset int) error) error {
	if size <= 0 || tr.Len() <= size {
		return f(tr, 0, 0)
	}
	carried := make(map[trace.Addr]int64)
	for lo := 0; lo < tr.Len(); lo += size {
		hi := min(lo+size, tr.Len())
		w := tr.Slice(lo, hi)
		for a, v := range carried {
			w.SetInitial(a, v)
		}
		if err := f(w, lo/size, lo); err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			if e := tr.Event(i); e.Op == trace.OpWrite {
				carried[e.Addr] = e.Value
			}
		}
	}
	return nil
}

// WindowCount is the number of windows EachWindow yields for a trace of
// n events.
func WindowCount(n, size int) int {
	if size <= 0 || n <= size {
		return 1
	}
	return (n + size - 1) / size
}

// Windows invokes f on each window of tr (see EachWindow) and returns the
// window count.
func Windows(tr *trace.Trace, size int, f func(w *trace.Trace, offset int)) int {
	n := 0
	EachWindow(tr, size, func(w *trace.Trace, _, offset int) error {
		f(w, offset)
		n++
		return nil
	})
	return n
}

// WindowSlice is one analysis window with its offset in the parent trace.
type WindowSlice struct {
	Trace  *trace.Trace
	Offset int
}

// WindowSlices materialises the windows of tr (see EachWindow), each with
// the carried-in initial memory state installed. The slices are
// independent, so callers may analyse them concurrently.
func WindowSlices(tr *trace.Trace, size int) []WindowSlice {
	var out []WindowSlice
	EachWindow(tr, size, func(w *trace.Trace, _, offset int) error {
		out = append(out, WindowSlice{Trace: w, Offset: offset})
		return nil
	})
	return out
}
