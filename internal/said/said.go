// Package said implements the SMT-based race witness generation of Said,
// Wang, Yang and Sakallah (NFM 2011), the third sound baseline in the
// paper's evaluation (Table 1, column "Said").
//
// Like the paper's technique it encodes trace reorderings as order
// constraints solved per COP, but it has no branch events: to stay sound it
// must enforce the whole-trace read–write consistency — every read in the
// window observes the value it read originally, through some
// (possibly different) write. That requirement confines the search to
// complete consistent reorderings, so races that only manifest in feasible
// incomplete traces (the paper's Figure 2 case ¿, or Figure 1's (3,10))
// are missed, which is exactly the gap Table 1 shows between the Said and
// RV columns.
package said

import (
	"context"
	"time"

	"repro/internal/encode"
	"repro/internal/lockset"
	"repro/internal/race"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/vc"
	"repro/trace"
)

// Options configures the detector.
type Options struct {
	// WindowSize splits the trace into fixed-size windows; ≤ 0 analyses the
	// whole trace at once. The paper's default is 10000.
	WindowSize int
	// SolveTimeout bounds each COP's solver run (the paper uses one
	// minute); ≤ 0 means no wall-clock bound. (rvpredict.Options maps its
	// zero value to the paper's 60 s default, and negatives to 0, before
	// reaching this layer.)
	SolveTimeout time.Duration
	// Witness requests witness schedules on detected races.
	Witness bool
}

// Detector is the Said et al. baseline.
type Detector struct {
	opt Options
}

// New returns a Said et al. detector.
func New(opt Options) *Detector { return &Detector{opt: opt} }

// Name implements race.Detector.
func (*Detector) Name() string { return "Said" }

// Detect checks every quick-check-surviving COP by SMT with whole-trace
// read–write consistency.
func (d *Detector) Detect(tr *trace.Trace) race.Result {
	return d.DetectContext(context.Background(), tr)
}

// DetectContext runs Detect under ctx: the context is polled between
// windows, between pairs and inside the solver's conflict loop, so
// cancellation interrupts a run mid-solve. The partial Result covers the
// work completed before the cancel and is flagged Cancelled. A nil ctx is
// treated as context.Background().
func (d *Detector) DetectContext(ctx context.Context, tr *trace.Trace) race.Result {
	if ctx == nil {
		ctx = context.Background()
	}
	cancel := func() bool { return ctx.Err() != nil }
	start := time.Now()
	var res race.Result
	seen := make(map[race.Signature]bool)
	res.Windows = race.Windows(tr, d.opt.WindowSize, func(w *trace.Trace, offset int) {
		if ctx.Err() != nil {
			res.Cancelled = true
			return
		}
		// The quick check is a pure optimisation here: a COP failing it
		// is MHB-ordered or lock-mutual-exclusion-ordered, and both
		// conditions make the encoding below unsatisfiable. Only its
		// survivors are ever built (lockset.Sets.Survivors).
		var shared *windowSolver
		for _, cop := range lockset.Compute(w).Survivors(w, race.GroupAccesses(w)) {
			if ctx.Err() != nil {
				res.Cancelled = true
				break
			}
			sig := race.SigOf(w, cop.A, cop.B)
			if seen[sig] {
				continue
			}
			res.COPsChecked++
			if shared == nil {
				shared = d.newWindowSolver(w)
				shared.s.SetCancel(cancel)
			}
			ok, witness, aborted := shared.check(d, cop)
			if aborted {
				res.SolverAborts++
				if shared.s.LastAbortCause() == sat.AbortCancelled {
					res.Cancelled = true
				}
			}
			if ok {
				seen[sig] = true
				r := race.Race{
					COP: race.COP{A: cop.A + offset, B: cop.B + offset},
					Sig: sig,
				}
				if witness != nil {
					r.Witness = rebase(witness, offset)
				}
				res.Races = append(res.Races, r)
			}
		}
	})
	if ctx.Err() != nil {
		res.Cancelled = true
	}
	res.Elapsed = time.Since(start)
	return res
}

// windowSolver carries one window's shared constraints: Φ_mhb, Φ_lock and
// — the expensive part for this baseline — the whole-window read–write
// consistency, asserted once; each COP adds only a guarded adjacency
// constraint and solves under its guard assumption.
type windowSolver struct {
	s   *smt.Solver
	enc *encode.Encoder
	bad bool
}

func (d *Detector) newWindowSolver(w *trace.Trace) *windowSolver {
	s := smt.NewSolver()
	enc := encode.New(w, s, vc.ComputeMHB(w), -1, -1)
	ws := &windowSolver{s: s, enc: enc}
	if err := enc.AssertMHB(); err != nil {
		ws.bad = true
		return ws
	}
	if err := enc.AssertLocks(); err != nil {
		ws.bad = true
		return ws
	}
	feas := func(int) *smt.Formula { return smt.True() }
	for i := 0; i < w.Len(); i++ {
		if w.Event(i).Op != trace.OpRead {
			continue
		}
		if err := s.Assert(enc.ReadConsistent(i, feas)); err != nil {
			ws.bad = true
			return ws
		}
	}
	return ws
}

// check decides one COP on the shared window solver.
func (ws *windowSolver) check(d *Detector, cop race.COP) (isRace bool, witness []int, aborted bool) {
	if ws.bad {
		return false, nil, false
	}
	g := ws.s.NewBoolLit()
	if err := ws.s.Implies(g, ws.enc.Adjacent(cop.A, cop.B)); err != nil {
		return false, nil, false
	}
	if d.opt.SolveTimeout > 0 {
		ws.s.SetDeadline(time.Now().Add(d.opt.SolveTimeout))
	}
	switch ws.s.SolveAssuming(g) {
	case sat.Sat:
		if d.opt.Witness {
			witness = ws.enc.Witness(cop.A, cop.B)
		}
		return true, witness, false
	case sat.Aborted:
		return false, nil, true
	}
	return false, nil, false
}

func rebase(idxs []int, offset int) []int {
	out := make([]int, len(idxs))
	for i, v := range idxs {
		out[i] = v + offset
	}
	return out
}
