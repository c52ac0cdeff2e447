package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/race"
	"repro/internal/telemetry"
	"repro/trace"
)

// TestSpareSolversMatchNew checks that reusing finished window solvers
// changes nothing: the windows of a multi-window trace, encoded on spare
// solvers that were Reset, give the same findings, witnesses and
// non-timing telemetry, solver counters included, as the same windows
// encoded on new solvers only, with the spare list emptied before each
// window. With two pair workers the final encoding sizes depend on which
// group a worker solved last, so those two counters are left out there
// (as in the identity matrix).
func TestSpareSolversMatchNew(t *testing.T) {
	withProcs(t, 2)
	for _, fx := range []struct {
		name string
		tr   *trace.Trace
		size int
	}{
		{"pair-rich", pairRichTrace(), 24},
		{"mixed-window", mixedWindowTrace(t), 250},
	} {
		for _, par := range []int{1, 2} {
			opt := Options{WindowSize: fx.size, Parallelism: par, Witness: true}
			run := func(reuse bool) ([]race.Race, telemetry.Metrics) {
				col := telemetry.NewCollector()
				o := opt
				o.Telemetry = col
				r := NewRunner(o, Isolated)
				var races []race.Race
				err := race.EachWindow(fx.tr, fx.size, func(w *trace.Trace, widx, offset int) error {
					if !reuse {
						spareSolvers.list = nil
					}
					out, st := r.RunWindow(context.Background(), w, widx, offset, false)
					if st != WindowAnalyzed {
						t.Fatalf("%s: window %d status %v", fx.name, widx, st)
					}
					races = append(races, out.Races...)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if reuse && len(spareSolvers.list) == 0 {
					t.Fatalf("%s: no spare solver after the run", fx.name)
				}
				m := col.Snapshot().NonTiming()
				if par > 1 {
					m.Solver.BoolVars, m.Solver.Clauses = 0, 0
				}
				return races, m
			}
			newRaces, newM := run(false)
			spareRaces, spareM := run(true)
			if len(newRaces) == 0 || newM.Solver.Solvers < 2 {
				t.Fatalf("%s: fixture drifted: %d races, %d solvers", fx.name, len(newRaces), newM.Solver.Solvers)
			}
			if !reflect.DeepEqual(spareRaces, newRaces) {
				t.Errorf("%s, par %d: findings differ with spare solvers\n got %+v\nwant %+v", fx.name, par, spareRaces, newRaces)
			}
			if !reflect.DeepEqual(spareM, newM) {
				t.Errorf("%s, par %d: telemetry differs with spare solvers\n got %+v\nwant %+v", fx.name, par, spareM, newM)
			}
		}
	}
}
