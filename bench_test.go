// Benchmarks regenerating the paper's evaluation (Table 1) and the design
// ablations called out in DESIGN.md. One benchmark family per experiment:
//
//   - BenchmarkTable1Metrics — trace generation + the metric columns.
//   - BenchmarkDetect/<row>/<algo> — detection time per technique per row
//     (Table 1 columns 9–16), at 1/4 scale so a full -bench=. run stays
//     laptop-sized; cmd/table1 runs the full-scale table.
//   - BenchmarkQuickCheck — the QC column.
//   - BenchmarkWindowSweep — RV detection across window sizes (the
//     windowing strategy of Section 4).
//   - BenchmarkAblation* — merged-vs-adjacent race encoding, ≺-pruning
//     on/off, quick-check filter on/off.
//   - BenchmarkSAT/BenchmarkIDL/BenchmarkSMT — solver substrate (the IDL
//     pair demonstrates the trace-position seeding win).
//   - BenchmarkMinilang / BenchmarkTracefile — workload substrates.
//   - BenchmarkParallelDetect — window-parallel RV detection.
//   - BenchmarkDeadlockDetect / BenchmarkAtomicityDetect — the §2.5
//     query kinds of the core pipeline, with their solver work.
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/atomicity"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/deadlock"
	"repro/internal/encode"
	"repro/internal/hb"
	"repro/internal/idl"
	"repro/internal/lockset"
	"repro/internal/race"
	"repro/internal/said"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/tracefile"
	"repro/internal/tracev2"
	"repro/internal/vc"
	"repro/internal/workloads"
	"repro/minilang"
	"repro/rvpredict"
	"repro/trace"
)

// benchScale shrinks rows so a full -bench=. sweep is laptop-sized.
const benchScale = 4

// liveHeapMB samples the quiescent live heap in MiB. Collecting twice
// matters: sync.Pool contents survive one collection, and the slab pools
// under the triage fast path are exactly what the allocation assertions
// below are checking.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

var (
	rowOnce   sync.Once
	rowTraces map[string]*trace.Trace
	rowSpecs  map[string]workloads.Spec
)

func rows() (map[string]*trace.Trace, map[string]workloads.Spec) {
	rowOnce.Do(func() {
		rowTraces = make(map[string]*trace.Trace)
		rowSpecs = make(map[string]workloads.Spec)
		for _, spec := range workloads.Rows() {
			spec.Events /= benchScale
			tr, _ := workloads.Build(spec)
			rowTraces[spec.Name] = tr
			rowSpecs[spec.Name] = spec
		}
		ex, _ := workloads.Example()
		rowTraces["example"] = ex
		rowSpecs["example"] = workloads.Spec{Name: "example", Window: 10000}
	})
	return rowTraces, rowSpecs
}

// benchRows is the subset of rows benchmarked per detector; it covers every
// benchmark family of Table 1 (example, IBM Contest, Java Grande, real
// systems) while keeping the default sweep short.
var benchRows = []string{"example", "bufwriter", "bubblesort", "moldyn",
	"raytracer", "ftpserver", "derby", "eclipse"}

func BenchmarkTable1Metrics(b *testing.B) {
	for _, spec := range workloads.Rows() {
		spec.Events /= benchScale
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr, _ := workloads.Build(spec)
				st := tr.ComputeStats()
				if st.Events == 0 {
					b.Fatal("empty trace")
				}
			}
		})
	}
}

func BenchmarkDetect(b *testing.B) {
	traces, specs := rows()
	for _, name := range benchRows {
		tr := traces[name]
		window := specs[name].Window
		b.Run(name+"/RV", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.New(core.Options{WindowSize: window,
					SolveTimeout: time.Minute}).Detect(tr)
			}
			// One instrumented run (off the clock) turns the benchmark
			// into a solver-work regression: decisions, propagations and
			// query counts are deterministic per row.
			b.StopTimer()
			col := telemetry.NewCollector()
			res := core.New(core.Options{WindowSize: window, SolveTimeout: time.Minute,
				Telemetry: col}).Detect(tr)
			m := col.Snapshot()
			reportPhaseShares(b, m, res.Elapsed)
			b.ReportMetric(float64(m.Solver.Decisions), "decisions")
			b.ReportMetric(float64(m.Solver.TheoryProps), "theory_propagations")
			b.ReportMetric(float64(m.Solver.Propagations), "propagations")
			b.ReportMetric(float64(m.Solver.Conflicts), "conflicts")
			b.ReportMetric(float64(m.Outcomes.Solved), "queries")
			// Propagation bookkeeping, which only /metrics exports.
			b.ReportMetric(float64(col.Load(telemetry.WatchMoves)), "watch_moves")
			b.ReportMetric(float64(col.Load(telemetry.UndoLogEntries)), "undo_log_entries")
			// Clauses of the window encodings: the size of what the
			// replicas encode, informational next to the queries gate.
			b.ReportMetric(float64(m.Solver.Clauses), "clauses")
			b.ReportMetric(float64(m.Outcomes.Enumerated), "candidates")
			// Triage fast-path allocation regression: every rung of the
			// ladder borrows its clock state from the vc slab pools, so
			// repeated detections must leave the quiescent live heap
			// flat — growth here means a per-window state leak on the
			// fast path (a clock set or witness index not Released).
			before := liveHeapMB()
			for r := 0; r < 2; r++ {
				core.New(core.Options{WindowSize: window,
					SolveTimeout: time.Minute}).Detect(tr)
			}
			if grown := liveHeapMB() - before; grown > 1.0 {
				b.Errorf("live heap grew %.2f MiB over 2 detections — triage fast path is leaking per-window state", grown)
			}
			b.StartTimer()
		})
		b.Run(name+"/Said", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				said.New(said.Options{WindowSize: window,
					SolveTimeout: time.Minute}).Detect(tr)
			}
		})
		b.Run(name+"/CP", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cp.New(cp.Options{WindowSize: window}).Detect(tr)
			}
		})
		b.Run(name+"/HB", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hb.New(hb.Options{WindowSize: window}).Detect(tr)
			}
		})
	}
}

// reportPhaseShares attaches each phase's share of an instrumented run's
// elapsed time, in percent, as <phase>_share metrics: informational (the
// run is one sample), but a slowdown shows which layer grew. The shares
// of a sequential run add up to 100, other being the time no phase
// covers.
func reportPhaseShares(b *testing.B, m *telemetry.Metrics, elapsed time.Duration) {
	p := m.Phases
	for _, ph := range []struct {
		name string
		ns   int64
	}{
		{"enumerate", p.Enumerate}, {"mhb", p.MHB}, {"quick_check", p.QuickCheck},
		{"triage", m.Triage.FastPathNS}, {"encode", p.Encode}, {"rollback", p.Rollback},
		{"solve", p.Solve}, {"witness", p.Witness}, {"other", p.Other},
	} {
		b.ReportMetric(100*float64(ph.ns)/float64(elapsed), ph.name+"_share")
	}
}

func BenchmarkQuickCheck(b *testing.B) {
	traces, specs := rows()
	for _, name := range []string{"bufwriter", "derby"} {
		tr := traces[name]
		window := specs[name].Window
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lockset.New(lockset.Options{WindowSize: window}).Detect(tr)
			}
		})
	}
}

func BenchmarkWindowSweep(b *testing.B) {
	spec := workloads.Spec{
		Name: "sweep", Workers: 8, Events: 30000, Window: 1000, Seed: 99,
		Motifs: workloads.MotifCounts{Plain: 4, CP: 4, Said: 4, RVRegion: 8},
	}
	tr, _ := workloads.Build(spec)
	for _, w := range []int{1000, 2000, 5000, 10000, 30000} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.New(core.Options{WindowSize: w,
					SolveTimeout: time.Minute}).Detect(tr)
			}
		})
	}
}

func BenchmarkAblationRaceEncoding(b *testing.B) {
	traces, specs := rows()
	tr := traces["ftpserver"]
	window := specs["ftpserver"].Window
	b.Run("adjacent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.New(core.Options{WindowSize: window,
				SolveTimeout: time.Minute}).Detect(tr)
		}
	})
	b.Run("merged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			detectMerged(tr, window)
		}
	})
}

// detectMerged is the paper's detection architecture, kept as the
// race-encoding ablation: per window, the hybrid quick check, then one
// fresh solver per surviving candidate pair, with the race condition
// encoded by merging the pair's order variables (O_a := O_b), skipping
// signatures already proved racy. It returns the number of races.
func detectMerged(tr *trace.Trace, window int) int {
	found := make(map[race.Signature]bool)
	race.EachWindow(tr, window, func(w *trace.Trace, _, _ int) error {
		mhb := vc.ComputeMHB(w)
		sets := lockset.ComputeWith(w, mhb)
		for _, cop := range sets.Survivors(w, race.GroupAccesses(w)) {
			sig := race.SigOf(w, cop.A, cop.B)
			if found[sig] {
				continue
			}
			s := smt.NewSolver()
			s.SetDeadline(time.Now().Add(time.Minute))
			enc := encode.New(w, s, mhb, cop.A, cop.B)
			cf := encode.NewCF(enc, s)
			if enc.AssertMHB() == nil && enc.AssertLocks() == nil &&
				s.Assert(cf.ControlFlow(cop.A)) == nil && s.Assert(cf.ControlFlow(cop.B)) == nil &&
				s.Solve() == sat.Sat {
				found[sig] = true
			}
		}
		return nil
	})
	return len(found)
}

func BenchmarkAblationPruning(b *testing.B) {
	traces, specs := rows()
	tr := traces["moldyn"]
	window := specs["moldyn"].Window
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.New(core.Options{WindowSize: window,
				SolveTimeout: time.Minute}).Detect(tr)
		}
	})
	b.Run("unpruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.New(core.Options{WindowSize: window, NoPruning: true,
				SolveTimeout: time.Minute}).Detect(tr)
		}
	})
}

func BenchmarkAblationQuickCheck(b *testing.B) {
	traces, specs := rows()
	tr := traces["bufwriter"]
	window := specs["bufwriter"].Window
	b.Run("filtered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.New(core.Options{WindowSize: window,
				SolveTimeout: time.Minute}).Detect(tr)
		}
	})
	b.Run("unfiltered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.New(core.Options{WindowSize: window, NoQuickCheck: true,
				SolveTimeout: time.Minute}).Detect(tr)
		}
	})
}

func BenchmarkSAT(b *testing.B) {
	// A satisfiable random 3-SAT instance near the easy side of the phase
	// transition, rebuilt per iteration.
	b.Run("random3sat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(7))
			s := sat.New(nil)
			const n = 120
			for v := 0; v < n; v++ {
				s.NewVar()
			}
			for c := 0; c < 3*n; c++ {
				s.AddClause(
					sat.MkLit(sat.Var(rng.Intn(n)), rng.Intn(2) == 0),
					sat.MkLit(sat.Var(rng.Intn(n)), rng.Intn(2) == 0),
					sat.MkLit(sat.Var(rng.Intn(n)), rng.Intn(2) == 0))
			}
			s.Solve()
		}
	})
	b.Run("pigeonhole7", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sat.New(nil)
			const n = 7
			vars := make([][]sat.Var, n+1)
			for p := range vars {
				vars[p] = make([]sat.Var, n)
				for h := range vars[p] {
					vars[p][h] = s.NewVar()
				}
			}
			for p := 0; p <= n; p++ {
				lits := make([]sat.Lit, n)
				for h := 0; h < n; h++ {
					lits[h] = sat.MkLit(vars[p][h], true)
				}
				s.AddClause(lits...)
			}
			for h := 0; h < n; h++ {
				for p1 := 0; p1 <= n; p1++ {
					for p2 := p1 + 1; p2 <= n; p2++ {
						s.AddClause(sat.MkLit(vars[p1][h], false),
							sat.MkLit(vars[p2][h], false))
					}
				}
			}
			if s.Solve() != sat.Unsat {
				b.Fatal("PHP(7) must be unsat")
			}
		}
	})
}

func BenchmarkIDL(b *testing.B) {
	// An order chain asserted first-to-last: with zero-initialised
	// potentials every assert cascades a repair down the whole prefix
	// (quadratic); seeding with trace positions (what the encoders do)
	// makes each assert O(1) — the ablation pair below shows why.
	b.Run("chain-assert-unseeded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := idl.New()
			const n = 2000
			vars := make([]idl.VarID, n)
			for j := range vars {
				vars[j] = s.NewVar()
			}
			for j := 0; j+1 < n; j++ {
				if s.Assert(vars[j], vars[j+1], -1, idl.Tag(j)) != nil {
					b.Fatal("chain must be sat")
				}
			}
		}
	})
	b.Run("chain-assert-seeded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := idl.New()
			const n = 2000
			vars := make([]idl.VarID, n)
			for j := range vars {
				vars[j] = s.NewVarAt(int64(j))
			}
			for j := 0; j+1 < n; j++ {
				if s.Assert(vars[j], vars[j+1], -1, idl.Tag(j)) != nil {
					b.Fatal("chain must be sat")
				}
			}
		}
	})
	b.Run("conflict-detect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := idl.New()
			const n = 500
			vars := make([]idl.VarID, n)
			for j := range vars {
				vars[j] = s.NewVar()
			}
			for j := 0; j+1 < n; j++ {
				s.Assert(vars[j], vars[j+1], -1, idl.Tag(j))
			}
			if s.Assert(vars[n-1], vars[0], -1, 999) == nil {
				b.Fatal("cycle must conflict")
			}
		}
	})
}

func BenchmarkSMT(b *testing.B) {
	// Ordering disjunctions like Φ_lock: n sections, pairwise either-or.
	b.Run("lock-disjunctions", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := smt.NewSolver()
			const n = 40
			acq := make([]smt.IntVar, n)
			rel := make([]smt.IntVar, n)
			for j := 0; j < n; j++ {
				acq[j] = s.IntVar()
				rel[j] = s.IntVar()
				s.Assert(smt.Less(acq[j], rel[j]))
			}
			for j := 0; j < n; j++ {
				for k := j + 1; k < n; k++ {
					s.Assert(smt.Or(smt.Less(rel[j], acq[k]), smt.Less(rel[k], acq[j])))
				}
			}
			if s.Solve() != sat.Sat {
				b.Fatal("sections are serialisable")
			}
		}
	})
}

func BenchmarkMinilang(b *testing.B) {
	src := `shared x, total;
lock m;
thread main {
  fork w1;
  fork w2;
  join w1;
  join w2;
}
thread w1 {
  i = 0;
  while (i < 200) {
    lock m; total = total + 1; unlock m;
    x = i;
    i = i + 1;
  }
}
thread w2 {
  i = 0;
  while (i < 200) {
    lock m; total = total + 1; unlock m;
    i = i + 1;
  }
}`
	prog, err := minilang.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("interpret", func(b *testing.B) {
		var events int
		for i := 0; i < b.N; i++ {
			tr, err := prog.Run(minilang.RunOptions{Scheduler: &minilang.Random{Seed: int64(i)}})
			if err != nil {
				b.Fatal(err)
			}
			events = tr.Len()
		}
		b.ReportMetric(float64(events), "events/run")
	})
	b.Run("compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := minilang.Compile(src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkTracefile(b *testing.B) {
	traces, _ := rows()
	tr := traces["moldyn"]
	var buf bytes.Buffer
	if err := tracefile.Encode(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var out bytes.Buffer
			if err := tracefile.Encode(&out, tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := tracefile.Decode(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCOPEnumeration measures the maximal detector's candidate
// stage on derby: grouping the accesses by address and counting the
// conflicting pairs, then the MHB and lockset passes and the quick-check
// sweep that builds only the survivors.
func BenchmarkCOPEnumeration(b *testing.B) {
	traces, _ := rows()
	tr := traces["derby"]
	for i := 0; i < b.N; i++ {
		race.Windows(tr, 10000, func(w *trace.Trace, _ int) {
			acc := race.GroupAccesses(w)
			acc.Count(w, nil)
			mhb := vc.ComputeMHB(w)
			lockset.ComputeWith(w, mhb).Survivors(w, acc)
			mhb.Release()
		})
	}
}

func BenchmarkParallelDetect(b *testing.B) {
	traces, specs := rows()
	tr := traces["derby"]
	window := specs["derby"].Window
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.New(core.Options{WindowSize: window, Parallelism: par,
					SolveTimeout: time.Minute}).Detect(tr)
			}
		})
	}
}

// BenchmarkPairParallelDetect measures the intra-window pair scheduler on
// a single-window workload — the regime window workers cannot touch (one
// window ⇒ one window worker), so Parallelism spends its workers on the
// window's pairs. The workload plants many distinct signatures so the
// solve queue has real group structure to distribute.
func BenchmarkPairParallelDetect(b *testing.B) {
	spec := workloads.Spec{
		Name: "pairpar", Workers: 8, Events: 3000, Window: 3000, Seed: 7,
		Motifs: workloads.MotifCounts{Plain: 6, CP: 4, Said: 6, RVRegion: 10,
			RVIncomplete: 4},
	}
	tr, _ := workloads.Build(spec)
	for _, pp := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("pairworkers=%d", pp), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.New(core.Options{WindowSize: spec.Window, Parallelism: pp,
					SolveTimeout: time.Minute}).Detect(tr)
			}
		})
	}
}

// serverTrace builds the examples/server workload: request-dispatching
// workers with a lock-protected session table, an unprotected stats
// counter and an unsynchronised shutdown flag.
func serverTrace(b *testing.B) *trace.Trace {
	b.Helper()
	const workers = 4
	const requests = 40
	var sb bytes.Buffer
	sb.WriteString("shared sessions, stats, shutdown;\nlock tbl;\n")
	sb.WriteString("thread main {\n")
	for i := 1; i <= workers; i++ {
		fmt.Fprintf(&sb, "  fork w%d;\n", i)
	}
	sb.WriteString("  shutdown = 1;\n")
	for i := 1; i <= workers; i++ {
		fmt.Fprintf(&sb, "  join w%d;\n", i)
	}
	sb.WriteString("}\n")
	for i := 1; i <= workers; i++ {
		fmt.Fprintf(&sb, `thread w%d {
  i = 0;
  while (i < %d) {
    lock tbl;
    sessions = sessions + 1;
    unlock tbl;
    stats = stats + 1;
    i = i + 1;
  }
  r = shutdown;
  if (r == 1) {
    skip;
  }
}
`, i, requests)
	}
	prog, err := minilang.Compile(sb.String())
	if err != nil {
		b.Fatal(err)
	}
	tr, err := prog.Run(minilang.RunOptions{
		Scheduler: &minilang.Random{Seed: 42},
		MaxSteps:  1 << 22,
	})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkTelemetryOverhead measures full RV detection on the
// examples/server workload across the observation ladder: no collector
// (the nil-receiver disabled path, which must stay within ~2% of the
// bare detector), counters on, counters + span recording, and counters
// + the live introspection HTTP server attached (no scrapers — the cost
// of having the endpoint up, not of serving it). The off/on deltas are
// the overheads documented in doc/observability.md.
func BenchmarkTelemetryOverhead(b *testing.B) {
	tr := serverTrace(b)
	const window = 2000
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.New(core.Options{WindowSize: window,
				SolveTimeout: time.Minute}).Detect(tr)
		}
	})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			col := telemetry.NewCollector()
			res := core.New(core.Options{WindowSize: window, SolveTimeout: time.Minute,
				Telemetry: col}).Detect(tr)
			if m := col.Snapshot(); m.Outcomes.Solved == 0 && len(res.Races) > 0 {
				b.Fatal("telemetry recorded nothing")
			}
		}
	})
	b.Run("spans", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			col := telemetry.NewCollector()
			col.AttachSpans(telemetry.NewSpanRecorder(0, nil))
			core.New(core.Options{WindowSize: window, SolveTimeout: time.Minute,
				Telemetry: col}).Detect(tr)
			if len(col.Spans().Events()) == 0 {
				b.Fatal("span recorder captured nothing")
			}
		}
	})
	b.Run("http", func(b *testing.B) {
		opt := rvpredict.Options{WindowSize: window, SolveTimeout: time.Minute,
			Telemetry: true, DebugAddr: "127.0.0.1:0"}
		for i := 0; i < b.N; i++ {
			if _, err := rvpredict.Run(nil, tr, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJournalDetect measures full RV detection on a Table 1 row with
// the crash-safe window journal off and on (default group commit): the
// off/on delta is the durability overhead documented in
// doc/robustness.md, expected within noise because appends batch their
// fsyncs.
func BenchmarkJournalDetect(b *testing.B) {
	traces, specs := rows()
	tr := traces["derby"]
	window := specs["derby"].Window
	opt := rvpredict.Options{WindowSize: window, SolveTimeout: time.Minute}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rvpredict.Run(nil, tr, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		dir := b.TempDir()
		jopt := opt
		for i := 0; i < b.N; i++ {
			jopt.Journal = filepath.Join(dir, fmt.Sprintf("bench-%d.journal", i))
			if _, err := rvpredict.Run(nil, tr, jopt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDeadlockDetect(b *testing.B) {
	// Dining-philosophers-style inversions planted in branch-heavy filler.
	bld := trace.NewBuilder()
	for i := 0; i < 40; i++ {
		a := trace.Addr(100 + 2*i)
		c := trace.Addr(101 + 2*i)
		bld.At(trace.Loc(4*i+1)).Acquire(1, a)
		bld.At(trace.Loc(4*i+2)).Acquire(1, c)
		bld.Release(1, c)
		bld.Release(1, a)
		bld.At(trace.Loc(4*i+3)).Acquire(2, c)
		bld.At(trace.Loc(4*i+4)).Acquire(2, a)
		bld.Release(2, a)
		bld.Release(2, c)
		for j := 0; j < 10; j++ {
			bld.Branch(3)
		}
	}
	tr := bld.Trace()
	var m *telemetry.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := telemetry.NewCollector()
		res := core.DetectKind(context.Background(), deadlock.Kind, core.Options{SolveTimeout: time.Minute, Telemetry: col}, tr)
		if len(res.Races) == 0 {
			b.Fatal("expected deadlocks")
		}
		m = col.Snapshot()
	}
	reportSolverWork(b, m)
}

// reportSolverWork reports a query kind's solver queries, solvers and
// clauses, per run.
func reportSolverWork(b *testing.B, m *telemetry.Metrics) {
	b.ReportMetric(float64(m.Outcomes.Solved), "queries")
	b.ReportMetric(float64(m.Solver.Solvers), "solvers")
	b.ReportMetric(float64(m.Solver.Clauses), "clauses")
}

// streamBenchTrace builds a lock-disciplined workload of the given
// length over a fixed set of addresses, locks and locations, so its
// metadata footprint does not scale with event count — what grows is
// only the event stream itself, which is exactly what the ingest bound
// is about.
func streamBenchTrace(events int) *trace.Trace {
	bld := trace.NewBuilder()
	const threads = 4
	for blk := 0; blk*5 < events; blk++ {
		t := trace.TID(1 + blk%threads)
		l := trace.Addr(200 + blk%threads)
		x := trace.Addr(10 + blk%64)
		loc := trace.Loc(1000 + blk%128)
		bld.At(loc).Acquire(t, l)
		bld.At(loc+1).Write(t, x, int64(blk))
		bld.At(loc+2).Read(t, x)
		bld.Release(t, l)
		bld.At(loc + 3).Branch(t)
	}
	return bld.Trace()
}

// BenchmarkStreamIngest demonstrates the streaming daemon's bounded
// ingest memory: the same workload shape is streamed at growing event
// counts against a fixed window size, and the open session's live-heap
// footprint — the difference between quiescent live heap with the whole
// stream ingested (session still open) and after the session completes,
// with the input trace pinned across both samples — stays flat while
// the event count grows 64×: per-session memory is O(window), not
// O(stream).
func BenchmarkStreamIngest(b *testing.B) {
	liveHeap := liveHeapMB
	for _, events := range []int{16_000, 128_000, 1_024_000} {
		tr := streamBenchTrace(events)
		b.Run(fmt.Sprintf("events=%d", events), func(b *testing.B) {
			d, err := stream.New(stream.Options{
				StateDir: b.TempDir(),
				Detect: rvpredict.Options{
					WindowSize:   4096,
					SolveTimeout: time.Minute,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go d.Serve(ln) //nolint:errcheck

			var sessionMB float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conn, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					b.Fatal(err)
				}
				cl := stream.NewClient(conn)
				if _, err := cl.Handshake(fmt.Sprintf("bench-%d", i)); err != nil {
					b.Fatal(err)
				}
				if err := cl.SendTrace(tr, 0, 4096); err != nil {
					b.Fatal(err)
				}
				// The whole stream is ingested (SendTrace blocks under the
				// daemon's backpressure) but the session is still open.
				b.StopTimer()
				mid := liveHeap()
				b.StartTimer()
				rep, err := cl.End()
				if err != nil {
					b.Fatal(err)
				}
				if rep.Stats.Events != tr.Len() {
					b.Fatalf("streamed %d events, report says %d", tr.Len(), rep.Stats.Events)
				}
				conn.Close()
				b.StopTimer()
				if m := mid - liveHeap(); m > sessionMB {
					sessionMB = m
				}
				runtime.KeepAlive(tr)
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(events), "events")
			b.ReportMetric(sessionMB, "session_live_MB")
		})
	}
}

// BenchmarkChunkedDetect measures out-of-core detection through the
// chunked columnar reader (internal/tracev2) at two trace sizes 10×
// apart. Each iteration opens the mmapped file fresh and analyses it
// via Options.TraceReader, so the heap never holds the materialised
// trace. The live_heap_mb metric is the peak quiescent live heap
// observed during the run (a concurrent sampler forces collections, so
// mid-window state counts); bench_compare.py --heap-gate fails when it
// grows superlinearly in trace_events across the size pair — the
// regression signature of the reader path re-materialising the trace.
func BenchmarkChunkedDetect(b *testing.B) {
	liveHeap := liveHeapMB
	// A fixed chunk size (not DefaultChunkSize) keeps the O(chunk) term
	// small against both trace sizes, so the metric isolates whatever
	// scales with the trace — which should be nothing.
	const chunkSize = 8192
	for _, events := range []int{128_000, 1_280_000} {
		path := filepath.Join(b.TempDir(), "bench.rvc2")
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := tracev2.WriteTrace(f, streamBenchTrace(events), chunkSize); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("events=%d", events), func(b *testing.B) {
			// Peak is reported net of the pre-run quiescent heap, so
			// state pinned by earlier benchmark families (the cached
			// Table 1 rows) does not drown the signal.
			base := liveHeap()
			var peakMB float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd, err := tracev2.Open(path)
				if err != nil {
					b.Fatal(err)
				}
				stop := make(chan struct{})
				done := make(chan struct{})
				var peak float64
				go func() {
					defer close(done)
					tick := time.NewTicker(20 * time.Millisecond)
					defer tick.Stop()
					for {
						select {
						case <-stop:
							return
						case <-tick.C:
							if m := liveHeap(); m > peak {
								peak = m
							}
						}
					}
				}()
				rep, err := rvpredict.Run(nil, nil, rvpredict.Options{
					WindowSize:   4096,
					SolveTimeout: time.Minute,
					TraceReader:  rd,
				})
				close(stop)
				<-done
				if err != nil {
					b.Fatal(err)
				}
				if rep.Stats.Events != events {
					b.Fatalf("analysed %d events, want %d", rep.Stats.Events, events)
				}
				b.StopTimer()
				if m := liveHeap(); m > peak {
					peak = m
				}
				if err := rd.Close(); err != nil {
					b.Fatal(err)
				}
				if peak > peakMB {
					peakMB = peak
				}
				b.StartTimer()
			}
			b.StopTimer()
			if peakMB -= base; peakMB < 0.01 {
				peakMB = 0.01
			}
			b.ReportMetric(float64(events), "trace_events")
			b.ReportMetric(peakMB, "live_heap_mb")
		})
	}
}

func BenchmarkAtomicityDetect(b *testing.B) {
	bld := trace.NewBuilder()
	for i := 0; i < 40; i++ {
		bal := trace.Addr(10 + i)
		l := trace.Addr(500 + i)
		bld.At(trace.Loc(3*i+1)).Acquire(1, l)
		bld.At(trace.Loc(3*i+2)).Read(1, bal)
		bld.At(trace.Loc(3*i+2)).Write(1, bal, int64(i))
		bld.Release(1, l)
		bld.At(trace.Loc(3*i+3)).Write(2, bal, 99)
	}
	tr := bld.Trace()
	var m *telemetry.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := telemetry.NewCollector()
		res := core.DetectKind(context.Background(), atomicity.Kind, core.Options{SolveTimeout: time.Minute, Telemetry: col}, tr)
		if len(res.Races) == 0 {
			b.Fatal("expected violations")
		}
		m = col.Snapshot()
	}
	reportSolverWork(b, m)
}
