// Command table1 regenerates the paper's Table 1: per benchmark, the trace
// metrics (#Thrd, #Event, #RW, #Sync, #Br), the number of potential races
// passing the quick check (QC), the real races found by the four sound
// techniques (RV, Said, CP, HB), and each technique's detection time.
//
// Every row is a synthetic model of the paper's benchmark with planted
// race structure (see internal/workloads and EXPERIMENTS.md); the final
// column group compares the measured counts against the row's planted
// ground truth.
//
// Usage:
//
//	table1 [-scale N] [-rows regexp] [-timeout d] [-skip-said] [-csv | -json]
//
// -json emits one JSON record per row (newline-delimited), each carrying
// the trace metrics, every technique's counts and timings, the planted
// ground truth, and the RV run's telemetry snapshot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"time"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/hb"
	"repro/internal/lockset"
	"repro/internal/race"
	"repro/internal/said"
	"repro/internal/telemetry"
	"repro/internal/workloads"
	"repro/rvpredict"
	"repro/trace"
)

// techResult is one technique's measured outcome on one row.
type techResult struct {
	Races     int   `json:"races"`
	Pairs     int   `json:"pairs_checked"`
	Windows   int   `json:"windows"`
	ElapsedNS int64 `json:"elapsed_ns"`
}

// rowRecord is one -json output line: everything a Table 1 row carries,
// plus the RV run's telemetry snapshot.
type rowRecord struct {
	Program string           `json:"program"`
	Stats   trace.Stats      `json:"stats"`
	QC      techResult       `json:"qc"`
	RV      techResult       `json:"rv"`
	Said    *techResult      `json:"said,omitempty"`
	CP      techResult       `json:"cp"`
	HB      techResult       `json:"hb"`
	Planted workloads.Expect `json:"planted"`
	// Triage and Journal lift the RV telemetry's tier-confirmation and
	// journal counters to the top level, so scripts/bench_compare.py can
	// diff them between snapshots without digging through the full
	// telemetry tree.
	Triage    *telemetry.TriageCounters  `json:"triage,omitempty"`
	Journal   *telemetry.JournalCounters `json:"journal,omitempty"`
	Telemetry *telemetry.Metrics         `json:"telemetry"`
}

func tech(r race.Result) techResult {
	return techResult{
		Races:     r.Count(),
		Pairs:     r.COPsChecked,
		Windows:   r.Windows,
		ElapsedNS: int64(r.Elapsed),
	}
}

func main() {
	var (
		scale    = flag.Int("scale", 1, "divide every row's event count by N")
		rowsRe   = flag.String("rows", "", "only rows matching this regexp")
		timeout  = flag.Duration("timeout", 60*time.Second, "per-pair solver timeout")
		skipSaid = flag.Bool("skip-said", false, "skip the Said baseline (slowest column)")
		csv      = flag.Bool("csv", false, "emit CSV instead of the aligned table")
		jsonOut  = flag.Bool("json", false, "emit one JSON record per row (with RV telemetry) instead of the table")
	)
	flag.Parse()

	var filter *regexp.Regexp
	if *rowsRe != "" {
		var err error
		filter, err = regexp.Compile(*rowsRe)
		if err != nil {
			fmt.Fprintln(os.Stderr, "table1:", err)
			os.Exit(2)
		}
	}

	if *csv && !*jsonOut {
		fmt.Println("program,threads,events,rw,sync,branch,qc,rv,said,cp,hb," +
			"t_rv_ms,t_said_ms,t_cp_ms,t_hb_ms,planted_qc,planted_rv,planted_said,planted_cp,planted_hb")
	} else if !*jsonOut {
		fmt.Printf("%-11s %5s %8s %8s %7s %7s | %5s %5s %5s %5s %5s | %9s %9s %9s %9s | %s\n",
			"Program", "#Thrd", "#Event", "#RW", "#Sync", "#Br",
			"QC", "RV", "Said", "CP", "HB",
			"t(RV)", "t(Said)", "t(CP)", "t(HB)", "planted QC/RV/Said/CP/HB")
	}

	enc := json.NewEncoder(os.Stdout)
	run := func(name string, tr *trace.Trace, window int, want workloads.Expect) {
		if filter != nil && !filter.MatchString(name) {
			return
		}
		st := tr.ComputeStats()

		var col *telemetry.Collector
		if *jsonOut {
			col = telemetry.NewCollector()
		}
		qc := lockset.New(lockset.Options{WindowSize: window}).Detect(tr)
		// Core's spelling, not rvpredict's: -timeout 0 means unbounded,
		// as it does for the Said column below.
		copt := rvpredict.Options{WindowSize: window, SolveTimeout: *timeout}.CoreOptions()
		copt.Telemetry = col
		rv := core.New(copt).Detect(tr)
		var sd race.Result
		sdTime := "-"
		if !*skipSaid {
			sd = said.New(said.Options{WindowSize: window, SolveTimeout: *timeout}).Detect(tr)
			sdTime = fmtDur(sd.Elapsed)
		}
		cpr := cp.New(cp.Options{WindowSize: window}).Detect(tr)
		hbr := hb.New(hb.Options{WindowSize: window}).Detect(tr)

		if *jsonOut {
			rec := rowRecord{
				Program:   name,
				Stats:     st,
				QC:        tech(qc),
				RV:        tech(rv),
				CP:        tech(cpr),
				HB:        tech(hbr),
				Planted:   want,
				Telemetry: col.Snapshot(),
			}
			if rec.Telemetry != nil {
				rec.Triage = &rec.Telemetry.Triage
				rec.Journal = &rec.Telemetry.Journal
			}
			if !*skipSaid {
				s := tech(sd)
				rec.Said = &s
			}
			if err := enc.Encode(rec); err != nil {
				fmt.Fprintln(os.Stderr, "table1:", err)
				os.Exit(2)
			}
			return
		}
		if *csv {
			fmt.Printf("%s,%d,%d,%d,%d,%d,%d,%d,%s,%d,%d,%d,%s,%d,%d,%d,%d,%d,%d,%d\n",
				name, st.Threads, st.Events, st.Accesses, st.Syncs, st.Branches,
				qc.Count(), rv.Count(), countOrDash(!*skipSaid, sd.Count()),
				cpr.Count(), hbr.Count(),
				rv.Elapsed.Milliseconds(), csvDur(!*skipSaid, sd.Elapsed),
				cpr.Elapsed.Milliseconds(), hbr.Elapsed.Milliseconds(),
				want.QC, want.RV, want.Said, want.CP, want.HB)
			return
		}
		fmt.Printf("%-11s %5d %8d %8d %7d %7d | %5d %5d %5s %5d %5d | %9s %9s %9s %9s | %d/%d/%d/%d/%d\n",
			name, st.Threads, st.Events, st.Accesses, st.Syncs, st.Branches,
			qc.Count(), rv.Count(), countOrDash(!*skipSaid, sd.Count()),
			cpr.Count(), hbr.Count(),
			fmtDur(rv.Elapsed), sdTime, fmtDur(cpr.Elapsed), fmtDur(hbr.Elapsed),
			want.QC, want.RV, want.Said, want.CP, want.HB)
	}

	extr, exWant := workloads.Example()
	run("example", extr, 10000, exWant)
	for _, spec := range workloads.Rows() {
		if *scale > 1 {
			spec.Events /= *scale
		}
		tr, want := workloads.Build(spec)
		run(spec.Name, tr, spec.Window, want)
	}
}

func csvDur(have bool, d time.Duration) string {
	if !have {
		return "-"
	}
	return fmt.Sprintf("%d", d.Milliseconds())
}

func countOrDash(have bool, n int) string {
	if !have {
		return "-"
	}
	return fmt.Sprintf("%d", n)
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.1fs", d.Seconds())
	default:
		return fmt.Sprintf("%dms", d.Milliseconds())
	}
}
