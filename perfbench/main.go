// Command perfbench is the repository's end-to-end benchmark. It drives
// the rvpredict and rvpredictd commands, built from the same checkout,
// over Table 1 traces it generates from its seed, checks every report
// against the races planted in the trace, and prints one JSON result as
// the last line of standard output. BENCHMARK.json lists the workloads
// and the metrics.
//
// Run it through run.sh, which builds everything first:
//
//	bash perfbench/run.sh --workload derby --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the detector runs with its telemetry off and the result
// carries the end-to-end metrics:
//
//   - latency_ms: median wall-clock of one job as its client sees it: an
//     rvpredict run, a daemon session through rvpredict -daemon, or a
//     fleet run from the coordinator's start to its report;
//   - events_per_s: trace events analysed per second of job wall-clock;
//   - peak_rss_mib: median peak RSS of a job's processes, summed over a
//     fleet's three; for the daemon, the daemon's peak over the run;
//   - setup_s: median time to generate the run's traces and, for the
//     daemon workload, start rvpredictd until it reports ready.
//
// With --trace 1 the same jobs run with telemetry on and the result
// carries per-layer metrics: the detector's phase times and counters,
// plus spans the benchmark records around each process it talks to (written
// to spans-<workload>-<seed>.json in the work directory). All per-layer
// figures are means per job.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/workloads"
)

// setups is how many times a run builds its inputs and starts the system
// before measuring; setup_s is the median of these.
const setups = 3

// A workload is the traces a run generates and the way it drives the
// detector over them. Jobs run in closed loop, one at a time, in rounds:
// a round analyses one trace of each of the workload's rows, each round
// with freshly seeded traces, so a run averages over many traces of every
// row and weighs the rows alike.
type workload struct {
	round     []workloads.Spec
	roundCost time.Duration // rough wall-clock of one round; sizes the trace list
	chunked   bool          // write .rvc2 chunked traces instead of legacy .rvpt
	target    func(env *env) target
}

var benchWorkloads = map[string]workload{
	// The heaviest Table 1 row: 469 quick-check pairs, about 40 per
	// window, most of them dispatched to the SMT solver and refuted there,
	// so encoding, solving and solver rollback dominate. Shrunk 12x, to one
	// window of the row's pair density, so one analysis takes about a
	// second and a run sees many of them.
	"derby": {
		round:     []workloads.Spec{shrink(row("derby"), 12)},
		roundCost: 1500 * time.Millisecond,
		target:    newCLI,
	},
	// The other real-system rows at full size, in the chunked format:
	// large windows with few dispatched pairs, so encoding, enumeration
	// and out-of-core window decoding dominate.
	"realsys": {
		round:     rows("ftpserver", "jigsaw", "sunflow", "xalan", "lusearch", "eclipse"),
		roundCost: 6 * time.Second,
		chunked:   true,
		target:    newCLI,
	},
	// Sessions streamed into one long-running rvpredictd: ingest, the
	// per-session journal and online window analysis. One mid-size row,
	// so the sessions are alike and their median is well defined.
	"daemon": {
		round:     rows("lusearch"),
		roundCost: 800 * time.Millisecond,
		target:    newDaemon,
	},
	// One coordinator and two worker processes per trace: leases, the
	// wire protocol, the coordinator journal and the merged report.
	"fleet": {
		round:     rows("lusearch", "sunflow"),
		roundCost: 3 * time.Second,
		chunked:   true,
		target:    newFleet,
	},
}

// env is what every target needs to run the detector.
type env struct {
	ctx    context.Context
	bin    string // directory holding rvpredict and rvpredictd
	dir    string // scratch directory of this run
	traced bool
	spans  *spans
}

// A target is the system under test as one workload drives it.
type target interface {
	// up starts whatever must run before the first job.
	up() error
	// job analyses one input.
	job(in input, seq int) (job, error)
	// down stops what up started. It returns per-layer totals and a peak
	// RSS (KiB) that can only be read once the system has stopped.
	down() (layers map[string]float64, rssKiB int64, err error)
}

// job is what the benchmark saw of one analysis.
type job struct {
	wall   time.Duration
	rssKiB int64 // peak RSS of the analysing processes; 0 when down reports it
	events int
	ok     bool               // the report carried exactly the planted races
	layers map[string]float64 // per-layer figures, traced runs only
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		bin     = flag.String("bin", "", "directory holding the built rvpredict and rvpredictd")
		work    = flag.String("work", "", "directory for scratch files")
		name    = flag.String("workload", "", "workload to run: derby, realsys, daemon or fleet")
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Int("seconds", 10, "how long to measure")
		traced  = flag.Int("trace", 0, "1 reports per-layer metrics from a run with telemetry on")
	)
	flag.Parse()
	w, ok := benchWorkloads[*name]
	if !ok || *bin == "" || *work == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -bin dir -work dir --workload derby|realsys|daemon|fleet --seed n --seconds s --trace 0|1")
		os.Exit(2)
	}
	res, err := bench(w, *name, *bin, *work, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func bench(w workload, name, bin, work string, seed int64, measure time.Duration, traced bool) (res result, err error) {
	// Every process is killed by this deadline, so the run ends in time
	// even if the detector hangs.
	ctx, cancel := context.WithTimeout(context.Background(), measure+120*time.Second)
	defer cancel()
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	e := &env{ctx: ctx, bin: bin, dir: dir, traced: traced, spans: &spans{}}

	// Set-up: generate the traces and start the system, several times.
	// A faster detector wraps around to the first round again.
	rounds := int((measure + w.roundCost - 1) / w.roundCost)
	var specs []workloads.Spec
	for r := 0; r < rounds; r++ {
		specs = append(specs, w.round...)
	}
	var setupTimes []float64
	var ins []input
	var t target
	for i := 0; i < setups; i++ {
		if t != nil {
			if _, _, err := t.down(); err != nil {
				return res, err
			}
		}
		start := time.Now()
		if ins, err = generate(dir, seed, specs, w.chunked); err != nil {
			return res, err
		}
		t = w.target(e)
		if err := t.up(); err != nil {
			return res, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	up := true
	defer func() {
		if up {
			t.down() //nolint:errcheck // error path: the run already failed
		}
	}()

	var jobs []job
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < measure; r++ {
		first := r % rounds * len(w.round)
		for _, in := range ins[first : first+len(w.round)] {
			j, err := t.job(in, len(jobs))
			if err != nil {
				return res, err
			}
			jobs = append(jobs, j)
		}
	}
	up = false
	downLayers, downRSS, err := t.down()
	if err != nil {
		return res, err
	}

	res = result{Attempted: len(jobs), Metrics: map[string]metric{}}
	var walls, rss []float64
	var events int
	var busy time.Duration
	for _, j := range jobs {
		if !j.ok {
			res.Failed++
		}
		walls = append(walls, ms(j.wall))
		if j.rssKiB > 0 {
			rss = append(rss, float64(j.rssKiB)/1024)
		}
		events += j.events
		busy += j.wall
	}
	res.Correct = res.Failed == 0
	if len(rss) == 0 {
		rss = []float64{float64(downRSS) / 1024}
	}
	if !traced {
		res.Metrics["latency_ms"] = metric{median(walls), "ms"}
		res.Metrics["events_per_s"] = metric{float64(events) / busy.Seconds(), "1/s"}
		res.Metrics["peak_rss_mib"] = metric{median(rss), "MiB"}
		res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
		return res, nil
	}
	sums := map[string]float64{}
	for k, v := range downLayers {
		sums[k] += v
	}
	for _, j := range jobs {
		for k, v := range j.layers {
			sums[k] += v
		}
	}
	for _, l := range perLayer {
		res.Metrics[l.name] = metric{sums[l.name] / float64(len(jobs)), l.unit}
	}
	path := filepath.Join(work, fmt.Sprintf("spans-%s-%d.json", name, seed))
	if err := e.spans.write(path); err != nil {
		return res, err
	}
	return res, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
