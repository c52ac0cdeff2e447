package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// layer is one per-layer metric and where the detector reports it: a
// section.field of the JSON report's telemetry, a series of rvpredictd's
// /metrics, or neither when the benchmark measures it itself.
type layer struct {
	name, unit string
	tele, prom string
}

var perLayer = []layer{
	// Measured by the benchmark: the detector's own elapsed time, the rest
	// of the job's wall clock (process start, trace decode, streaming,
	// report rendering), and the spans around the fleet's processes.
	{name: "analysis_ms", unit: "ms"},
	{name: "process_ms", unit: "ms"},
	{name: "coordinator_start_ms", unit: "ms"},
	{name: "fleet_workers_ms", unit: "ms"},
	{name: "fleet_merge_ms", unit: "ms"},
	{name: "fleet_leases", unit: "count"},

	// Reported by the detector.
	{"enumerate_ms", "ms", "phases.cop_enumeration_ns", `rvpredict_phase_seconds_total{phase="cop_enumeration"}`},
	{"mhb_ms", "ms", "phases.mhb_ns", `rvpredict_phase_seconds_total{phase="mhb"}`},
	{"quick_check_ms", "ms", "phases.quick_check_ns", `rvpredict_phase_seconds_total{phase="quick_check"}`},
	{"triage_ms", "ms", "triage.fast_path_ns", "rvpredict_triage_fast_path_seconds_total"},
	{"encode_ms", "ms", "phases.encode_ns", `rvpredict_phase_seconds_total{phase="encode"}`},
	{"solve_ms", "ms", "phases.solve_ns", `rvpredict_phase_seconds_total{phase="solve"}`},
	{"pair_queue_wait_ms", "ms", "pair_scheduler.queue_wait_ns", "rvpredict_pair_queue_wait_seconds_total"},
	{"journal_fsync_ms", "ms", "journal.fsync_ns", "rvpredict_journal_fsync_seconds_total"},
	{"ingest_backpressure_ms", "ms", "", "rvpredict_ingest_backpressure_seconds_total"},
	{"candidates", "count", "outcomes.candidates_enumerated", "rvpredict_candidates_enumerated_total"},
	{"queries", "count", "outcomes.queries_solved", "rvpredict_queries_solved_total"},
	{"sat_decisions", "count", "solver.decisions", "rvpredict_solver_decisions_total"},
	{"sat_conflicts", "count", "solver.conflicts", "rvpredict_solver_conflicts_total"},
	{"pair_rollbacks", "count", "pair_scheduler.rollbacks", "rvpredict_pair_rollbacks_total"},
	{"clauses", "count", "solver.clauses", ""},
	{"journal_records", "count", "journal.records_written", "rvpredict_journal_records_total"},
}

// teleLayers reads the per-layer figures out of a JSON report's
// telemetry. Telemetry times are nanoseconds.
func teleLayers(tel map[string]any) map[string]float64 {
	out := map[string]float64{}
	for _, l := range perLayer {
		section, field, ok := strings.Cut(l.tele, ".")
		if !ok {
			continue
		}
		fields, _ := tel[section].(map[string]any)
		v, _ := fields[field].(float64)
		if l.unit == "ms" {
			v /= 1e6
		}
		out[l.name] = v
	}
	return out
}

// promLayers turns two /metrics scrapes into the per-layer totals
// between them. Prometheus times are seconds.
func promLayers(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, l := range perLayer {
		if l.prom == "" {
			continue
		}
		v := after[l.prom] - before[l.prom]
		if l.unit == "ms" {
			v *= 1e3
		}
		out[l.name] = v
	}
	return out
}

func get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return http.DefaultClient.Do(req)
}

// scrape fetches a Prometheus text exposition into series → value.
func scrape(ctx context.Context, url string) (map[string]float64, error) {
	resp, err := get(ctx, url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	series := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			series[line[:i]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return series, nil
}

// spans keeps, in memory, the spans the benchmark records around each
// process it talks to. Spans of one job share its sequence number.
type spans struct {
	origin time.Time
	events []spanEvent
}

// spanEvent is one complete event of the Chrome trace-event format.
type spanEvent struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`  // µs since the first span
	Dur   float64           `json:"dur"` // µs
	PID   int               `json:"pid"`
	TID   int               `json:"tid"` // the job's sequence number
	Args  map[string]string `json:"args,omitempty"`
}

func (s *spans) add(name, parent string, seq int, start, end time.Time) {
	if s.origin.IsZero() {
		s.origin = start
	}
	ev := spanEvent{Name: name, Phase: "X", PID: 1, TID: seq,
		TS:  float64(start.Sub(s.origin).Microseconds()),
		Dur: float64(end.Sub(start).Microseconds())}
	if parent != "" {
		ev.Args = map[string]string{"parent": parent}
	}
	s.events = append(s.events, ev)
}

// write stores the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto).
func (s *spans) write(path string) error {
	data, err := json.Marshal(map[string]any{"traceEvents": s.events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
