package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

var (
	raceLine     = regexp.MustCompile(`(?m)^RV: (\d+) race\(s\)`)
	coordLine    = regexp.MustCompile(`coordinating on (\S+)`)
	leaseLine    = regexp.MustCompile(`fleet: lease \d+: shard`)
	daemonListen = regexp.MustCompile(`^(listening|http) (\S+)$`)
)

var errNoRendezvous = errors.New("process exited before announcing its address")

// exitRaces is the exit status rvpredict gives a report with races; every
// generated trace has planted races.
const exitRaces = 1

// proc is one finished process as the benchmark saw it.
type proc struct {
	stdout, stderr []byte
	wall           time.Duration
	rssKiB         int64
	code           int
}

func (e *env) command(ctx context.Context, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, name), args...)
	cmd.WaitDelay = 5 * time.Second
	return cmd
}

// run runs one command to completion. A non-zero exit is not an error:
// check decides whether the exit status is the right one.
func (e *env) run(name string, args ...string) (proc, error) {
	cmd := e.command(e.ctx, name, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	p := proc{stdout: stdout.Bytes(), stderr: stderr.Bytes(), wall: time.Since(start)}
	if err := finished(cmd, err); err != nil {
		return p, err
	}
	p.rssKiB, p.code = maxRSS(cmd), cmd.ProcessState.ExitCode()
	return p, nil
}

// finished turns the error of a process's Wait into the benchmark's error:
// nil when the process ran and exited, whatever its status.
func finished(cmd *exec.Cmd, err error) error {
	var exit *exec.ExitError
	if err == nil || (errors.As(err, &exit) && exit.Exited()) {
		return nil
	}
	return fmt.Errorf("%s: %w", filepath.Base(cmd.Path), err)
}

func maxRSS(cmd *exec.Cmd) int64 {
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss // KiB on Linux
	}
	return 0
}

// check decides whether a report is correct: rvpredict exited reporting
// races, and exactly the planted ones. A traced run's report is JSON and
// also yields the job's per-layer figures.
func (e *env) check(p proc, in input) (bool, map[string]float64) {
	if p.code != exitRaces {
		fmt.Fprintf(os.Stderr, "perfbench: %s: exit status %d: %s\n", in.path, p.code, lastLine(p.stderr))
		return false, nil
	}
	if !e.traced {
		m := raceLine.FindSubmatch(p.stdout)
		got := -1
		if m != nil {
			got, _ = strconv.Atoi(string(m[1]))
		}
		return got == in.races, nil
	}
	var rep struct {
		Races     []json.RawMessage `json:"races"`
		ElapsedNS float64           `json:"elapsed_ns"`
		Telemetry map[string]any    `json:"telemetry"`
	}
	if err := json.Unmarshal(p.stdout, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", in.path, err)
		return false, nil
	}
	layers := teleLayers(rep.Telemetry)
	layers["analysis_ms"] = rep.ElapsedNS / 1e6
	layers["process_ms"] = ms(p.wall) - layers["analysis_ms"]
	return len(rep.Races) == in.races, layers
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// withJSON asks rvpredict for its JSON report, which turns its telemetry
// on, in traced runs only.
func (e *env) withJSON(args ...string) []string {
	if e.traced {
		return append([]string{"-json"}, args...)
	}
	return args
}

// cli runs one rvpredict process per trace.
type cli struct{ *env }

func newCLI(e *env) target { return cli{e} }

func (cli) up() error { return nil }

func (cli) down() (map[string]float64, int64, error) { return nil, 0, nil }

func (c cli) job(in input, seq int) (job, error) {
	start := time.Now()
	p, err := c.run("rvpredict", c.withJSON(in.path)...)
	if err != nil {
		return job{}, err
	}
	c.spans.add("rvpredict", "", seq, start, start.Add(p.wall))
	j := job{wall: p.wall, rssKiB: p.rssKiB, events: in.events}
	j.ok, j.layers = c.check(p, in)
	return j, nil
}

// daemon streams each trace into one long-running rvpredictd as a new
// session, through an rvpredict -daemon client.
type daemon struct {
	*env
	cmd         *exec.Cmd
	drained     chan struct{} // closed once the daemon's stdout is read to EOF
	addr, debug string
	before      map[string]float64
}

func newDaemon(e *env) target { return &daemon{env: e} }

func (d *daemon) up() error {
	state := filepath.Join(d.dir, "daemon-state")
	if err := os.RemoveAll(state); err != nil {
		return err
	}
	logFile, err := os.Create(filepath.Join(d.dir, "daemon.log"))
	if err != nil {
		return err
	}
	defer logFile.Close()
	d.cmd = d.command(d.ctx, "rvpredictd", "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-state-dir", state)
	d.cmd.Stderr = logFile
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := d.cmd.Start(); err != nil {
		return err
	}
	d.drained = make(chan struct{})
	// The daemon announces its two addresses on stdout once it listens.
	sc := bufio.NewScanner(stdout)
	for (d.addr == "" || d.debug == "") && sc.Scan() {
		if m := daemonListen.FindStringSubmatch(sc.Text()); m != nil && m[1] == "listening" {
			d.addr = m[2]
		} else if m != nil {
			d.debug = m[2]
		}
	}
	go func() {
		io.Copy(io.Discard, stdout) //nolint:errcheck // drains until the daemon exits
		close(d.drained)
	}()
	if d.addr == "" || d.debug == "" {
		d.stop()
		return fmt.Errorf("rvpredictd: %w", errNoRendezvous)
	}
	if err := d.waitReady(); err != nil {
		d.stop()
		return err
	}
	if d.traced {
		if d.before, err = scrape(d.ctx, "http://"+d.debug+"/metrics"); err != nil {
			d.stop()
			return err
		}
	}
	return nil
}

func (d *daemon) waitReady() error {
	url := "http://" + d.debug + "/readyz"
	for {
		resp, err := get(d.ctx, url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.ctx.Done():
			return fmt.Errorf("rvpredictd never became ready: %w", d.ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (d *daemon) job(in input, seq int) (job, error) {
	start := time.Now()
	p, err := d.run("rvpredict", d.withJSON("-daemon", d.addr, "-token", fmt.Sprintf("s%d", seq), in.path)...)
	if err != nil {
		return job{}, err
	}
	d.spans.add("session", "", seq, start, start.Add(p.wall))
	j := job{wall: p.wall, events: in.events}
	j.ok, j.layers = d.check(p, in)
	return j, nil
}

// down scrapes the daemon's counters one last time, then drains it with
// SIGTERM, as an operator would.
func (d *daemon) down() (map[string]float64, int64, error) {
	var layers map[string]float64
	if d.traced {
		after, err := scrape(d.ctx, "http://"+d.debug+"/metrics")
		if err != nil {
			d.stop()
			return nil, 0, err
		}
		layers = promLayers(d.before, after)
	}
	if err := d.stop(); err != nil {
		return nil, 0, err
	}
	return layers, maxRSS(d.cmd), nil
}

// stop sends SIGTERM and waits. The daemon drains and exits 0, or, when
// the signal beats its handler's installation, dies of the signal; both
// leave it stopped.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // Wait reports how it ended
	<-d.drained
	err := d.cmd.Wait()
	if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		return nil
	}
	if err := finished(d.cmd, err); err != nil {
		return err
	}
	if code := d.cmd.ProcessState.ExitCode(); code != 0 {
		return fmt.Errorf("rvpredictd exited with status %d after SIGTERM", code)
	}
	return nil
}

// fleet runs one coordinator and fleetWorkers worker processes per trace.
type fleet struct{ *env }

const fleetWorkers = 2

func newFleet(e *env) target { return fleet{e} }

func (fleet) up() error { return nil }

func (fleet) down() (map[string]float64, int64, error) { return nil, 0, nil }

func (f fleet) job(in input, seq int) (job, error) {
	ctx, cancel := context.WithCancel(f.ctx)
	defer cancel() // kills whatever is still running on an error path
	journal := filepath.Join(f.dir, fmt.Sprintf("coord-%d.journal", seq))
	coord := f.command(ctx, "rvpredict", f.withJSON("-coordinate", "127.0.0.1:0", "-journal", journal, in.path)...)
	var stdout bytes.Buffer
	coord.Stdout = &stdout
	stderr, err := coord.StderrPipe()
	if err != nil {
		return job{}, err
	}
	start := time.Now()
	if err := coord.Start(); err != nil {
		return job{}, err
	}
	// The coordinator announces its address on stderr, then logs each
	// lease it grants.
	addr := make(chan string, 1)
	leases := make(chan int, 1)
	go func() {
		n, announced := 0, false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := coordLine.FindStringSubmatch(sc.Text()); m != nil && !announced {
				addr <- m[1]
				announced = true
			}
			if leaseLine.MatchString(sc.Text()) {
				n++
			}
		}
		io.Copy(io.Discard, stderr) //nolint:errcheck // only a line too long to scan gets here
		close(addr)
		leases <- n
	}()
	a, ok := <-addr
	if !ok {
		<-leases
		coord.Wait() //nolint:errcheck // the missing address is the error
		return job{}, fmt.Errorf("coordinator: %w", errNoRendezvous)
	}
	listening := time.Now()

	var rss int64
	workersOK := true
	workers := make([]*exec.Cmd, fleetWorkers)
	for i := range workers {
		workers[i] = f.command(ctx, "rvpredict", "-worker", a, "-worker-name", fmt.Sprintf("w%d", i), in.path)
		if err := workers[i].Start(); err != nil {
			cancel()
			for _, w := range workers[:i] {
				w.Wait() //nolint:errcheck // already failing
			}
			<-leases
			coord.Wait() //nolint:errcheck // already failing
			return job{}, err
		}
	}
	var werr error
	for _, w := range workers {
		if err := finished(w, w.Wait()); err != nil && werr == nil {
			werr = err
		}
		if w.ProcessState.ExitCode() != 0 {
			workersOK = false
		}
		rss += maxRSS(w)
	}
	workersDone := time.Now()
	n := <-leases
	cerr := finished(coord, coord.Wait())
	end := time.Now()
	if werr != nil {
		return job{}, werr
	}
	if cerr != nil {
		return job{}, cerr
	}

	f.spans.add("fleet", "", seq, start, end)
	f.spans.add("coordinator_start", "fleet", seq, start, listening)
	f.spans.add("fleet_workers", "fleet", seq, listening, workersDone)
	p := proc{stdout: stdout.Bytes(), wall: end.Sub(start), code: coord.ProcessState.ExitCode()}
	j := job{wall: p.wall, rssKiB: rss + maxRSS(coord), events: in.events}
	j.ok, j.layers = f.check(p, in)
	j.ok = j.ok && workersOK
	if j.layers != nil {
		j.layers["coordinator_start_ms"] = ms(listening.Sub(start))
		j.layers["fleet_workers_ms"] = ms(workersDone.Sub(listening))
		j.layers["fleet_merge_ms"] = ms(end.Sub(workersDone))
		j.layers["fleet_leases"] = float64(n)
	}
	return j, nil
}
