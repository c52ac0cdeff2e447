package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/atomicity"
	"repro/internal/deadlock"
	"repro/internal/faultinject"
	"repro/internal/race"
	"repro/internal/tracefile"
	"repro/internal/tracev2"
	"repro/internal/workloads"
	"repro/minilang"
	"repro/rvpredict"
	"repro/trace"
)

// The identity matrix: one digest of the canonical -json report per
// (row, mode), committed in testdata/identity.sum. A change that alters
// any report — races, witnesses, provenance, deterministic counters —
// changes a digest. The deadlock and atomicity modes pin those reports
// the same way. scripts/identity.sh checks the full matrix or
// regenerates the file.
var (
	identityUpdate = flag.Bool("identity-update", false, "regenerate testdata/identity.sum over the full matrix")
	identityAll    = flag.Bool("identity-all", false, "check every row of the identity matrix, the slow ones included")
)

const identitySum = "../../testdata/identity.sum"

// identityModes are the report modes of the matrix. chunked runs the
// trace converted to .rvc2; parallel marks the -parallel mode, whose two
// workers solve the pairs of a one-window row, so that its solver sizes
// and rollback counts depend on worker timing; resume runs the
// trace with -journal in a child process that an injected crash stops
// right after its second window append, then reports the -resume run
// over that journal (multi-window rows only: a one-window run never
// reaches the second append).
var identityModes = []struct {
	name     string
	args     []string
	chunked  bool
	parallel bool
	resume   bool
}{
	{name: "json", args: []string{"-json"}},
	{name: "witness", args: []string{"-json", "-witness"}},
	{name: "parallel2", args: []string{"-json", "-parallel", "2"}, parallel: true},
	{name: "rvc2", args: []string{"-json"}, chunked: true},
	{name: "resume", args: []string{"-json"}, resume: true},
}

// identityKindModes are the deadlock and atomicity report modes, run
// over the race rows and the example programs (identityExamples). Their
// canonical report also drops the telemetry block: these reports pin the
// findings, their witnesses and the candidate count, not the solver sizes
// or the funnel.
var identityKindModes = []struct {
	name string
	args []string
}{
	{name: "deadlock", args: []string{"-json", "-deadlock"}},
	{name: "deadlock-witness", args: []string{"-json", "-witness", "-deadlock"}},
	{name: "atomicity", args: []string{"-json", "-atomicity"}},
	{name: "atomicity-witness", args: []string{"-json", "-witness", "-atomicity"}},
}

// identityExamples maps the example programs of the kind modes to their
// minilang source, shared with the programs under examples/.
var identityExamples = map[string]string{
	"philosophers-unsafe": "../../examples/philosophers/unsafe.ml",
	"philosophers-waiter": "../../examples/philosophers/waiter.ml",
	"account-program":     "../../examples/account/account.ml",
}

// identityCrashFault stops the journaled child run on its second window
// append, after the first window's outcome is durable.
const identityCrashFault = "journal_append:1=crash"

// identitySlowEvents is the row length from which a row takes longer
// than a few seconds per mode: such rows (the real-system ones) are
// checked only with -identity-all (scripts/identity.sh, CI).
const identitySlowEvents = 20000

// identityWindow is rvpredict's default -window: rows longer than it
// analyse more than one window and get the resume mode.
const identityWindow = 10000

// identityRows returns the matrix rows: example, then the Table 1 rows
// at tracegen's defaults, the slow ones only when all is set.
func identityRows(all bool) []string {
	rows := []string{"example"}
	for _, spec := range workloads.Rows() {
		if all || spec.Events < identitySlowEvents {
			rows = append(rows, spec.Name)
		}
	}
	return rows
}

func identityTrace(t *testing.T, row string) *trace.Trace {
	if path, ok := identityExamples[row]; ok {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := minilang.Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", row, err)
		}
		tr, err := prog.Run(minilang.RunOptions{Scheduler: minilang.Sequential{}})
		if err != nil {
			t.Fatalf("%s: %v", row, err)
		}
		return tr
	}
	if row == "example" {
		tr, _ := workloads.Example()
		return tr
	}
	for _, spec := range workloads.Rows() {
		if spec.Name == row {
			tr, _ := workloads.Build(spec)
			return tr
		}
	}
	panic("unknown row " + row)
}

// canonicalReport drops what legitimately varies between runs — every
// *_ns key and build_info, plus drop — and re-encodes the rest with
// sorted keys and the numbers' original text.
func canonicalReport(report []byte, drop map[string]bool) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(report))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	var strip func(any)
	strip = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, child := range x {
				if strings.HasSuffix(k, "_ns") || k == "build_info" || drop[k] {
					delete(x, k)
					continue
				}
				strip(child)
			}
		case []any:
			for _, child := range x {
				strip(child)
			}
		}
	}
	strip(v)
	return json.Marshal(v)
}

func readIdentitySum(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(identitySum)
	if err != nil {
		t.Fatalf("%v (regenerate with scripts/identity.sh update)", err)
	}
	defer f.Close()
	sums := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 {
			sums[fields[1]] = fields[0]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sums
}

// TestIdentityDigests runs the CLI in-process over every (row, mode) of
// the matrix and compares the canonical report's SHA-256 with the
// committed digest (the resume mode's crashed run is a re-exec'd child). By default it checks example and the rows that run
// in seconds; -identity-all adds the real-system rows. The -parallel 2
// digests of one-window rows need at least two CPUs: the pair scheduler
// caps its workers at GOMAXPROCS, and the worker and solver counts are
// in the report.
func TestIdentityDigests(t *testing.T) {
	var want map[string]string
	if !*identityUpdate {
		want = readIdentitySum(t)
	}
	twoCPUs := runtime.GOMAXPROCS(0) >= 2
	switch {
	case !twoCPUs && *identityUpdate:
		t.Fatal("regenerating the identity matrix needs GOMAXPROCS >= 2")
	case !twoCPUs:
		t.Log("GOMAXPROCS < 2: skipping the parallel2 mode of one-window rows")
	}
	got := make(map[string]string)
	check := func(key string, report []byte, drop map[string]bool) {
		canon, err := canonicalReport(report, drop)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		sum := sha256.Sum256(canon)
		got[key] = hex.EncodeToString(sum[:])
		if want == nil {
			return
		}
		switch w, ok := want[key]; {
		case !ok:
			t.Errorf("%s: no digest in %s", key, identitySum)
		case w != got[key]:
			t.Errorf("%s: report digest %s, want %s", key, got[key], w)
		}
	}
	rows := identityRows(*identityAll || *identityUpdate)
	for _, row := range append(rows, sortedKeys(identityExamples)...) {
		dir := t.TempDir()
		tr := identityTrace(t, row)
		legacy := filepath.Join(dir, row+".rvpt")
		writeIdentityTrace(t, legacy, tr, false)
		for _, m := range identityKindModes {
			key := row + "/" + m.name
			var stdout, stderr bytes.Buffer
			code := runCtx(context.Background(), append(append([]string(nil), m.args...), legacy), &stdout, &stderr)
			if code != 0 && code != 1 {
				t.Fatalf("%s: exit %d: %s", key, code, stderr.String())
			}
			check(key, stdout.Bytes(), map[string]bool{"telemetry": true})
			if slices.Contains(m.args, "-witness") {
				checkKindWitnesses(t, key, tr, stdout.Bytes())
			}
		}
		if _, ok := identityExamples[row]; ok {
			continue
		}
		chunked := filepath.Join(dir, row+".rvc2")
		writeIdentityTrace(t, chunked, tr, true)
		multiWindow := tr.Len() > identityWindow
		for _, m := range identityModes {
			pairLevel := m.parallel && !multiWindow
			if pairLevel && !twoCPUs || m.resume && !multiWindow {
				continue
			}
			key := row + "/" + m.name
			path := legacy
			if m.chunked {
				path = chunked
			}
			args := append([]string(nil), m.args...)
			if m.resume {
				jp := filepath.Join(dir, row+".journal")
				crashArgs := append(append([]string(nil), args...), "-journal", jp, path)
				if code := helperRun(t, identityCrashFault, crashArgs...); code != faultinject.CrashExitCode {
					t.Fatalf("%s: crashed run exit %d, want %d", key, code, faultinject.CrashExitCode)
				}
				args = append(args, "-journal", jp, "-resume")
			}
			var stdout, stderr bytes.Buffer
			code := runCtx(context.Background(), append(args, path), &stdout, &stderr)
			if code != 0 && code != 1 {
				t.Fatalf("%s: exit %d: %s", key, code, stderr.String())
			}
			var drop map[string]bool
			if pairLevel {
				drop = map[string]bool{"bool_vars": true, "clauses": true, "rollbacks": true}
			}
			check(key, stdout.Bytes(), drop)
		}
	}
	if *identityUpdate {
		var buf bytes.Buffer
		for _, k := range sortedKeys(got) {
			fmt.Fprintf(&buf, "%s  %s\n", got[k], k)
		}
		if err := os.WriteFile(identitySum, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkKindWitnesses validates every witness of a -deadlock or
// -atomicity -witness report against its finding's window of the trace.
func checkKindWitnesses(t *testing.T, key string, tr *trace.Trace, report []byte) {
	t.Helper()
	var rep struct {
		Deadlocks  []rvpredict.PredictedDeadlock  `json:"deadlocks"`
		Violations []rvpredict.AtomicityViolation `json:"violations"`
	}
	if err := json.Unmarshal(report, &rep); err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	for _, d := range rep.Deadlocks {
		from := race.WindowStart(d.HeldAcquires[0], identityWindow)
		if err := deadlock.ValidateWitness(tr, d.Witness, d.HeldAcquires, d.BlockedAcquires, from); err != nil {
			t.Errorf("%s: %s: %v", key, d.Description, err)
		}
	}
	for _, v := range rep.Violations {
		from := race.WindowStart(v.First, identityWindow)
		if err := atomicity.ValidateWitness(tr, v.Witness, v.First, v.Remote, v.Second, from); err != nil {
			t.Errorf("%s: %s: %v", key, v.Description, err)
		}
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeIdentityTrace(t *testing.T, path string, tr *trace.Trace, chunked bool) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if chunked {
		err = tracev2.WriteTrace(f, tr, tracev2.DefaultChunkSize)
	} else {
		err = tracefile.Encode(f, tr)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
}
