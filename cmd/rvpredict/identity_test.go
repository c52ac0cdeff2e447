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
	"sort"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/tracefile"
	"repro/internal/tracev2"
	"repro/internal/workloads"
	"repro/trace"
)

// The identity matrix: one digest of the canonical -json report per
// (row, mode), committed in testdata/identity.sum. A change that alters
// any report — races, witnesses, provenance, deterministic counters —
// changes a digest. scripts/identity.sh checks the full matrix or
// regenerates the file.
var (
	identityUpdate = flag.Bool("identity-update", false, "regenerate testdata/identity.sum over the full matrix")
	identityAll    = flag.Bool("identity-all", false, "check every row of the identity matrix, the slow ones included")
)

const identitySum = "../../testdata/identity.sum"

// identityModes are the report modes of the matrix. chunked runs the
// trace converted to .rvc2; pairParallel marks the mode whose solver
// sizes and rollback counts depend on worker timing; resume runs the
// trace with -journal in a child process that an injected crash stops
// right after its second window append, then reports the -resume run
// over that journal (multi-window rows only: a one-window run never
// reaches the second append).
var identityModes = []struct {
	name         string
	args         []string
	chunked      bool
	pairParallel bool
	resume       bool
}{
	{name: "json", args: []string{"-json"}},
	{name: "witness", args: []string{"-json", "-witness"}},
	{name: "parallel2", args: []string{"-json", "-parallel", "2"}},
	{name: "pairparallel2", args: []string{"-json", "-pair-parallel", "2"}, pairParallel: true},
	{name: "rvc2", args: []string{"-json"}, chunked: true},
	{name: "resume", args: []string{"-json"}, resume: true},
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

func identityTrace(row string) *trace.Trace {
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
// in seconds; -identity-all adds the real-system rows. The
// -pair-parallel 2 digests need at least two CPUs: the pair scheduler
// caps its workers at GOMAXPROCS, and the worker and solver counts are
// in the report.
func TestIdentityDigests(t *testing.T) {
	var want map[string]string
	if !*identityUpdate {
		want = readIdentitySum(t)
	}
	pairParallel := runtime.GOMAXPROCS(0) >= 2
	switch {
	case !pairParallel && *identityUpdate:
		t.Fatal("regenerating the identity matrix needs GOMAXPROCS >= 2")
	case !pairParallel:
		t.Log("GOMAXPROCS < 2: skipping the pairparallel2 mode")
	}
	got := make(map[string]string)
	for _, row := range identityRows(*identityAll || *identityUpdate) {
		dir := t.TempDir()
		tr := identityTrace(row)
		legacy := filepath.Join(dir, row+".rvpt")
		chunked := filepath.Join(dir, row+".rvc2")
		writeIdentityTrace(t, legacy, tr, false)
		writeIdentityTrace(t, chunked, tr, true)
		multiWindow := tr.Len() > identityWindow
		for _, m := range identityModes {
			if m.pairParallel && !pairParallel || m.resume && !multiWindow {
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
			if m.pairParallel {
				drop = map[string]bool{"bool_vars": true, "clauses": true, "rollbacks": true}
			}
			canon, err := canonicalReport(stdout.Bytes(), drop)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			sum := sha256.Sum256(canon)
			got[key] = hex.EncodeToString(sum[:])
			if want == nil {
				continue
			}
			switch w, ok := want[key]; {
			case !ok:
				t.Errorf("%s: no digest in %s", key, identitySum)
			case w != got[key]:
				t.Errorf("%s: report digest %s, want %s", key, got[key], w)
			}
		}
	}
	if *identityUpdate {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var buf bytes.Buffer
		for _, k := range keys {
			fmt.Fprintf(&buf, "%s  %s\n", got[k], k)
		}
		if err := os.WriteFile(identitySum, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
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
