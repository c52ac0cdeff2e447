package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/tracefile"
	"repro/rvpredict"
	"repro/trace"
)

// writeTrace encodes tr into a temp .rvpt file and returns its path.
func writeTrace(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.rvpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tracefile.Encode(f, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

// cleanTrace is a two-thread trace with no races (join-ordered accesses).
func cleanTrace() *trace.Trace {
	b := trace.NewBuilder()
	b.Write(1, 1, 1)
	b.Fork(1, 2)
	b.Write(2, 1, 2)
	b.Join(1, 2)
	b.Read(1, 1)
	return b.Trace()
}

func TestExitCodes(t *testing.T) {
	racy := writeTrace(t, fixtures.Figure1())
	clean := writeTrace(t, cleanTrace())
	var out, errb bytes.Buffer

	cases := []struct {
		name   string
		args   []string
		want   int
		stderr string // when set, stderr must contain it
	}{
		{"races found", []string{racy}, 1, ""},
		{"clean trace", []string{clean}, 0, ""},
		{"clean json", []string{"-json", clean}, 0, ""},
		{"racy json stats", []string{"-json", "-stats", racy}, 1, ""},
		{"no deadlocks", []string{"-deadlock", clean}, 0, ""},
		{"no violations", []string{"-atomicity", clean}, 0, ""},
		{"dump", []string{"-dump", racy}, 0, ""},
		{"missing file", []string{filepath.Join(t.TempDir(), "absent.rvpt")}, 2, ""},
		{"no args", nil, 2, ""},
		{"bad flag", []string{"-definitely-not-a-flag", racy}, 2, ""},
		{"bad algo", []string{"-algo", "nope", racy}, 2, ""},
		{"hb clean on fig1 races", []string{"-algo", "hb", racy}, 0, ""},
		{"retired triage flag", []string{"-triage", "syncp", racy}, 2, ""},
		{"retired shards flag", []string{"-shards", "2", racy}, 2, ""},
		{"retired shard-id flag", []string{"-shard-id", "1", racy}, 2, ""},
		{"retired merge flag", []string{"-merge", "a,b", racy}, 2, ""},
		// Analysis happens in the daemon, so -progress has nothing to
		// print: it is refused before any stream attempt.
		{"progress under daemon", []string{"-progress", "-daemon", "127.0.0.1:1", "-token", "t", racy}, 2, "owned by the daemon"},
	}
	for _, tc := range cases {
		out.Reset()
		errb.Reset()
		if got := run(tc.args, &out, &errb); got != tc.want {
			t.Errorf("%s: exit = %d, want %d (stderr: %s)", tc.name, got, tc.want, errb.String())
		}
		if !strings.Contains(errb.String(), tc.stderr) || strings.Contains(errb.String(), "stream attempt") {
			t.Errorf("%s: stderr = %q, want %q and no stream attempt", tc.name, errb.String(), tc.stderr)
		}
	}
}

// TestJSONOutputParses checks -json emits one decodable report with
// telemetry attached.
func TestJSONOutputParses(t *testing.T) {
	racy := writeTrace(t, fixtures.Figure1())
	var out, errb bytes.Buffer
	if got := run([]string{"-json", racy}, &out, &errb); got != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", got, errb.String())
	}
	var rep rvpredict.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out.String())
	}
	if rep.Telemetry == nil {
		t.Error("-json output missing telemetry")
	}
	if len(rep.Races) != 1 {
		t.Errorf("races = %d, want 1", len(rep.Races))
	}
}

// TestStatsOutput checks -stats prints the counter block after the report.
func TestStatsOutput(t *testing.T) {
	racy := writeTrace(t, fixtures.Figure1())
	var out, errb bytes.Buffer
	if got := run([]string{"-stats", racy}, &out, &errb); got != 1 {
		t.Fatalf("exit = %d, want 1", got)
	}
	for _, want := range []string{"--- stats ---", "phases:", "candidates:", "queries:", "idl:", "encode:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-stats output missing %q:\n%s", want, out.String())
		}
	}
}

// TestProgressOutput checks -progress writes a line per window, and the
// race finding's query line, to stderr only, in every local analysis
// mode.
func TestProgressOutput(t *testing.T) {
	tr := fixtures.Figure1()
	racy := writeTrace(t, tr)
	chunked := filepath.Join(t.TempDir(), "trace.rvc2")
	writeIdentityTrace(t, chunked, tr, true)
	window := fmt.Sprintf("window 0: %d events, ", tr.Len())
	for _, tc := range []struct {
		name string
		args []string
		code int // -progress must leave the exit status alone
		want []string
	}{
		{"batch", []string{racy}, 1, []string{window, "→ sat"}},
		{"chunked", []string{chunked}, 1, []string{window, "→ sat"}},
		{"parallel", []string{"-parallel", "2", racy}, 1, []string{window, "→ sat"}},
		{"deadlock", []string{"-deadlock", racy}, 0, []string{window}},
		{"atomicity", []string{"-atomicity", racy}, 0, []string{window}},
	} {
		var out, errb bytes.Buffer
		if got := run(append([]string{"-progress"}, tc.args...), &out, &errb); got != tc.code {
			t.Errorf("%s: exit = %d, want %d (stderr: %s)", tc.name, got, tc.code, errb.String())
		}
		for _, want := range tc.want {
			if !strings.Contains(errb.String(), want) {
				t.Errorf("%s: stderr lacks %q:\n%s", tc.name, want, errb.String())
			}
		}
		if strings.Contains(out.String(), "window 0:") {
			t.Errorf("%s: progress lines leaked to stdout", tc.name)
		}
	}
}
