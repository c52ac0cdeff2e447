package rvpredict_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/journal"
	"repro/rvpredict"
	"repro/trace"
)

// resumeFixture builds a four-window racy trace: each 8-event block holds
// a write/read race and a write/write race at block-unique locations, so
// with WindowSize 8 every window contributes verdicts and the journal has
// several records to lose and replay.
func resumeFixture() *trace.Trace {
	b := trace.NewBuilder()
	for i := 0; i < 4; i++ {
		l := trace.Loc(100 * (i + 1))
		x := trace.Addr(10 + 4*i)
		y := x + 1
		b.At(l+1).Write(1, x, 1)
		b.At(l+2).ReadV(2, x, 1)
		b.At(l+3).Write(1, y, 2)
		b.At(l+4).Write(2, y, 2)
		b.At(l + 5).Branch(1)
		b.At(l + 6).Branch(2)
		b.At(l + 5).Branch(1)
		b.At(l + 6).Branch(2)
	}
	return b.Trace()
}

// runOpts is the shared result-affecting configuration: the journal
// fingerprint covers exactly these, so every matrix combination below can
// resume the same journal.
func runOpts() rvpredict.Options {
	return rvpredict.Options{
		WindowSize: 8,
		Witness:    true,
		Telemetry:  true,
	}
}

// tornJournal runs one complete journaled run of tr and returns the
// journal bytes with the final record's tail torn off, simulating a crash
// between the last record's first byte and its fsync.
func tornJournal(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "full.journal")
	opt := runOpts()
	opt.Journal = path
	if _, err := rvpredict.Run(nil, tr, opt); err != nil {
		t.Fatalf("journaled run failed: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 8 {
		t.Fatalf("journal implausibly small: %d bytes", len(data))
	}
	return data[:len(data)-3]
}

// TestResumeMatrixBitIdentical is the journal's acceptance test: a journal
// torn mid-record, resumed under every Parallelism, must
// produce a report identical to that setting's uninterrupted run —
// replaying the intact windows without re-entering the solver. It runs
// over resumeFixture ("triage") and over one fixture per provenance tier:
// races no rung proves ("notriage"), and races the shb and syncp rungs
// prove.
func TestResumeMatrixBitIdentical(t *testing.T) {
	cases := []struct {
		name, tier string // tier "" puts no constraint on the races' tiers
		tr         *trace.Trace
	}{
		{"triage", "", resumeFixture()},
		{"notriage", "smt", fixtures.TierRaces("smt", 4)},
		{"shb", "shb", fixtures.TierRaces("shb", 4)},
		{"syncp", "syncp", fixtures.TierRaces("syncp", 4)},
	}
	torn := make([][]byte, len(cases))
	for i, fx := range cases {
		torn[i] = tornJournal(t, fx.tr)
	}

	type combo struct {
		name string
		par  int
		fx   int
	}
	var combos []combo
	for _, par := range []int{0, 1, 2, 4} {
		for i, fx := range cases {
			combos = append(combos, combo{name: fx.name, par: par, fx: i})
		}
	}

	for _, c := range combos {
		t.Run(c.name, func(t *testing.T) {
			tr, torn, tier := cases[c.fx].tr, torn[c.fx], cases[c.fx].tier
			base := runOpts()
			base.Parallelism = c.par
			clean, err := rvpredict.Run(nil, tr, base)
			if err != nil {
				t.Fatalf("clean run failed: %v", err)
			}
			if len(clean.Races) == 0 {
				t.Fatal("expected races in the fixture")
			}
			for _, r := range clean.Races {
				if tier != "" && r.Provenance.Tier != tier {
					t.Fatalf("race %d,%d has tier %q, want %q (fixture drifted)",
						r.First, r.Second, r.Provenance.Tier, tier)
				}
			}

			path := filepath.Join(t.TempDir(), "torn.journal")
			if err := os.WriteFile(path, torn, 0o644); err != nil {
				t.Fatal(err)
			}
			opt := base
			opt.Journal = path
			opt.Resume = true
			resumed, err := rvpredict.Run(nil, tr, opt)
			if err != nil {
				t.Fatalf("resume failed: %v", err)
			}

			// Journal bookkeeping: the torn record was truncated, the
			// intact windows replayed, and the lost window re-journaled.
			jm := resumed.Telemetry.Journal
			if jm.TornTailTruncated < 1 {
				t.Errorf("par %d: torn_tail_truncated = %d, want ≥ 1", c.par, jm.TornTailTruncated)
			}
			if jm.WindowsReplayed != 3 {
				t.Errorf("par %d: windows_replayed = %d, want 3", c.par, jm.WindowsReplayed)
			}
			if jm.RecordsWritten < 1 {
				t.Errorf("par %d: records_written = %d, want ≥ 1 (the lost window re-journals)", c.par, jm.RecordsWritten)
			}

			// Replayed windows never re-enter the solver. The witness
			// request sends every pair to the solver, so it is busy in
			// every window.
			cs, rs := clean.Telemetry.Outcomes.Solved, resumed.Telemetry.Outcomes.Solved
			if cs == 0 {
				t.Fatal("clean run issued no solver queries (fixture drifted)")
			}
			if rs >= cs {
				t.Errorf("par %d: resume solved %d queries, want strictly fewer than the clean run's %d",
					c.par, rs, cs)
			}

			// Races from the three replayed windows must say so; the
			// re-analysed window's must not. The flag is operational
			// metadata — it records how this run obtained the verdict, not
			// the verdict itself — so it is normalised away before the
			// identity comparison below.
			for _, r := range resumed.Races {
				wantReplay := r.Provenance.Window < 3
				if r.Provenance.Replayed != wantReplay {
					t.Errorf("par %d: race %d,%d replayed = %t, want %t",
						c.par, r.First, r.Second, r.Provenance.Replayed, wantReplay)
				}
			}

			// The report itself must match the uninterrupted run exactly.
			// Telemetry and Elapsed differ by design (fewer queries, less
			// time).
			cleanCmp, resumedCmp := clean, resumed
			cleanCmp.Telemetry, resumedCmp.Telemetry = nil, nil
			cleanCmp.Elapsed, resumedCmp.Elapsed = 0, 0
			resumedCmp.Races = append([]rvpredict.Race(nil), resumed.Races...)
			for i := range resumedCmp.Races {
				resumedCmp.Races[i].Provenance.Replayed = false
			}
			if !reflect.DeepEqual(resumedCmp, cleanCmp) {
				t.Errorf("par %d: resumed report differs:\n got %+v\nwant %+v",
					c.par, resumedCmp, cleanCmp)
			}

			// After the resume the journal must be whole again: every
			// window recorded, no torn tail left behind.
			_, info, err := journal.Inspect(path)
			if err != nil {
				t.Fatalf("recovering the post-resume journal: %v", err)
			}
			if len(info.Outcomes) != clean.Windows || info.TornTail {
				t.Errorf("post-resume journal holds %d outcomes (torn=%t), want %d intact",
					len(info.Outcomes), info.TornTail, clean.Windows)
			}
		})
	}
}

// TestResumeFingerprintMismatch: a journal written under one
// result-affecting configuration must refuse to resume under another —
// silently mixing verdicts from different option sets would be unsound.
func TestResumeFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fp.journal")
	opt := runOpts()
	opt.Journal = path
	if _, err := rvpredict.Run(nil, resumeFixture(), opt); err != nil {
		t.Fatalf("journaled run failed: %v", err)
	}

	t.Run("different options", func(t *testing.T) {
		bad := opt
		bad.Resume = true
		bad.Witness = false // result-affecting: witnesses are part of each verdict
		_, err := rvpredict.Run(nil, resumeFixture(), bad)
		if !errors.Is(err, journal.ErrFingerprint) {
			t.Fatalf("error = %v, want journal.ErrFingerprint", err)
		}
		if err == nil || !strings.Contains(err.Error(), "options") {
			t.Errorf("error %q does not say the options differ", err)
		}
	})

	t.Run("different trace", func(t *testing.T) {
		bad := opt
		bad.Resume = true
		other := trace.NewBuilder().At(1).Write(1, 99, 1).Trace()
		_, err := rvpredict.Run(nil, other, bad)
		if !errors.Is(err, journal.ErrFingerprint) {
			t.Fatalf("error = %v, want journal.ErrFingerprint", err)
		}
		if err == nil || !strings.Contains(err.Error(), "trace") {
			t.Errorf("error %q does not say the trace differs", err)
		}
	})

	t.Run("observational options resume fine", func(t *testing.T) {
		ok := opt
		ok.Resume = true
		ok.Parallelism = 2
		ok.JournalGroupCommit = 1 // sync every append
		if _, err := rvpredict.Run(nil, resumeFixture(), ok); err != nil {
			t.Fatalf("resume under different observational options failed: %v", err)
		}
	})
}

// TestResumeOlderJournalStartsFresh: a journal of an older format
// version (its tiers may name retired rungs) is not replayed — Run with
// Resume starts a fresh journal over it and reports exactly what a clean
// run does.
func TestResumeOlderJournalStartsFresh(t *testing.T) {
	old := tornJournal(t, resumeFixture())
	old[len(journal.Magic)] = journal.Version - 1 // the one-byte version varint
	opt := runOpts()
	opt.Journal = filepath.Join(t.TempDir(), "old.journal")
	if err := os.WriteFile(opt.Journal, old, 0o644); err != nil {
		t.Fatal(err)
	}
	opt.Resume = true
	rep, err := rvpredict.Run(nil, resumeFixture(), opt)
	if err != nil {
		t.Fatalf("resume over an older-version journal: %v", err)
	}
	clean, _ := rvpredict.Run(nil, resumeFixture(), runOpts())
	if n := rep.Telemetry.Journal.WindowsReplayed; n != 0 || !reflect.DeepEqual(rep.Races, clean.Races) {
		t.Errorf("windows_replayed = %d, races equal to a clean run = %t; want 0, true",
			n, reflect.DeepEqual(rep.Races, clean.Races))
	}
	if _, info, err := journal.Inspect(opt.Journal); err != nil || len(info.Outcomes) != rep.Windows {
		t.Errorf("rewritten journal: %d outcomes, err %v; want %d at the current version",
			len(info.Outcomes), err, rep.Windows)
	}
}

// TestResumeMissingJournal: resuming a path that does not exist is an
// explicit error, not a silent fresh start — the caller asked for state
// that is not there.
func TestResumeMissingJournal(t *testing.T) {
	opt := runOpts()
	opt.Journal = filepath.Join(t.TempDir(), "nope.journal")
	opt.Resume = true
	if _, err := rvpredict.Run(nil, resumeFixture(), opt); err == nil {
		t.Fatal("resume from a missing journal succeeded, want an error")
	}
}
