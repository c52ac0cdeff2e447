package journal

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/race"
	"repro/internal/telemetry"
	"repro/trace"
)

func testFingerprint() Fingerprint {
	return Fingerprint{
		Trace:   sha256.Sum256([]byte("trace")),
		Options: sha256.Sum256([]byte("options")),
	}
}

// testOutcomes is a representative outcome mix: races with and without
// witnesses, empty windows, counters, and an isolated failure.
func testOutcomes() []race.WindowOutcome {
	return []race.WindowOutcome{
		{
			Window: 0, Offset: 0, Events: 10,
			Candidates: 4, Solved: 3, COPsChecked: 3, SolverAborts: 1,
			ElapsedNS: 12345,
			Races: []race.Race{
				{
					COP: race.COP{A: 2, B: 7},
					Sig: race.Signature{First: 11, Second: 13},
				},
				{
					COP:     race.COP{A: 3, B: 9},
					Sig:     race.Signature{First: 17, Second: 17},
					Witness: []int{0, 1, 3, 9},
				},
			},
		},
		{Window: 1, Offset: 10, Events: 10, Candidates: 0, ElapsedNS: 99},
		{
			Window: 2, Offset: 20, Events: 5,
			Races: []race.Race{{
				COP:     race.COP{A: 21, B: 24},
				Sig:     race.Signature{First: 1, Second: 2},
				Witness: []int{},
			}},
			Failures: []race.WindowFailure{{
				Window: 2, Offset: 20, Events: 5,
				PanicValue: "boom", Stack: "goroutine 1 [running]",
			}},
		},
	}
}

func writeJournal(t *testing.T, path string, fp Fingerprint, outs []race.WindowOutcome, opt Options) {
	t.Helper()
	w, err := Create(path, fp, opt)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for _, out := range outs {
		if err := w.Append(out); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.rvpj")
	fp := testFingerprint()
	outs := testOutcomes()
	writeJournal(t, path, fp, outs, Options{})

	info, err := Recover(path, fp)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if info.TornTail {
		t.Error("clean journal reported a torn tail")
	}
	if !reflect.DeepEqual(info.Outcomes, outs) {
		t.Errorf("outcomes did not round-trip:\n got %#v\nwant %#v", info.Outcomes, outs)
	}
	st, _ := os.Stat(path)
	if info.Bytes != st.Size() {
		t.Errorf("intact prefix = %d bytes, file is %d", info.Bytes, st.Size())
	}
	// Witness nil-vs-empty must survive the round trip: it distinguishes
	// "no witness requested" from "empty witness prefix".
	if info.Outcomes[0].Races[0].Witness != nil {
		t.Error("nil witness decoded as non-nil")
	}
	if info.Outcomes[2].Races[0].Witness == nil {
		t.Error("empty witness decoded as nil")
	}
}

func TestGroupCommitBatchesFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.rvpj")
	fp := testFingerprint()
	col := telemetry.NewCollector()
	// An hour-long interval means only Create and Close sync; appends
	// stay buffered in the OS. Everything must still be intact after
	// Close.
	writeJournal(t, path, fp, testOutcomes(), Options{GroupCommit: time.Hour, Telemetry: col})

	info, err := Recover(path, fp)
	if err != nil || len(info.Outcomes) != 3 {
		t.Fatalf("Recover after group-commit close: %v (%d outcomes)", err, len(info.Outcomes))
	}
	j := col.Snapshot().Journal
	if j.RecordsWritten != 3 {
		t.Errorf("records_written = %d, want 3", j.RecordsWritten)
	}
	if j.Bytes <= 0 {
		t.Errorf("bytes = %d, want > 0", j.Bytes)
	}
	if j.FsyncNS <= 0 {
		t.Errorf("fsync_ns = %d, want > 0", j.FsyncNS)
	}
}

func TestFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.rvpj")
	fp := testFingerprint()
	writeJournal(t, path, fp, testOutcomes(), Options{})

	other := fp
	other.Trace = sha256.Sum256([]byte("another trace"))
	if _, err := Recover(path, other); !errors.Is(err, ErrFingerprint) {
		t.Errorf("trace mismatch: got %v, want ErrFingerprint", err)
	}
	other = fp
	other.Options = sha256.Sum256([]byte("another option set"))
	if _, err := Recover(path, other); !errors.Is(err, ErrFingerprint) {
		t.Errorf("options mismatch: got %v, want ErrFingerprint", err)
	}
}

// TestCorruptionTable drives the decoder over bit-flipped and truncated
// journals: header damage refuses recovery outright, record damage is a
// torn tail truncated back to the last intact record.
func TestCorruptionTable(t *testing.T) {
	dir := t.TempDir()
	fp := testFingerprint()
	outs := testOutcomes()
	clean := filepath.Join(dir, "clean.rvpj")
	writeJournal(t, clean, fp, outs, Options{})
	data, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	// Layout: magic(4) + version(1) + header frame(1 len + 64 payload + 4
	// crc) = 74 bytes, then the three records. Find record boundaries by
	// re-encoding.
	headerLen := 4 + 1 + 1 + 2*sha256.Size + 4
	recLen := func(out race.WindowOutcome) int {
		var e encBuf
		e.frame(encodeOutcome(out))
		return len(e.b)
	}
	rec0 := recLen(outs[0])
	rec1 := recLen(outs[1])
	if headerLen+rec0+rec1+recLen(outs[2]) != len(data) {
		t.Fatalf("layout arithmetic is off: %d+%d+%d+%d != %d",
			headerLen, rec0, rec1, recLen(outs[2]), len(data))
	}

	cases := []struct {
		name      string
		mutate    func([]byte) []byte
		wantErr   error // nil means recovery succeeds
		wantTorn  bool
		wantCount int
	}{
		{
			name:    "magic flipped",
			mutate:  func(b []byte) []byte { return faultinject.Corrupt(b, 0, 0x01) },
			wantErr: ErrFormat,
		},
		{
			name:    "version flipped",
			mutate:  func(b []byte) []byte { return faultinject.Corrupt(b, 4, 0x01) },
			wantErr: ErrFormat,
		},
		{
			// A version-3 journal may carry the retired "wcp"/"cp"
			// tiers: refused here, replaced by Resume (see
			// rvpredict's TestResumeOlderJournalStartsFresh).
			name:    "older version",
			mutate:  func(b []byte) []byte { b[4] = Version - 1; return b },
			wantErr: ErrFormat,
		},
		{
			name:    "header payload flipped",
			mutate:  func(b []byte) []byte { return faultinject.Corrupt(b, 10, 0x40) },
			wantErr: ErrFormat,
		},
		{
			name:    "header truncated",
			mutate:  func(b []byte) []byte { return b[:headerLen-2] },
			wantErr: ErrFormat,
		},
		{
			name:      "first record payload flipped",
			mutate:    func(b []byte) []byte { return faultinject.Corrupt(b, headerLen+3, 0x10) },
			wantTorn:  true,
			wantCount: 0,
		},
		{
			name:      "middle record length prefix flipped",
			mutate:    func(b []byte) []byte { return faultinject.Corrupt(b, headerLen+rec0, 0x20) },
			wantTorn:  true,
			wantCount: 1,
		},
		{
			name:      "last record crc flipped",
			mutate:    func(b []byte) []byte { return faultinject.Corrupt(b, len(b)-1, 0x80) },
			wantTorn:  true,
			wantCount: 2,
		},
		{
			name:      "tail truncated mid-record",
			mutate:    func(b []byte) []byte { return b[:len(b)-3] },
			wantTorn:  true,
			wantCount: 2,
		},
		{
			name:      "tail truncated at record boundary",
			mutate:    func(b []byte) []byte { return b[:headerLen+rec0] },
			wantTorn:  false,
			wantCount: 1,
		},
		{
			name:      "trailing garbage",
			mutate:    func(b []byte) []byte { return append(append([]byte{}, b...), 0xDE, 0xAD) },
			wantTorn:  true,
			wantCount: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, "case.rvpj")
			if err := os.WriteFile(path, tc.mutate(append([]byte{}, data...)), 0o644); err != nil {
				t.Fatal(err)
			}
			info, err := Recover(path, fp)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Recover: got %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if info.TornTail != tc.wantTorn {
				t.Errorf("TornTail = %v, want %v", info.TornTail, tc.wantTorn)
			}
			if len(info.Outcomes) != tc.wantCount {
				t.Errorf("kept %d outcomes, want %d", len(info.Outcomes), tc.wantCount)
			}
			if tc.wantCount > 0 && !reflect.DeepEqual(info.Outcomes, outs[:tc.wantCount]) {
				t.Errorf("kept outcomes differ from the intact prefix")
			}
		})
	}
}

// TestResumeTruncatesTornTailAndAppends proves the recovery contract end
// to end: tear the tail, Resume truncates it, new appends land cleanly
// behind the intact prefix.
func TestResumeTruncatesTornTailAndAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.rvpj")
	fp := testFingerprint()
	outs := testOutcomes()
	writeJournal(t, path, fp, outs, Options{})

	// Tear the last record.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	w, info, err := Resume(path, fp, Options{})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if !info.TornTail || len(info.Outcomes) != 2 {
		t.Fatalf("Resume: torn=%v outcomes=%d, want torn with 2", info.TornTail, len(info.Outcomes))
	}
	st, _ := os.Stat(path)
	if st.Size() != info.Bytes {
		t.Errorf("torn tail not truncated: size %d, intact prefix %d", st.Size(), info.Bytes)
	}
	// Re-append the lost window, plus one more.
	extra := race.WindowOutcome{Window: 3, Offset: 25, Events: 7}
	if err := w.Append(outs[2]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	final, err := Recover(path, fp)
	if err != nil || final.TornTail {
		t.Fatalf("Recover after resume: %v (torn=%v)", err, final.TornTail)
	}
	want := append(append([]race.WindowOutcome{}, outs[:2]...), outs[2], extra)
	if !reflect.DeepEqual(final.Outcomes, want) {
		t.Errorf("resumed journal content wrong:\n got %#v\nwant %#v", final.Outcomes, want)
	}
}

func TestResumeCleanJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.rvpj")
	fp := testFingerprint()
	outs := testOutcomes()
	writeJournal(t, path, fp, outs, Options{})

	w, info, err := Resume(path, fp, Options{})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer w.Close()
	if info.TornTail || len(info.Outcomes) != len(outs) {
		t.Errorf("clean resume: torn=%v outcomes=%d", info.TornTail, len(info.Outcomes))
	}
}

func TestAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.rvpj")
	w, err := Create(path, testFingerprint(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(race.WindowOutcome{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Append after Close: got %v, want ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	if err := WriteFileAtomic(path, []byte("first"), nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second"), nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "second" {
		t.Fatalf("read back %q, %v", data, err)
	}
	// No temp files may linger after successful writes.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want just the report", len(entries))
	}
}

func TestTraceFingerprintDistinguishesTraces(t *testing.T) {
	tr1 := trace.NewBuilder().Begin(1).Write(1, 100, 1).End(1).Trace()
	tr2 := trace.NewBuilder().Begin(1).Write(1, 100, 2).End(1).Trace()

	f1, err := TraceFingerprint(tr1)
	if err != nil {
		t.Fatal(err)
	}
	f1again, _ := TraceFingerprint(tr1)
	f2, _ := TraceFingerprint(tr2)
	if f1 != f1again {
		t.Error("fingerprint of the same trace is not deterministic")
	}
	if f1 == f2 {
		t.Error("different traces share a fingerprint")
	}
	if bytes.Equal(f1[:], make([]byte, sha256.Size)) {
		t.Error("fingerprint is zero")
	}
}

// TestEncodeDecodeOutcomeRoundTrip pins the exported wire codec the
// fleet protocol uses to the journal's internal record encoding.
func TestEncodeDecodeOutcomeRoundTrip(t *testing.T) {
	for i, out := range testOutcomes() {
		payload := EncodeOutcome(out)
		if len(payload) == 0 {
			t.Fatalf("outcome %d: empty encoding", i)
		}
		got, err := DecodeOutcome(payload)
		if err != nil {
			t.Fatalf("outcome %d: DecodeOutcome: %v", i, err)
		}
		if !reflect.DeepEqual(got, out) {
			t.Errorf("outcome %d did not round-trip:\n got %+v\nwant %+v", i, got, out)
		}
		if !reflect.DeepEqual(payload, encodeOutcome(out)) {
			t.Errorf("outcome %d: EncodeOutcome diverges from the journal's record encoding", i)
		}
	}
}

// TestOutcomeLengthIndependentOfElapsed checks that a window record's
// length does not depend on the measured time, so two runs that differ
// only in timing journal the same number of bytes.
func TestOutcomeLengthIndependentOfElapsed(t *testing.T) {
	for i, out := range testOutcomes() {
		var lens []int
		for _, ns := range []int64{0, 1, 1 << 20, 1 << 40, -1} {
			out.ElapsedNS = ns
			lens = append(lens, len(EncodeOutcome(out)))
			if got, err := DecodeOutcome(EncodeOutcome(out)); err != nil || got.ElapsedNS != ns {
				t.Errorf("outcome %d: elapsed %d decoded as %d (err %v)", i, ns, got.ElapsedNS, err)
			}
		}
		for _, n := range lens[1:] {
			if n != lens[0] {
				t.Errorf("outcome %d: record lengths %v vary with the elapsed time", i, lens)
				break
			}
		}
	}
}
