package stream

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/trace"
)

// TestWireRecordRoundTrip encodes every record kind through the frame
// layer and decodes it back.
func TestWireRecordRoundTrip(t *testing.T) {
	events := []trace.Event{
		{Tid: 1, Op: trace.OpWrite, Addr: 7, Value: 42, Loc: 100},
		{Tid: 2, Op: trace.OpRead, Addr: 7, Value: 42, Loc: 101},
		{Tid: 1, Op: trace.OpAcquire, Addr: 9},
	}
	link := trace.NotifyLink{Notify: 3, Release: 1, Acquire: 5}
	payloads := [][]byte{
		eventsPayload(events),
		linkPayload(link),
		volatilePayload(33),
		initialPayload(12, -5),
		locNamePayload(200, "main.go:17"),
		{recEnd},
		reportPayload([]byte(`{"algorithm":"rv"}`)),
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	br := bufio.NewReader(&buf)
	var got []record
	for {
		p, err := ReadFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		rec, err := decodeRecord(p)
		if err != nil {
			t.Fatalf("decodeRecord: %v", err)
		}
		got = append(got, rec)
	}
	if len(got) != len(payloads) {
		t.Fatalf("decoded %d records, want %d", len(got), len(payloads))
	}
	if !reflect.DeepEqual(got[0].events, events) {
		t.Errorf("events = %+v, want %+v", got[0].events, events)
	}
	if got[1].link != link {
		t.Errorf("link = %+v, want %+v", got[1].link, link)
	}
	if got[2].addr != 33 {
		t.Errorf("volatile addr = %d, want 33", got[2].addr)
	}
	if got[3].addr != 12 || got[3].value != -5 {
		t.Errorf("initial = (%d,%d), want (12,-5)", got[3].addr, got[3].value)
	}
	if got[4].loc != 200 || got[4].name != "main.go:17" {
		t.Errorf("locname = (%d,%q)", got[4].loc, got[4].name)
	}
	if got[5].kind != recEnd {
		t.Errorf("kind = %#x, want recEnd", got[5].kind)
	}
	if string(got[6].report) != `{"algorithm":"rv"}` {
		t.Errorf("report = %q", got[6].report)
	}
}

// TestWireFrameCorruption: a flipped byte anywhere in a frame must fail
// the CRC, never decode silently.
func TestWireFrameCorruption(t *testing.T) {
	frame := AppendFrame(nil, eventsPayload([]trace.Event{{Tid: 1, Op: trace.OpWrite, Addr: 7, Value: 1, Loc: 5}}))
	for off := 0; off < len(frame); off++ {
		mut := append([]byte(nil), frame...)
		mut[off] ^= 0x40
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(mut)))
		if err == nil {
			// A corrupted length prefix may leave a self-consistent shorter
			// frame only if CRC still matches — impossible; flag any pass.
			t.Errorf("corruption at offset %d decoded cleanly", off)
		}
	}
}

// TestHandshakeRoundTrip covers hello/welcome/reject framing.
func TestHandshakeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHello(&buf, "sess-1"); err != nil {
		t.Fatal(err)
	}
	tok, err := readHello(bufio.NewReader(&buf))
	if err != nil || tok != "sess-1" {
		t.Fatalf("readHello = %q, %v", tok, err)
	}

	buf.Reset()
	if err := writeWelcome(&buf, Welcome{ResumeEvents: 77, Complete: true}); err != nil {
		t.Fatal(err)
	}
	wel, err := readWelcome(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if wel.ResumeEvents != 77 || !wel.Complete {
		t.Errorf("welcome = %+v", wel)
	}

	buf.Reset()
	if err := writeReject(&buf, RejectSessionLimit, "full"); err != nil {
		t.Fatal(err)
	}
	_, err = readWelcome(bufio.NewReader(&buf))
	rej, ok := err.(*RejectError)
	if !ok {
		t.Fatalf("err = %v, want *RejectError", err)
	}
	if rej.Code != RejectSessionLimit || rej.Permanent() {
		t.Errorf("reject = %+v (permanent=%t), want session-limit retryable", rej, rej.Permanent())
	}
	if !(&RejectError{Code: RejectBadHandshake}).Permanent() {
		t.Error("bad-handshake reject must be permanent")
	}
}

func TestValidToken(t *testing.T) {
	for tok, want := range map[string]bool{
		"a":                      true,
		"run-7.x_2":              true,
		"":                       false,
		".hidden":                false,
		"a/b":                    false,
		"a b":                    false,
		"ütf":                    false,
		string(make([]byte, 65)): false,
	} {
		if got := validToken(tok); got != want {
			t.Errorf("validToken(%q) = %t, want %t", tok, got, want)
		}
	}
}

// TestIngestRecovery: an ingest log with a torn final frame recovers its
// intact prefix and reopens positioned for append.
func TestIngestRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ingest")
	g, err := createIngest(path, "s")
	if err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{
		AppendFrame(nil, volatilePayload(3)),
		AppendFrame(nil, eventsPayload([]trace.Event{{Tid: 1, Op: trace.OpWrite, Addr: 3, Value: 9, Loc: 4}})),
		AppendFrame(nil, []byte{recEnd}),
	}
	for _, f := range frames {
		if err := g.append(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.sync(); err != nil {
		t.Fatal(err)
	}
	if err := g.close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last frame: drop its final byte.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	g2, payloads, torn, err := recoverIngest(path, "s")
	if err != nil {
		t.Fatalf("recoverIngest: %v", err)
	}
	defer g2.close()
	if !torn {
		t.Error("torn = false, want true")
	}
	if len(payloads) != 2 {
		t.Fatalf("recovered %d frames, want 2", len(payloads))
	}
	rec, err := decodeRecord(payloads[1])
	if err != nil || rec.kind != recEvents || len(rec.events) != 1 {
		t.Errorf("frame 1 = %+v, %v", rec, err)
	}

	// Appending after recovery must yield a clean log (no torn bytes
	// between the prefix and the new frame).
	if err := g2.append(AppendFrame(nil, []byte{recEnd})); err != nil {
		t.Fatal(err)
	}
	if err := g2.sync(); err != nil {
		t.Fatal(err)
	}
	g2.close()
	_, payloads, torn, err = recoverIngest(path, "s")
	if err != nil || torn {
		t.Fatalf("second recovery: torn=%t err=%v", torn, err)
	}
	if len(payloads) != 3 || payloads[2][0] != recEnd {
		t.Errorf("after re-append: %d frames", len(payloads))
	}

	// A token mismatch is a hard error: state dir mixups must not blend
	// sessions.
	if _, _, _, err := recoverIngest(path, "other"); err == nil {
		t.Error("recoverIngest accepted a foreign token")
	}
}
