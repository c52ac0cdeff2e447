// Package stream implements the streaming detection service: a daemon
// (cmd/rvpredictd) that accepts live trace streams over TCP, analyses
// them window by window with bounded memory, and returns the same
// report a batch rvpredict run over the materialised trace would
// produce — bit-identical whenever no degradation fires.
//
// The wire protocol is a thin session layer over the tracefile event
// encoding. After a handshake that names the session (a client-chosen
// token, the resumption key), the client sends CRC-framed records:
// metadata declarations (volatile locations, initial values, location
// names), event batches, wait/notify links and a final End marker; the
// daemon replies with one report record. Framing and CRC discipline
// are the journal's (uvarint length ‖ payload ‖ CRC32C over both), so
// a torn or corrupt frame is detected, never misparsed.
//
// Contract: metadata must precede the first event that references it,
// and each wait/notify link must be sent after the event batch
// containing its highest event index but before any later event. The
// capture-side client (capture.StreamTrace) satisfies both by
// construction. Links whose indices cross an analysis-window boundary
// are dropped exactly as the batch windower drops them.
package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/tracefile"
	"repro/trace"
)

// Handshake magics and protocol version. The version is bumped only for
// incompatible changes; a daemon rejects unknown versions.
const (
	helloMagic   = "RVPD"
	welcomeMagic = "RVPA"
	protoVersion = 1
)

// Record types, the first payload byte of every data frame.
const (
	recEvents   byte = 0x01 // uvarint count ‖ count × tracefile event encodings
	recLink     byte = 0x02 // uvarint notify ‖ release ‖ acquire (whole-trace indices)
	recVolatile byte = 0x03 // uvarint addr
	recInitial  byte = 0x04 // uvarint addr ‖ varint value
	recLocName  byte = 0x05 // uvarint loc ‖ uvarint len ‖ name bytes
	recEnd      byte = 0x06 // empty: the stream is complete
	recReport   byte = 0x07 // daemon→client: report JSON
)

// Reject codes returned in the handshake when the daemon refuses a
// session.
const (
	// RejectBadHandshake: malformed hello or unsupported protocol
	// version. Permanent — retrying the same handshake cannot succeed.
	RejectBadHandshake byte = 1
	// RejectSessionLimit: the daemon is at Options.MaxSessions.
	// Transient — admission control, retry with backoff.
	RejectSessionLimit byte = 2
	// RejectDraining: the daemon is draining for shutdown. Transient
	// from the client's point of view (a replacement daemon may take
	// over the address).
	RejectDraining byte = 3
	// RejectBusyToken: another live connection already owns this
	// session token. Transient — the owner may be a half-dead
	// connection about to time out.
	RejectBusyToken byte = 4
	// RejectInternal: the daemon failed to create or recover the
	// session's durable state. Transient.
	RejectInternal byte = 5
)

// Decode-hardening caps: a hostile peer must cause a clean protocol
// error in bounded memory, never an allocation sized by an attacker.
const (
	// maxFrameLen bounds one frame's payload.
	maxFrameLen = 1 << 24
	// maxTokenLen bounds the session token.
	maxTokenLen = 64
	// maxNameLen bounds one location name (matches tracefile's cap).
	maxNameLen = 1 << 16
	// maxRejectMsg bounds a handshake reject message.
	maxRejectMsg = 1 << 10
)

// ErrProtocol reports a structurally invalid frame or handshake — the
// stream cannot be trusted past this point, so the connection is
// abandoned (the durable session state survives for a resume).
var ErrProtocol = errors.New("stream: protocol error")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// The CRC framing is shared with sibling wire protocols: internal/fleet's
// coordinator/worker channel reuses the exact discipline (and so
// inherits the torn/corrupt-frame detection) without depending on this
// package's record vocabulary.

// AppendFrame appends one CRC frame (uvarint length ‖ payload ‖ CRC32C
// over both) to dst — byte-compatible with the journal's framing.
func AppendFrame(dst, payload []byte) []byte {
	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// WriteFrame writes one framed payload to w.
func WriteFrame(w io.Writer, payload []byte) error {
	_, err := w.Write(AppendFrame(nil, payload))
	return err
}

// frameStep bounds how far ReadFrame grows a payload ahead of the bytes
// that actually arrived.
const frameStep = 1 << 16

// ReadFrame reads one CRC frame from br and returns its payload; a
// corrupt, truncated or oversized frame yields an error wrapping
// ErrProtocol. The CRC is recomputed over the canonical re-encoding of
// the length, which rejects non-minimal varints along with any
// corruption. The payload grows in frameStep steps as it is read, so a
// length claim alone cannot force a large allocation.
func ReadFrame(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: bad frame length: %v", ErrProtocol, err)
	}
	if n > maxFrameLen {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds cap", ErrProtocol, n)
	}
	var lenBuf [binary.MaxVarintLen64]byte
	lenLen := binary.PutUvarint(lenBuf[:], n)
	body := make([]byte, 0, min(n, frameStep))
	for uint64(len(body)) < n {
		old := len(body)
		body = append(body, make([]byte, min(n-uint64(old), frameStep))...)
		if _, err := io.ReadFull(br, body[old:]); err != nil {
			return nil, fmt.Errorf("%w: truncated frame: %v", ErrProtocol, err)
		}
	}
	var crcBytes [4]byte
	if _, err := io.ReadFull(br, crcBytes[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated frame CRC: %v", ErrProtocol, err)
	}
	crc := crc32.Update(crc32.Checksum(lenBuf[:lenLen], castagnoli), castagnoli, body)
	if crc != binary.LittleEndian.Uint32(crcBytes[:]) {
		return nil, fmt.Errorf("%w: frame CRC mismatch", ErrProtocol)
	}
	return body, nil
}

// record is one decoded data frame.
type record struct {
	kind   byte
	events []trace.Event
	link   trace.NotifyLink // whole-trace indices
	addr   trace.Addr
	value  int64
	loc    trace.Loc
	name   string
	report []byte
}

// wireBuf decodes varints off the front of a frame payload.
type wireBuf struct{ b []byte }

func (d *wireBuf) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated uvarint", ErrProtocol)
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *wireBuf) varint() (int64, error) {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrProtocol)
	}
	d.b = d.b[n:]
	return v, nil
}

// index reads a uvarint that must fit a non-negative int.
func (d *wireBuf) index() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v >= 1<<31 {
		return 0, fmt.Errorf("%w: index %d exceeds cap", ErrProtocol, v)
	}
	return int(v), nil
}

// decodeRecord parses one data-frame payload. Structural validation
// only; semantic checks (link bounds against the session's ingested
// prefix) happen in the session before the record is applied.
func decodeRecord(payload []byte) (record, error) {
	if len(payload) == 0 {
		return record{}, fmt.Errorf("%w: empty frame", ErrProtocol)
	}
	rec := record{kind: payload[0]}
	d := wireBuf{b: payload[1:]}
	switch rec.kind {
	case recEvents:
		count, err := d.index()
		if err != nil {
			return rec, err
		}
		// Cap the pre-allocation: the frame length already bounds the
		// real count (every event is ≥ 4 bytes).
		capHint := count
		if capHint > len(d.b) {
			return rec, fmt.Errorf("%w: event count %d exceeds frame", ErrProtocol, count)
		}
		rec.events = make([]trace.Event, 0, capHint)
		for i := 0; i < count; i++ {
			e, n, err := tracefile.DecodeEvent(d.b)
			if err != nil {
				return rec, fmt.Errorf("%w: event %d: %v", ErrProtocol, i, err)
			}
			d.b = d.b[n:]
			rec.events = append(rec.events, e)
		}
	case recLink:
		var err error
		if rec.link.Notify, err = d.index(); err != nil {
			return rec, err
		}
		if rec.link.Release, err = d.index(); err != nil {
			return rec, err
		}
		if rec.link.Acquire, err = d.index(); err != nil {
			return rec, err
		}
	case recVolatile:
		a, err := d.uvarint()
		if err != nil {
			return rec, err
		}
		rec.addr = trace.Addr(a)
	case recInitial:
		a, err := d.uvarint()
		if err != nil {
			return rec, err
		}
		rec.addr = trace.Addr(a)
		if rec.value, err = d.varint(); err != nil {
			return rec, err
		}
	case recLocName:
		l, err := d.uvarint()
		if err != nil {
			return rec, err
		}
		rec.loc = trace.Loc(l)
		n, err := d.index()
		if err != nil {
			return rec, err
		}
		if n > maxNameLen || n > len(d.b) {
			return rec, fmt.Errorf("%w: location name of %d bytes", ErrProtocol, n)
		}
		rec.name = string(d.b[:n])
		d.b = d.b[n:]
	case recEnd:
		// No body.
	case recReport:
		rec.report = d.b
		d.b = nil
	default:
		return rec, fmt.Errorf("%w: unknown record type 0x%02x", ErrProtocol, rec.kind)
	}
	if rec.kind != recReport && len(d.b) != 0 {
		return rec, fmt.Errorf("%w: %d trailing bytes in record 0x%02x", ErrProtocol, len(d.b), rec.kind)
	}
	return rec, nil
}

// Payload builders, shared by the client and the tests.

func eventsPayload(events []trace.Event) []byte {
	p := []byte{recEvents}
	p = binary.AppendUvarint(p, uint64(len(events)))
	for _, e := range events {
		p = tracefile.AppendEvent(p, e)
	}
	return p
}

func linkPayload(ln trace.NotifyLink) []byte {
	p := []byte{recLink}
	p = binary.AppendUvarint(p, uint64(ln.Notify))
	p = binary.AppendUvarint(p, uint64(ln.Release))
	return binary.AppendUvarint(p, uint64(ln.Acquire))
}

func volatilePayload(a trace.Addr) []byte {
	return binary.AppendUvarint([]byte{recVolatile}, uint64(a))
}

func initialPayload(a trace.Addr, v int64) []byte {
	p := binary.AppendUvarint([]byte{recInitial}, uint64(a))
	return binary.AppendVarint(p, v)
}

func locNamePayload(l trace.Loc, name string) []byte {
	p := binary.AppendUvarint([]byte{recLocName}, uint64(l))
	p = binary.AppendUvarint(p, uint64(len(name)))
	return append(p, name...)
}

func reportPayload(reportJSON []byte) []byte {
	return append([]byte{recReport}, reportJSON...)
}

// validToken reports whether a session token is acceptable: non-empty,
// bounded, and made of filename-safe characters (it names the session's
// durable state files, so path metacharacters are refused outright).
func validToken(tok string) bool {
	if len(tok) == 0 || len(tok) > maxTokenLen {
		return false
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
			if i == 0 && c == '.' {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// writeHello writes the client half of the handshake.
func writeHello(w io.Writer, token string) error {
	p := []byte(helloMagic)
	p = binary.AppendUvarint(p, protoVersion)
	p = binary.AppendUvarint(p, uint64(len(token)))
	p = append(p, token...)
	_, err := w.Write(p)
	return err
}

// readHello reads and validates the client handshake, returning the
// session token.
func readHello(br *bufio.Reader) (string, error) {
	magic := make([]byte, len(helloMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != helloMagic {
		return "", fmt.Errorf("%w: bad hello magic", ErrProtocol)
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil || ver != protoVersion {
		return "", fmt.Errorf("%w: unsupported protocol version", ErrProtocol)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil || n == 0 || n > maxTokenLen {
		return "", fmt.Errorf("%w: bad token length", ErrProtocol)
	}
	tok := make([]byte, n)
	if _, err := io.ReadFull(br, tok); err != nil {
		return "", fmt.Errorf("%w: truncated token", ErrProtocol)
	}
	if !validToken(string(tok)) {
		return "", fmt.Errorf("%w: invalid token", ErrProtocol)
	}
	return string(tok), nil
}

// Welcome is the daemon's accepting handshake reply.
type Welcome struct {
	// ResumeEvents is the number of leading events the daemon already
	// holds durably for this session; the client skips them when
	// (re)sending.
	ResumeEvents int
	// Complete reports the session already ran to End and its report
	// follows immediately; the client must send nothing.
	Complete bool
}

// RejectError is the daemon's refusing handshake reply, surfaced to the
// client as an error.
type RejectError struct {
	Code byte
	Msg  string
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("stream: session rejected (code %d): %s", e.Code, e.Msg)
}

// Permanent reports whether retrying the identical handshake is
// pointless.
func (e *RejectError) Permanent() bool { return e.Code == RejectBadHandshake }

const welcomeComplete = 1 // Welcome flags bit

// writeWelcome writes an accepting handshake reply.
func writeWelcome(w io.Writer, wel Welcome) error {
	p := []byte(welcomeMagic)
	p = append(p, 0)
	var flags uint64
	if wel.Complete {
		flags |= welcomeComplete
	}
	p = binary.AppendUvarint(p, flags)
	p = binary.AppendUvarint(p, uint64(wel.ResumeEvents))
	_, err := w.Write(p)
	return err
}

// writeReject writes a refusing handshake reply.
func writeReject(w io.Writer, code byte, msg string) error {
	p := []byte(welcomeMagic)
	p = append(p, code)
	p = binary.AppendUvarint(p, uint64(len(msg)))
	p = append(p, msg...)
	_, err := w.Write(p)
	return err
}

// readWelcome reads the daemon's handshake reply; a refusal surfaces as
// a *RejectError.
func readWelcome(br *bufio.Reader) (Welcome, error) {
	magic := make([]byte, len(welcomeMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != welcomeMagic {
		return Welcome{}, fmt.Errorf("%w: bad welcome magic", ErrProtocol)
	}
	status, err := br.ReadByte()
	if err != nil {
		return Welcome{}, fmt.Errorf("%w: truncated welcome", ErrProtocol)
	}
	if status != 0 {
		n, err := binary.ReadUvarint(br)
		if err != nil || n > maxRejectMsg {
			return Welcome{}, fmt.Errorf("%w: bad reject message", ErrProtocol)
		}
		msg := make([]byte, n)
		if _, err := io.ReadFull(br, msg); err != nil {
			return Welcome{}, fmt.Errorf("%w: truncated reject message", ErrProtocol)
		}
		return Welcome{}, &RejectError{Code: status, Msg: string(msg)}
	}
	flags, err := binary.ReadUvarint(br)
	if err != nil {
		return Welcome{}, fmt.Errorf("%w: truncated welcome flags", ErrProtocol)
	}
	resume, err := binary.ReadUvarint(br)
	if err != nil || resume > 1<<62 {
		return Welcome{}, fmt.Errorf("%w: bad resume count", ErrProtocol)
	}
	return Welcome{ResumeEvents: int(resume), Complete: flags&welcomeComplete != 0}, nil
}
