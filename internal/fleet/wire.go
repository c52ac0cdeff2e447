// Package fleet implements fault-tolerant distributed shard analysis: a
// coordinator that owns a chunked trace's durable window journal and
// hands out shard leases to worker processes over a CRC-framed wire
// protocol, merging their journaled results into a report byte-identical
// to a single-process run — under worker crashes, stalled leases,
// corrupted results and coordinator crashes alike.
//
// The robustness spine:
//
//   - Leases carry deadlines renewed by heartbeat. An expired or
//     disconnected lease's shard is reassigned with exponential backoff
//     and jitter (internal/retry's schedule).
//   - Stragglers get speculative re-execution: when no shard is pending,
//     an idle worker is granted a second lease on a still-leased shard,
//     and the first valid result per window wins (CRC- and
//     fingerprint-gated); later duplicates are acked and dropped.
//   - Every accepted result is appended to the coordinator's journal and
//     fsynced before the worker is acked, so a SIGKILL'd coordinator
//     resumes from its own journal without losing an acked window.
//   - When the fleet shrinks to zero the coordinator degrades
//     gracefully: rvpredict.MergeJournal renders the final report from
//     the coordinator journal and analyses locally the windows no
//     worker covered.
//
// Framing and CRC discipline are internal/stream's (uvarint length ‖
// payload ‖ CRC32C over both), so a torn or corrupt frame is detected,
// never misparsed; result payloads carry an inner CRC over the encoded
// outcome so corruption injected after framing is still caught.
package fleet

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/journal"
	"repro/internal/stream"
)

// Handshake magic and protocol version. The worker's hello carries the
// 64-byte run fingerprint (trace content hash ‖ options fingerprint);
// a worker holding the wrong trace or result-affecting options is
// rejected before it can lease anything. Results carry window outcomes
// in the journal's record encoding, so a worker built for another
// record format must be rejected too: version 2 carries journal format
// 6, whose elapsed time is fixed-width.
const (
	helloMagic   = "RVPW"
	replyMagic   = "RVPF"
	protoVersion = 2
)

// Message types, the first payload byte of every framed message.
const (
	// Worker → coordinator.
	msgReq       byte = 0x01 // idle: wants a lease
	msgHeartbeat byte = 0x02 // uvarint leaseID: renew the deadline
	msgResult    byte = 0x03 // uvarint leaseID ‖ uvarint window ‖ uvarint len ‖ enc ‖ crc32c(enc)
	msgShardDone byte = 0x04 // uvarint leaseID: every owned window was reported

	// Coordinator → worker.
	msgGrant    byte = 0x11 // uvarint leaseID ‖ uvarint shard ‖ uvarint shards ‖ uvarint ttl-ms ‖ speculative byte
	msgNone     byte = 0x12 // uvarint wait-ms: no grantable shard right now
	msgShutdown byte = 0x13 // all windows are durable; the worker exits
	msgAck      byte = 0x14 // status byte: ackOK or ackRejected
)

// Ack statuses.
const (
	ackOK       byte = 0
	ackRejected byte = 1
)

// Handshake reject codes.
const (
	// RejectFingerprint: the worker's trace or options differ from the
	// coordinator's. Permanent — the worker is misconfigured.
	RejectFingerprint byte = 1
	// RejectVersion: unsupported protocol version or malformed hello.
	// Permanent.
	RejectVersion byte = 2
	// RejectDraining: the coordinator is finishing up. Transient.
	RejectDraining byte = 3
)

// maxWorkerName bounds the advertised worker name.
const maxWorkerName = 64

// ErrProtocol reports a structurally invalid fleet frame or handshake.
var ErrProtocol = errors.New("fleet: protocol error")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RejectError is the coordinator's refusing handshake reply, surfaced
// to the worker as an error. It implements retry.Permanent so a
// misconfigured worker fails fast instead of hammering the coordinator.
type RejectError struct {
	Code byte
	Msg  string
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("fleet: worker rejected (code %d): %s", e.Code, e.Msg)
}

// Permanent reports whether retrying the identical handshake is
// pointless: a fingerprint or version mismatch cannot heal.
func (e *RejectError) Permanent() bool {
	return e.Code == RejectFingerprint || e.Code == RejectVersion
}

// fingerprintBytes flattens a journal fingerprint for the wire.
func fingerprintBytes(fp journal.Fingerprint) []byte {
	b := make([]byte, 0, 2*sha256.Size)
	b = append(b, fp.Trace[:]...)
	return append(b, fp.Options[:]...)
}

// writeHello writes the worker half of the handshake.
func writeHello(w io.Writer, fp journal.Fingerprint, name string) error {
	if len(name) > maxWorkerName {
		name = name[:maxWorkerName]
	}
	p := []byte(helloMagic)
	p = binary.AppendUvarint(p, protoVersion)
	p = append(p, fingerprintBytes(fp)...)
	p = binary.AppendUvarint(p, uint64(len(name)))
	p = append(p, name...)
	_, err := w.Write(p)
	return err
}

// readHello reads and validates a worker handshake against the
// coordinator's fingerprint, returning the worker's name and a reject
// code (0 for accepted).
func readHello(br *bufio.Reader, want journal.Fingerprint) (name string, code byte, err error) {
	magic := make([]byte, len(helloMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != helloMagic {
		return "", RejectVersion, fmt.Errorf("%w: bad hello magic", ErrProtocol)
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil || ver != protoVersion {
		return "", RejectVersion, fmt.Errorf("%w: unsupported protocol version", ErrProtocol)
	}
	got := make([]byte, 2*sha256.Size)
	if _, err := io.ReadFull(br, got); err != nil {
		return "", RejectVersion, fmt.Errorf("%w: truncated fingerprint", ErrProtocol)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil || n > maxWorkerName {
		return "", RejectVersion, fmt.Errorf("%w: bad worker name length", ErrProtocol)
	}
	nb := make([]byte, n)
	if _, err := io.ReadFull(br, nb); err != nil {
		return "", RejectVersion, fmt.Errorf("%w: truncated worker name", ErrProtocol)
	}
	if !bytes.Equal(got, fingerprintBytes(want)) {
		return string(nb), RejectFingerprint,
			fmt.Errorf("%w: worker trace/options fingerprint differs from the coordinator's", ErrProtocol)
	}
	return string(nb), 0, nil
}

// writeReply writes the coordinator's handshake reply: code 0 accepts,
// anything else rejects with a message.
func writeReply(w io.Writer, code byte, msg string) error {
	p := []byte(replyMagic)
	p = append(p, code)
	p = binary.AppendUvarint(p, uint64(len(msg)))
	p = append(p, msg...)
	_, err := w.Write(p)
	return err
}

// readReply reads the coordinator's handshake reply; a refusal surfaces
// as a *RejectError.
func readReply(br *bufio.Reader) error {
	magic := make([]byte, len(replyMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != replyMagic {
		return fmt.Errorf("%w: bad handshake reply magic", ErrProtocol)
	}
	code, err := br.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: truncated handshake reply", ErrProtocol)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil || n > 1<<10 {
		return fmt.Errorf("%w: bad handshake reply message", ErrProtocol)
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(br, msg); err != nil {
		return fmt.Errorf("%w: truncated handshake reply message", ErrProtocol)
	}
	if code != 0 {
		return &RejectError{Code: code, Msg: string(msg)}
	}
	return nil
}

// resultPayload builds a msgResult frame payload. The inner CRC covers
// the encoded outcome alone, separately from the frame CRC: corruption
// injected after the frame is built (the result_corrupt fault point
// flips a byte of enc after this CRC was computed) is still caught by
// the coordinator's gate.
func resultPayload(leaseID uint64, window int, enc []byte) []byte {
	p := []byte{msgResult}
	p = binary.AppendUvarint(p, leaseID)
	p = binary.AppendUvarint(p, uint64(window))
	p = binary.AppendUvarint(p, uint64(len(enc)))
	p = append(p, enc...)
	return binary.LittleEndian.AppendUint32(p, crc32.Checksum(enc, castagnoli))
}

// parseResult decodes a msgResult payload (sans the leading type byte)
// and verifies the inner CRC before the outcome bytes are decoded.
func parseResult(b []byte) (leaseID uint64, window int, enc []byte, err error) {
	leaseID, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("%w: truncated result lease", ErrProtocol)
	}
	b = b[n:]
	w, n := binary.Uvarint(b)
	if n <= 0 || w >= 1<<31 {
		return 0, 0, nil, fmt.Errorf("%w: bad result window", ErrProtocol)
	}
	b = b[n:]
	l, n := binary.Uvarint(b)
	if n <= 0 || int(l) != len(b)-n-4 {
		return 0, 0, nil, fmt.Errorf("%w: bad result length", ErrProtocol)
	}
	enc = b[n : n+int(l)]
	want := binary.LittleEndian.Uint32(b[n+int(l):])
	if got := crc32.Checksum(enc, castagnoli); got != want {
		return leaseID, int(w), nil, fmt.Errorf("%w: result CRC mismatch for window %d", ErrProtocol, w)
	}
	return leaseID, int(w), enc, nil
}

// grant is a decoded msgGrant.
type grant struct {
	leaseID     uint64
	shard       int
	shards      int
	ttlMS       uint64
	speculative bool
}

func grantPayload(g grant) []byte {
	p := []byte{msgGrant}
	p = binary.AppendUvarint(p, g.leaseID)
	p = binary.AppendUvarint(p, uint64(g.shard))
	p = binary.AppendUvarint(p, uint64(g.shards))
	p = binary.AppendUvarint(p, g.ttlMS)
	if g.speculative {
		return append(p, 1)
	}
	return append(p, 0)
}

func parseGrant(b []byte) (grant, error) {
	var g grant
	vals := make([]uint64, 4)
	for i := range vals {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return g, fmt.Errorf("%w: truncated grant", ErrProtocol)
		}
		vals[i] = v
		b = b[n:]
	}
	if len(b) != 1 || vals[1] >= 1<<31 || vals[2] == 0 || vals[2] >= 1<<31 || vals[1] >= vals[2] {
		return g, fmt.Errorf("%w: malformed grant", ErrProtocol)
	}
	g.leaseID, g.shard, g.shards, g.ttlMS = vals[0], int(vals[1]), int(vals[2]), vals[3]
	g.speculative = b[0] == 1
	return g, nil
}

func uvarintPayload(kind byte, v uint64) []byte {
	return binary.AppendUvarint([]byte{kind}, v)
}

func parseUvarint(b []byte) (uint64, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || n != len(b) {
		return 0, fmt.Errorf("%w: malformed message body", ErrProtocol)
	}
	return v, nil
}

// readMsg reads one framed message and returns its type byte and body.
func readMsg(br *bufio.Reader) (byte, []byte, error) {
	p, err := stream.ReadFrame(br)
	if err != nil {
		return 0, nil, err
	}
	if len(p) == 0 {
		return 0, nil, fmt.Errorf("%w: empty message", ErrProtocol)
	}
	return p[0], p[1:], nil
}

// journalFingerprint is the fleet's run fingerprint: the chunked
// trace's content hash and the result-affecting options — the exact
// fingerprint rvpredict's journals and MergeJournal use, so the
// coordinator journal merges through the ordinary machinery.
func journalFingerprint(contentHash [sha256.Size]byte, resultFingerprint string) journal.Fingerprint {
	return journal.Fingerprint{
		Trace:   contentHash,
		Options: journal.OptionsFingerprint(resultFingerprint),
	}
}
