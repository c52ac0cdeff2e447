// Package journal makes long detection runs crash-safe. It persists each
// completed analysis window's outcome (races with witnesses, isolated
// failures, counter deltas) to an append-only record log, so that a run
// killed by a crash, OOM or preemption can be resumed with -resume: the
// journaled windows are replayed into the canonical merge and only the
// unfinished windows re-enter the solver. Windows are analysed
// independently and merged deterministically (see internal/core), which
// is exactly what makes the per-window outcome a sound checkpoint unit.
//
// # On-disk format
//
// A journal is a 4-byte magic ("RVPJ"), a uvarint format version, and a
// sequence of frames. Every frame — the header included — is
//
//	uvarint(len(payload)) ‖ payload ‖ crc32c(lenbytes ‖ payload)
//
// with the CRC (Castagnoli polynomial) stored as 4 little-endian bytes.
// The first frame's payload is the 64-byte run fingerprint: a SHA-256 of
// the canonically encoded input trace followed by a SHA-256 of the
// canonical encoding of the result-affecting options. Every later frame
// is one window outcome, varint-encoded (see encodeOutcome).
//
// # Torn tails
//
// Appends are sequential and fsynced in batches (group commit), so the
// only corruption an interrupted writer can produce is at the tail: a
// record whose length prefix, payload or CRC is incomplete or wrong.
// Recovery reads frames until the first one that fails its length or CRC
// check, keeps everything before it, and reports the tail torn; Resume
// then truncates the file back to the last intact record and appends
// from there. Damage that cannot be a torn tail — a bad magic, version
// or header frame, or a fingerprint that does not match the current run
// — is not silently repaired: it returns ErrFormat or ErrFingerprint and
// the caller must start a fresh journal.
package journal

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/race"
	"repro/internal/telemetry"
	"repro/internal/tracefile"
	"repro/trace"
)

// Magic is the journal file signature; Version the current format.
// Version 2 added per-race provenance (confirming tier, window, solver
// query stats, replay origin); version 3 the degradation markers of the
// streaming daemon (outcome-level Degraded/PairsShed, per-race Degraded
// flag); version 4 retired the "wcp" and "cp" confirming tiers, which
// older journals may carry; version 5 dropped the outcome's retried-pair
// count with the two-pass solver scheduler; version 6 stores the
// outcome's elapsed time at a fixed width, so a record's length does not
// depend on how long its window took. Recover rejects older-version
// journals as ErrFormat; Resume replaces them with a fresh journal, so
// the run simply starts over.
const (
	Magic   = "RVPJ"
	Version = 6
)

// Decode-hardening caps, in the spirit of tracefile.Decode: a hostile or
// corrupt journal must fail with ErrFormat (or a torn tail) in bounded
// memory, never allocate unbounded buffers or loop forever.
const (
	// maxFrameLen bounds one frame's payload. Real outcome records are a
	// few bytes per counter plus witness indices, far below this.
	maxFrameLen = 1 << 28
	// maxCount bounds every element count in an outcome payload.
	maxCount = 1 << 24
	// maxString bounds panic/stack strings (the producer truncates stacks
	// at 16 KiB).
	maxString = 1 << 20
)

var (
	// ErrFormat reports a journal that is not structurally a journal:
	// wrong magic, unsupported version, or a corrupt header frame. Unlike
	// a torn tail, this is not recoverable by truncation.
	ErrFormat = errors.New("journal: malformed journal")
	// errStale is the ErrFormat of an intact journal written by an older
	// format version: nothing in it is readable now, so Resume may
	// replace it.
	errStale = fmt.Errorf("%w: older format version", ErrFormat)
	// ErrFingerprint reports a structurally valid journal written by a
	// different run — another trace, or result-affecting options that
	// changed. Resuming it would splice unrelated results into the
	// report, so recovery refuses.
	ErrFingerprint = errors.New("journal: fingerprint mismatch")
	// ErrClosed reports an append to a closed writer.
	ErrClosed = errors.New("journal: writer is closed")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Fingerprint binds a journal to one run: the content hash of the input
// trace and the hash of the canonical encoding of the result-affecting
// options. Two runs share a fingerprint iff their per-window outcomes are
// interchangeable.
type Fingerprint struct {
	Trace   [sha256.Size]byte
	Options [sha256.Size]byte
}

// TraceFingerprint hashes tr's canonical binary encoding
// (tracefile.Encode, which is deterministic for a given trace).
func TraceFingerprint(tr *trace.Trace) ([sha256.Size]byte, error) {
	h := sha256.New()
	if err := tracefile.Encode(h, tr); err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("journal: fingerprinting trace: %w", err)
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out, nil
}

// OptionsFingerprint hashes a canonical textual encoding of the
// result-affecting options. The caller owns the encoding (rvpredict
// builds it from its normalised Options); this helper just fixes the
// hash.
func OptionsFingerprint(canonical string) [sha256.Size]byte {
	return sha256.Sum256([]byte(canonical))
}

// Options configures a journal writer.
type Options struct {
	// GroupCommit batches fsyncs: an append only syncs when this much
	// wall-clock has passed since the previous sync (Close always
	// syncs). ≤ 0 syncs after every record — maximally durable,
	// measurably slower. A crash loses at most the records of one
	// commit interval; resume simply re-analyses those windows, so
	// exactness is unaffected either way.
	GroupCommit time.Duration
	// Telemetry, when non-nil, receives the journal counters
	// (records/bytes written, fsync time).
	Telemetry *telemetry.Collector
	// FaultInjector, when non-nil, arms the PointJournalAppend crash
	// point. Test-only.
	FaultInjector *faultinject.Injector
}

// Writer appends window outcomes to a journal file. Append is safe for
// concurrent use — parallel window workers complete in arbitrary order —
// and each record is written with a single Write call, so records never
// interleave.
type Writer struct {
	mu       sync.Mutex
	f        *os.File
	opt      Options
	lastSync time.Time
	dirty    bool
	closed   bool
}

// Create starts a fresh journal at path (truncating any previous file)
// and durably writes the header for fingerprint fp.
func Create(path string, fp Fingerprint, opt Options) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var e encBuf
	e.raw([]byte(Magic))
	e.uvarint(Version)
	header := append(append([]byte{}, fp.Trace[:]...), fp.Options[:]...)
	e.frame(header)
	if _, err := f.Write(e.b); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: writing header: %w", err)
	}
	w := &Writer{f: f, opt: opt}
	opt.Telemetry.Add(telemetry.JournalBytes, int64(len(e.b)))
	if err := w.sync(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Append durably records one window outcome. With group commit enabled
// the record may not be fsynced until a later append or Close; see
// Options.GroupCommit.
func (w *Writer) Append(out race.WindowOutcome) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	var e encBuf
	e.frame(encodeOutcome(out))
	fault := w.opt.FaultInjector.Fire(faultinject.PointJournalAppend)
	if fault == faultinject.FaultCrashTorn {
		// Die mid-record: persist only a prefix of the frame, leaving
		// the torn tail recovery must detect and truncate.
		w.f.Write(e.b[:len(e.b)/2])
		w.f.Sync()
		faultinject.CrashNow()
	}
	if _, err := w.f.Write(e.b); err != nil {
		return fmt.Errorf("journal: appending window %d: %w", out.Window, err)
	}
	w.opt.Telemetry.Add(telemetry.JournalRecords, 1)
	w.opt.Telemetry.Add(telemetry.JournalBytes, int64(len(e.b)))
	w.dirty = true
	if fault == faultinject.FaultCrash {
		// Die between two clean records: the full frame is durable.
		w.syncLocked()
		faultinject.CrashNow()
	}
	if w.opt.GroupCommit <= 0 || time.Since(w.lastSync) >= w.opt.GroupCommit {
		return w.syncLocked()
	}
	return nil
}

// Sync forces any buffered records to stable storage.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.syncLocked()
}

// sync fsyncs without holding the mutex (used before the writer is
// shared); syncLocked is the under-lock variant.
func (w *Writer) sync() error { return w.syncLocked() }

func (w *Writer) syncLocked() error {
	// Fsync stalls land on the run lane of the timeline: they block the
	// window-completion hook that journals outcomes.
	sp := w.opt.Telemetry.Begin(telemetry.PhaseJournalFsync, "journal fsync", telemetry.RunLane(), nil)
	err := w.f.Sync()
	sp.End()
	if err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	w.dirty = false
	w.lastSync = time.Now()
	return nil
}

// Close syncs outstanding records and closes the file. Further appends
// return ErrClosed.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var err error
	if w.dirty {
		err = w.syncLocked()
	}
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("journal: close: %w", cerr)
	}
	return err
}

// RecoverInfo is the result of reading back a journal.
type RecoverInfo struct {
	// Outcomes holds the intact window records, in append order.
	Outcomes []race.WindowOutcome
	// TornTail reports that a truncated or corrupt tail region followed
	// the last intact record (and, under Resume, was truncated away).
	TornTail bool
	// Bytes is the length of the intact prefix — the offset the next
	// append lands at after Resume truncates.
	Bytes int64
}

// Recover reads the journal at path, verifies its fingerprint against
// fp, and returns every intact window outcome. A torn tail is reported,
// not an error; header-level damage returns ErrFormat and a foreign
// fingerprint returns ErrFingerprint.
func Recover(path string, fp Fingerprint) (RecoverInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return RecoverInfo{}, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	got, info, err := decodeStream(f)
	if err != nil {
		return RecoverInfo{}, err
	}
	if got != fp {
		switch {
		case got.Trace != fp.Trace:
			return RecoverInfo{}, fmt.Errorf("%w: journal was written for a different trace", ErrFingerprint)
		default:
			return RecoverInfo{}, fmt.Errorf("%w: journal was written with different result-affecting options", ErrFingerprint)
		}
	}
	return info, nil
}

// Inspect reads the journal at path without verifying its fingerprint,
// returning the header fingerprint alongside the intact records. It
// exists for diagnostics and tests; resuming a run must go through
// Recover or Resume so a foreign journal is refused.
func Inspect(path string) (Fingerprint, RecoverInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return Fingerprint{}, RecoverInfo{}, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	return decodeStream(f)
}

// Resume recovers the journal at path, truncates any torn tail in place,
// and reopens it for appending. The returned writer continues the same
// journal: windows analysed after the resume are appended behind the
// replayed ones. A journal of an older format version is replaced by a
// fresh one (nothing is replayed); any other damage is an error.
func Resume(path string, fp Fingerprint, opt Options) (*Writer, RecoverInfo, error) {
	info, err := Recover(path, fp)
	if errors.Is(err, errStale) {
		w, err := Create(path, fp, opt)
		return w, RecoverInfo{}, err
	}
	if err != nil {
		return nil, RecoverInfo{}, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, RecoverInfo{}, fmt.Errorf("journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, RecoverInfo{}, fmt.Errorf("journal: %w", err)
	}
	if st.Size() > info.Bytes {
		if err := f.Truncate(info.Bytes); err != nil {
			f.Close()
			return nil, RecoverInfo{}, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(info.Bytes, io.SeekStart); err != nil {
		f.Close()
		return nil, RecoverInfo{}, fmt.Errorf("journal: %w", err)
	}
	w := &Writer{f: f, opt: opt}
	if err := w.sync(); err != nil {
		f.Close()
		return nil, RecoverInfo{}, err
	}
	return w, info, nil
}

// WriteFileAtomic writes data to path crash-safely: the bytes go to a
// same-directory temp file, are fsynced, and the temp file is renamed
// over path — so path either keeps its previous content or holds all of
// data, never a prefix. in, when non-nil, arms the PointReportFlush
// crash point (test-only).
func WriteFileAtomic(path string, data []byte, in *faultinject.Injector) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fault := in.Fire(faultinject.PointReportFlush)
	if fault == faultinject.FaultCrashTorn {
		// Die mid-flush: the temp file holds a prefix, the destination
		// is untouched.
		tmp.Write(data[:len(data)/2])
		tmp.Sync()
		faultinject.CrashNow()
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if fault == faultinject.FaultCrash {
		// Die after the flush but before the rename: the destination
		// still holds its previous content.
		faultinject.CrashNow()
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	// Make the rename itself durable. Failure here is not fatal to the
	// caller — the data is fully written either way.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// encBuf accumulates varint-encoded frames.
type encBuf struct {
	b   []byte
	tmp [binary.MaxVarintLen64]byte
}

func (e *encBuf) uvarint(v uint64) {
	n := binary.PutUvarint(e.tmp[:], v)
	e.b = append(e.b, e.tmp[:n]...)
}

func (e *encBuf) varint(v int64) {
	n := binary.PutVarint(e.tmp[:], v)
	e.b = append(e.b, e.tmp[:n]...)
}

func (e *encBuf) raw(p []byte) { e.b = append(e.b, p...) }

func (e *encBuf) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// frame appends one CRC-framed record: length prefix, payload, and a
// CRC32C over both (covering the length catches a corrupted prefix that
// would otherwise mis-slice the stream).
func (e *encBuf) frame(payload []byte) {
	start := len(e.b)
	e.uvarint(uint64(len(payload)))
	e.b = append(e.b, payload...)
	crc := crc32.Checksum(e.b[start:], castagnoli)
	e.b = binary.LittleEndian.AppendUint32(e.b, crc)
}

// EncodeOutcome returns the canonical journal encoding of one window
// outcome — exactly the payload Append frames into the file. It exists
// for the fleet wire protocol (internal/fleet): workers ship outcomes
// across the wire in this encoding and the coordinator validates them
// with DecodeOutcome before journaling, so a wire record and the
// journal record it becomes are byte-identical.
func EncodeOutcome(out race.WindowOutcome) []byte { return encodeOutcome(out) }

// DecodeOutcome decodes an EncodeOutcome payload with the same
// hardening as journal recovery: every count and string length is
// validated before it drives an allocation, and corruption fails with
// ErrFormat in bounded memory.
func DecodeOutcome(payload []byte) (race.WindowOutcome, error) { return decodeOutcome(payload) }

// encodeOutcome flattens one window outcome to a frame payload. All
// integers but the elapsed time are varints; the elapsed time is eight
// little-endian bytes, so two runs that differ only in timing write
// records of equal length. Counts precede their elements; witness
// presence is encoded as len+1 so a nil witness (0) survives the round
// trip distinct from an empty one.
func encodeOutcome(out race.WindowOutcome) []byte {
	var e encBuf
	e.uvarint(uint64(out.Window))
	e.uvarint(uint64(out.Offset))
	e.uvarint(uint64(out.Events))
	e.uvarint(uint64(out.Candidates))
	e.uvarint(uint64(out.Solved))
	e.uvarint(uint64(out.COPsChecked))
	e.uvarint(uint64(out.SolverAborts))
	e.b = binary.LittleEndian.AppendUint64(e.b, uint64(out.ElapsedNS))
	// Degradation marker (format v3): a degraded outcome must replay as
	// degraded — resume never silently upgrades a shed window.
	if out.Degraded {
		e.uvarint(1)
	} else {
		e.uvarint(0)
	}
	e.uvarint(uint64(out.PairsShed))
	e.uvarint(uint64(len(out.Races)))
	for _, r := range out.Races {
		e.uvarint(uint64(r.A))
		e.uvarint(uint64(r.B))
		e.uvarint(uint64(r.Sig.First))
		e.uvarint(uint64(r.Sig.Second))
		if r.Witness == nil {
			e.uvarint(0)
		} else {
			e.uvarint(uint64(len(r.Witness)) + 1)
			for _, idx := range r.Witness {
				e.uvarint(uint64(idx))
			}
		}
		// Provenance (format v2; v3 widens the trailing flag word).
		// Replayed round-trips too: the journal stores the record
		// verbatim, and the replay path re-stamps the flag on merge
		// anyway.
		e.str(r.Prov.Tier)
		e.uvarint(uint64(r.Prov.Window))
		e.varint(r.Prov.Decisions)
		e.varint(r.Prov.Propagations)
		e.varint(r.Prov.Conflicts)
		e.uvarint(uint64(r.Prov.WitnessLen))
		var flags uint64
		if r.Prov.Replayed {
			flags |= 1
		}
		if r.Prov.Degraded {
			flags |= 2
		}
		e.uvarint(flags)
	}
	e.uvarint(uint64(len(out.Failures)))
	for _, f := range out.Failures {
		e.uvarint(uint64(f.Window))
		e.uvarint(uint64(f.Offset))
		e.uvarint(uint64(f.Events))
		e.str(f.PanicValue)
		e.str(f.Stack)
	}
	return e.b
}

// countingReader tracks how many bytes were consumed, so recovery knows
// the exact offset of the last intact record.
type countingReader struct {
	r   *bufio.Reader
	off int64
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.off++
	}
	return b, err
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.off += int64(n)
	return n, err
}

// readUvarint is binary.ReadUvarint with the stream's byte budget
// enforced (a varint longer than MaxVarintLen64 is corruption).
func readUvarint(c *countingReader) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := c.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				return 0, io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, ErrFormat
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, ErrFormat
}

// readFrame reads one CRC-framed record. io.EOF means a clean end of
// stream (no bytes of a next frame present); any other error means the
// frame is torn or corrupt.
func readFrame(c *countingReader) ([]byte, error) {
	startOff := c.off
	n, err := readUvarint(c)
	if err != nil {
		return nil, err
	}
	if n > maxFrameLen {
		return nil, ErrFormat
	}
	// Re-encode the length prefix for the CRC: it covers lenbytes‖payload.
	var e encBuf
	e.uvarint(n)
	if int64(len(e.b)) != c.off-startOff {
		return nil, ErrFormat // non-canonical varint encoding
	}
	// Grow the payload buffer incrementally so a hostile length claim
	// cannot force a huge allocation before the stream runs dry.
	payload := make([]byte, 0, min64(n, 1<<16))
	for uint64(len(payload)) < n {
		k := min64(n-uint64(len(payload)), 1<<16)
		old := len(payload)
		payload = append(payload, make([]byte, k)...)
		if _, err := io.ReadFull(c, payload[old:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	var crcBytes [4]byte
	if _, err := io.ReadFull(c, crcBytes[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	crc := crc32.Checksum(e.b, castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != binary.LittleEndian.Uint32(crcBytes[:]) {
		return nil, ErrFormat
	}
	return payload, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// decodeStream reads a whole journal: header fingerprint, then window
// records until the stream ends cleanly or tears. Header-level damage is
// an error; record-level damage sets TornTail and keeps the intact
// prefix.
func decodeStream(r io.Reader) (Fingerprint, RecoverInfo, error) {
	c := &countingReader{r: bufio.NewReader(r)}
	var fp Fingerprint
	var magic [4]byte
	if _, err := io.ReadFull(c, magic[:]); err != nil || string(magic[:]) != Magic {
		return fp, RecoverInfo{}, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	ver, err := readUvarint(c)
	if err == nil && ver < Version {
		return fp, RecoverInfo{}, errStale
	}
	if err != nil || ver != Version {
		return fp, RecoverInfo{}, fmt.Errorf("%w: unsupported version", ErrFormat)
	}
	header, err := readFrame(c)
	if err != nil || len(header) != 2*sha256.Size {
		return fp, RecoverInfo{}, fmt.Errorf("%w: bad header", ErrFormat)
	}
	copy(fp.Trace[:], header[:sha256.Size])
	copy(fp.Options[:], header[sha256.Size:])
	info := RecoverInfo{Bytes: c.off}
	for {
		payload, err := readFrame(c)
		if err == io.EOF {
			break
		}
		if err != nil {
			info.TornTail = true
			break
		}
		out, err := decodeOutcome(payload)
		if err != nil {
			info.TornTail = true
			break
		}
		info.Outcomes = append(info.Outcomes, out)
		info.Bytes = c.off
	}
	return fp, info, nil
}

// decBuf consumes a frame payload.
type decBuf struct{ b []byte }

func (d *decBuf) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, ErrFormat
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *decBuf) intVal() (int, error) {
	v, err := d.uvarint()
	if err != nil || v > maxFrameLen {
		return 0, ErrFormat
	}
	return int(v), nil
}

func (d *decBuf) count() (int, error) {
	v, err := d.uvarint()
	if err != nil || v > maxCount || v > uint64(len(d.b)) {
		// Every counted element occupies at least one payload byte, so a
		// count beyond the remaining bytes is corruption — reject before
		// allocating.
		return 0, ErrFormat
	}
	return int(v), nil
}

func (d *decBuf) varint() (int64, error) {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		return 0, ErrFormat
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *decBuf) fixed64() (int64, error) {
	if len(d.b) < 8 {
		return 0, ErrFormat
	}
	v := int64(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v, nil
}

func (d *decBuf) str() (string, error) {
	n, err := d.uvarint()
	if err != nil || n > maxString || n > uint64(len(d.b)) {
		return "", ErrFormat
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s, nil
}

// decodeOutcome is the inverse of encodeOutcome, hardened against
// corrupt payloads (bounded counts, no trailing garbage).
func decodeOutcome(payload []byte) (race.WindowOutcome, error) {
	d := &decBuf{b: payload}
	var out race.WindowOutcome
	var err error
	read := func(dst *int) {
		if err == nil {
			*dst, err = d.intVal()
		}
	}
	read(&out.Window)
	read(&out.Offset)
	read(&out.Events)
	read(&out.Candidates)
	read(&out.Solved)
	read(&out.COPsChecked)
	read(&out.SolverAborts)
	if err == nil {
		out.ElapsedNS, err = d.fixed64()
	}
	var degraded uint64
	if err == nil {
		degraded, err = d.uvarint()
	}
	if err == nil && degraded > 1 {
		err = ErrFormat
	}
	out.Degraded = degraded == 1
	read(&out.PairsShed)
	if err != nil {
		return out, err
	}
	nRaces, err := d.count()
	if err != nil {
		return out, err
	}
	for i := 0; i < nRaces; i++ {
		var r race.Race
		var sigA, sigB uint64
		read(&r.A)
		read(&r.B)
		if err == nil {
			sigA, err = d.uvarint()
		}
		if err == nil {
			sigB, err = d.uvarint()
		}
		if err != nil {
			return out, err
		}
		if sigA > math.MaxUint32 || sigB > math.MaxUint32 {
			return out, ErrFormat // trace.Loc is 32-bit
		}
		r.Sig = race.Signature{First: trace.Loc(sigA), Second: trace.Loc(sigB)}
		wlen, werr := d.count()
		if werr != nil {
			return out, werr
		}
		if wlen > 0 {
			r.Witness = make([]int, wlen-1)
			for j := range r.Witness {
				read(&r.Witness[j])
			}
			if err != nil {
				return out, err
			}
		}
		if err == nil {
			r.Prov.Tier, err = d.str()
		}
		read(&r.Prov.Window)
		if err == nil {
			r.Prov.Decisions, err = d.varint()
		}
		if err == nil {
			r.Prov.Propagations, err = d.varint()
		}
		if err == nil {
			r.Prov.Conflicts, err = d.varint()
		}
		read(&r.Prov.WitnessLen)
		var flags uint64
		if err == nil {
			flags, err = d.uvarint()
		}
		if err != nil {
			return out, err
		}
		if flags > 3 {
			return out, ErrFormat
		}
		r.Prov.Replayed = flags&1 != 0
		r.Prov.Degraded = flags&2 != 0
		out.Races = append(out.Races, r)
	}
	nFail, err := d.count()
	if err != nil {
		return out, err
	}
	for i := 0; i < nFail; i++ {
		var f race.WindowFailure
		read(&f.Window)
		read(&f.Offset)
		read(&f.Events)
		if err == nil {
			f.PanicValue, err = d.str()
		}
		if err == nil {
			f.Stack, err = d.str()
		}
		if err != nil {
			return out, err
		}
		out.Failures = append(out.Failures, f)
	}
	if len(d.b) != 0 {
		return out, ErrFormat
	}
	return out, nil
}
