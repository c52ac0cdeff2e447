package tracev2

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/telemetry"
	"repro/trace"
)

// byteReader decodes varints from an in-memory byte slice with bounds
// checks that degrade to ErrFormat, never a panic.
type byteReader struct {
	buf []byte
	off int
}

func (b *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(b.buf[b.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated uvarint", ErrFormat)
	}
	b.off += n
	return v, nil
}

func (b *byteReader) varint() (int64, error) {
	v, n := binary.Varint(b.buf[b.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrFormat)
	}
	b.off += n
	return v, nil
}

func (b *byteReader) bytes(n int) ([]byte, error) {
	if n < 0 || b.off+n > len(b.buf) {
		return nil, fmt.Errorf("%w: truncated byte run", ErrFormat)
	}
	p := b.buf[b.off : b.off+n]
	b.off += n
	return p, nil
}

// chunkCacheSlots is the random-access decode cache size. Report
// rendering touches a handful of windows' worth of events; four decoded
// chunks cover the typical access locality while keeping the cache's
// live heap a few MB.
const chunkCacheSlots = 4

type cacheEntry struct {
	idx    int // chunk index, -1 when empty
	events []trace.Event
	tick   uint64
}

// Reader gives random and windowed access to a chunked trace file
// without ever materialising it: the raw bytes stay on disk (mmapped
// when the platform supports it) and only decoded chunks and windows
// are live. The footer, directory and metadata block are decoded
// eagerly at Open — they are alphabet-sized, not trace-sized.
//
// A Reader is not safe for concurrent use: the chunk cache and the
// window scratch buffers are single-threaded state, matching the
// sequential out-of-core driver.
type Reader struct {
	data      []byte
	unmap     func() error
	mapped    int64 // bytes mmapped (0 when read into memory)
	chunkSize int
	total     int
	dir       []chunkDir

	links     []trace.NotifyLink
	volatiles map[trace.Addr]bool
	initials  map[trace.Addr]int64
	names     map[trace.Loc]string
	stats     trace.Stats
	hash      [sha256.Size]byte

	cache [chunkCacheSlots]cacheEntry
	tick  uint64
	col   *telemetry.Collector
}

// Open maps (or, on platforms without mmap, reads) the chunked trace
// file at path and validates its structure.
func Open(path string) (*Reader, error) {
	data, unmap, mapped, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(data)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	r.unmap = unmap
	r.mapped = mapped
	return r, nil
}

// NewReader validates a chunked trace held in memory. The Reader
// borrows data; the caller must keep it alive and unmodified.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < headerLen+tailLen {
		return nil, fmt.Errorf("%w: file too short", ErrFormat)
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	ver, n := binary.Uvarint(data[len(Magic):])
	if n <= 0 || ver != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrFormat, ver)
	}

	// Locate and checksum the footer through the fixed-size tail.
	tail := data[len(data)-tailLen:]
	if string(tail[8:12]) != Magic {
		return nil, fmt.Errorf("%w: bad tail magic", ErrFormat)
	}
	footerLen := int(binary.LittleEndian.Uint32(tail[0:4]))
	footerCRC := binary.LittleEndian.Uint32(tail[4:8])
	footerEnd := len(data) - tailLen
	if footerLen <= 0 || footerLen > footerEnd-headerLen {
		return nil, fmt.Errorf("%w: implausible footer length %d", ErrFormat, footerLen)
	}
	footer := data[footerEnd-footerLen : footerEnd]
	if crc32.Checksum(footer, crcTable) != footerCRC {
		return nil, fmt.Errorf("%w: footer checksum mismatch", ErrFormat)
	}

	r := &Reader{data: data}
	for i := range r.cache {
		r.cache[i].idx = -1
	}
	if err := r.parseFooter(footer, uint64(footerEnd-footerLen)); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Reader) parseFooter(footer []byte, footerOff uint64) error {
	b := &byteReader{buf: footer}
	total, err := b.uvarint()
	if err != nil {
		return err
	}
	if total > maxEvents {
		return fmt.Errorf("%w: implausible event count %d", ErrFormat, total)
	}
	chunkSize, err := b.uvarint()
	if err != nil {
		return err
	}
	if chunkSize == 0 || chunkSize > maxChunkSize {
		return fmt.Errorf("%w: implausible chunk size %d", ErrFormat, chunkSize)
	}
	chunkCount, err := b.uvarint()
	if err != nil {
		return err
	}
	if chunkCount > maxChunks {
		return fmt.Errorf("%w: implausible chunk count %d", ErrFormat, chunkCount)
	}
	// Fixed-capacity chunks make random access a division: the directory
	// must describe exactly ceil(total/chunkSize) chunks, all full except
	// the last.
	wantChunks := (total + chunkSize - 1) / chunkSize
	if chunkCount != wantChunks {
		return fmt.Errorf("%w: directory has %d chunks, %d events at chunk size %d need %d",
			ErrFormat, chunkCount, total, chunkSize, wantChunks)
	}
	r.total = int(total)
	r.chunkSize = int(chunkSize)
	r.dir = make([]chunkDir, 0, chunkCount)
	var sum uint64
	prevEnd := uint64(headerLen)
	for i := uint64(0); i < chunkCount; i++ {
		var d chunkDir
		if d.off, err = b.uvarint(); err != nil {
			return err
		}
		if d.length, err = b.uvarint(); err != nil {
			return err
		}
		ev, err := b.uvarint()
		if err != nil {
			return err
		}
		want := chunkSize
		if i == chunkCount-1 {
			want = total - (chunkCount-1)*chunkSize
		}
		if ev != want {
			return fmt.Errorf("%w: chunk %d declares %d events, want %d", ErrFormat, i, ev, want)
		}
		d.events = int(ev)
		minTid, err := b.varint()
		if err != nil {
			return err
		}
		maxTid, err := b.varint()
		if err != nil {
			return err
		}
		d.minTid, d.maxTid = trace.TID(minTid), trace.TID(maxTid)
		minVar, err := b.uvarint()
		if err != nil {
			return err
		}
		maxVar, err := b.uvarint()
		if err != nil {
			return err
		}
		d.minVar, d.maxVar = trace.Addr(minVar), trace.Addr(maxVar)
		minLock, err := b.uvarint()
		if err != nil {
			return err
		}
		maxLock, err := b.uvarint()
		if err != nil {
			return err
		}
		d.minLock, d.maxLock = trace.Addr(minLock), trace.Addr(maxLock)
		crc, err := b.uvarint()
		if err != nil {
			return err
		}
		if crc > math.MaxUint32 {
			return fmt.Errorf("%w: chunk %d checksum out of range", ErrFormat, i)
		}
		d.crc = uint32(crc)
		// Chunks must tile the region between header and metadata in
		// order, with no overlap — a lying directory cannot alias chunk
		// bytes or point into the footer.
		if d.off != prevEnd || d.length == 0 || d.off+d.length < d.off {
			return fmt.Errorf("%w: chunk %d directory entry out of place", ErrFormat, i)
		}
		prevEnd = d.off + d.length
		if prevEnd > footerOff {
			return fmt.Errorf("%w: chunk %d extends past metadata", ErrFormat, i)
		}
		sum += ev
		r.dir = append(r.dir, d)
	}
	if sum != total {
		return fmt.Errorf("%w: directory events sum %d != total %d", ErrFormat, sum, total)
	}
	metaOff, err := b.uvarint()
	if err != nil {
		return err
	}
	metaLen, err := b.uvarint()
	if err != nil {
		return err
	}
	if metaOff != prevEnd || metaOff+metaLen < metaOff || metaOff+metaLen > footerOff {
		return fmt.Errorf("%w: metadata block out of place", ErrFormat)
	}
	var st [7]uint64
	for i := range st {
		if st[i], err = b.uvarint(); err != nil {
			return err
		}
		if st[i] > maxEvents {
			return fmt.Errorf("%w: implausible stats field %d", ErrFormat, st[i])
		}
	}
	r.stats = trace.Stats{
		Threads: int(st[0]), Events: int(st[1]), Accesses: int(st[2]),
		Syncs: int(st[3]), Branches: int(st[4]), Locks: int(st[5]), Shared: int(st[6]),
	}
	hash, err := b.bytes(sha256.Size)
	if err != nil {
		return err
	}
	copy(r.hash[:], hash)
	if b.off != len(b.buf) {
		return fmt.Errorf("%w: %d trailing footer bytes", ErrFormat, len(b.buf)-b.off)
	}
	return r.parseMeta(r.data[metaOff : metaOff+metaLen])
}

func (r *Reader) parseMeta(meta []byte) error {
	b := &byteReader{buf: meta}
	nLinks, err := b.uvarint()
	if err != nil {
		return err
	}
	if nLinks > maxMeta {
		return fmt.Errorf("%w: implausible notify-link count %d", ErrFormat, nLinks)
	}
	for i := uint64(0); i < nLinks; i++ {
		ntf, err := b.uvarint()
		if err != nil {
			return err
		}
		rel, err := b.uvarint()
		if err != nil {
			return err
		}
		acq, err := b.uvarint()
		if err != nil {
			return err
		}
		if ntf >= uint64(r.total) || rel >= uint64(r.total) || acq >= uint64(r.total) {
			return fmt.Errorf("%w: notify link index out of range", ErrFormat)
		}
		r.links = append(r.links, trace.NotifyLink{
			Notify: int(ntf), Release: int(rel), Acquire: int(acq),
		})
	}
	nVols, err := b.uvarint()
	if err != nil {
		return err
	}
	if nVols > maxMeta {
		return fmt.Errorf("%w: implausible volatile count %d", ErrFormat, nVols)
	}
	r.volatiles = make(map[trace.Addr]bool, nVols)
	for i := uint64(0); i < nVols; i++ {
		a, err := b.uvarint()
		if err != nil {
			return err
		}
		r.volatiles[trace.Addr(a)] = true
	}
	nInits, err := b.uvarint()
	if err != nil {
		return err
	}
	if nInits > maxMeta {
		return fmt.Errorf("%w: implausible initial-value count %d", ErrFormat, nInits)
	}
	r.initials = make(map[trace.Addr]int64, nInits)
	for i := uint64(0); i < nInits; i++ {
		a, err := b.uvarint()
		if err != nil {
			return err
		}
		v, err := b.varint()
		if err != nil {
			return err
		}
		r.initials[trace.Addr(a)] = v
	}
	nNames, err := b.uvarint()
	if err != nil {
		return err
	}
	if nNames > maxMeta {
		return fmt.Errorf("%w: implausible name count %d", ErrFormat, nNames)
	}
	r.names = make(map[trace.Loc]string, nNames)
	for i := uint64(0); i < nNames; i++ {
		l, err := b.uvarint()
		if err != nil {
			return err
		}
		sz, err := b.uvarint()
		if err != nil {
			return err
		}
		if sz > maxNameLen {
			return fmt.Errorf("%w: implausible name length %d", ErrFormat, sz)
		}
		name, err := b.bytes(int(sz))
		if err != nil {
			return err
		}
		r.names[trace.Loc(l)] = string(name)
	}
	if b.off != len(b.buf) {
		return fmt.Errorf("%w: %d trailing metadata bytes", ErrFormat, len(b.buf)-b.off)
	}
	return nil
}

// Close releases the file mapping, if any. The Reader must not be used
// afterwards.
func (r *Reader) Close() error {
	if r.unmap == nil {
		return nil
	}
	unmap := r.unmap
	r.unmap = nil
	r.data = nil
	for i := range r.cache {
		r.cache[i] = cacheEntry{idx: -1}
	}
	return unmap()
}

// AttachTelemetry points chunk-cache and mmap accounting at c.
func (r *Reader) AttachTelemetry(c *telemetry.Collector) {
	r.col = c
	c.Set(telemetry.MmapBytes, r.mapped)
}

// NumEvents returns the trace's event count.
func (r *Reader) NumEvents() int { return r.total }

// NumChunks returns the number of event chunks in the file.
func (r *Reader) NumChunks() int { return len(r.dir) }

// Stats returns the trace's precomputed summary metrics — identical to
// ComputeStats over the materialised trace, but read from the footer.
func (r *Reader) Stats() trace.Stats { return r.stats }

// ContentHash returns the SHA-256 of the trace's canonical legacy
// encoding: the value journal.TraceFingerprint computes, so journals
// bind to chunked traces with the same fingerprint as legacy ones.
func (r *Reader) ContentHash() [sha256.Size]byte { return r.hash }

// LocName renders a program location like trace.Trace.LocName.
func (r *Reader) LocName(l trace.Loc) string {
	if name, ok := r.names[l]; ok {
		return name
	}
	return fmt.Sprintf("L%d", l)
}

// Event returns the event at whole-trace index i, decoding (and
// caching) its chunk on demand — the random-access path report
// rendering uses.
func (r *Reader) Event(i int) (trace.Event, error) {
	if i < 0 || i >= r.total {
		return trace.Event{}, fmt.Errorf("tracev2: event index %d out of range [0,%d)", i, r.total)
	}
	c := i / r.chunkSize
	events, err := r.chunk(c)
	if err != nil {
		return trace.Event{}, err
	}
	return events[i-c*r.chunkSize], nil
}

// chunk returns chunk c's decoded events through the LRU cache.
func (r *Reader) chunk(c int) ([]trace.Event, error) {
	for i := range r.cache {
		if r.cache[i].idx == c {
			r.tick++
			r.cache[i].tick = r.tick
			r.col.Add(telemetry.ChunkCacheHits, 1)
			return r.cache[i].events, nil
		}
	}
	r.col.Add(telemetry.ChunkCacheMisses, 1)
	victim := 0
	for i := 1; i < len(r.cache); i++ {
		if r.cache[i].tick < r.cache[victim].tick {
			victim = i
		}
	}
	events, err := r.decodeChunk(c, r.cache[victim].events[:0])
	if err != nil {
		return nil, err
	}
	r.tick++
	r.cache[victim] = cacheEntry{idx: c, events: events, tick: r.tick}
	return events, nil
}

// decodeChunk decodes chunk c into dst (reusing its capacity) with full
// validation: the chunk's bytes must match the directory's crc32c
// (chunk data sits outside the footer checksum, so this is the only
// integrity check it gets), dictionary counts are bounded by the
// chunk's event count, every op byte must name a known op, and every
// column entry must index inside its dictionary — a lying chunk fails
// with ErrFormat, never a panic or an unbounded allocation. Every
// failure is wrapped in a *ChunkError carrying the chunk index and file
// offset, so callers far from the file (fleet workers analysing a
// shipped trace) can report which chunk was torn.
func (r *Reader) decodeChunk(c int, dst []trace.Event) ([]trace.Event, error) {
	d := r.dir[c]
	raw := r.data[d.off : d.off+d.length]
	if got := crc32.Checksum(raw, crcTable); got != d.crc {
		return nil, &ChunkError{Chunk: c, Offset: int64(d.off),
			Err: fmt.Errorf("%w: checksum mismatch (%#x, directory says %#x)", ErrFormat, got, d.crc)}
	}
	events, err := r.decodeChunkBody(c, raw, dst)
	if err != nil {
		return nil, &ChunkError{Chunk: c, Offset: int64(d.off), Err: err}
	}
	return events, nil
}

func (r *Reader) decodeChunkBody(c int, raw []byte, dst []trace.Event) ([]trace.Event, error) {
	d := r.dir[c]
	b := &byteReader{buf: raw}
	n, err := b.uvarint()
	if err != nil {
		return nil, err
	}
	if n != uint64(d.events) {
		return nil, fmt.Errorf("%w: chunk %d declares %d events, directory says %d",
			ErrFormat, c, n, d.events)
	}
	nEvents := int(n)

	readTidDict := func() ([]trace.TID, error) {
		cnt, err := b.uvarint()
		if err != nil {
			return nil, err
		}
		// Dictionaries are first-use: more entries than events is a lie.
		if cnt > uint64(nEvents) {
			return nil, fmt.Errorf("%w: chunk %d thread dict count %d > %d events",
				ErrFormat, c, cnt, nEvents)
		}
		out := make([]trace.TID, cnt)
		for i := range out {
			v, err := b.varint()
			if err != nil {
				return nil, err
			}
			out[i] = trace.TID(v)
		}
		return out, nil
	}
	readAddrDict := func(kind string) ([]trace.Addr, error) {
		cnt, err := b.uvarint()
		if err != nil {
			return nil, err
		}
		if cnt > uint64(nEvents) {
			return nil, fmt.Errorf("%w: chunk %d %s dict count %d > %d events",
				ErrFormat, c, kind, cnt, nEvents)
		}
		out := make([]trace.Addr, cnt)
		for i := range out {
			v, err := b.uvarint()
			if err != nil {
				return nil, err
			}
			out[i] = trace.Addr(v)
		}
		return out, nil
	}
	tids, err := readTidDict()
	if err != nil {
		return nil, err
	}
	vars, err := readAddrDict("variable")
	if err != nil {
		return nil, err
	}
	locks, err := readAddrDict("lock")
	if err != nil {
		return nil, err
	}
	locCnt, err := b.uvarint()
	if err != nil {
		return nil, err
	}
	if locCnt > uint64(nEvents) {
		return nil, fmt.Errorf("%w: chunk %d location dict count %d > %d events",
			ErrFormat, c, locCnt, nEvents)
	}
	locs := make([]trace.Loc, locCnt)
	for i := range locs {
		v, err := b.uvarint()
		if err != nil {
			return nil, err
		}
		locs[i] = trace.Loc(v)
	}

	if cap(dst) < nEvents {
		dst = make([]trace.Event, nEvents)
	} else {
		dst = dst[:nEvents]
	}
	ops, err := b.bytes(nEvents)
	if err != nil {
		return nil, err
	}
	for i, op := range ops {
		if op > byte(trace.OpBranch) {
			return nil, fmt.Errorf("%w: chunk %d unknown op %d", ErrFormat, c, op)
		}
		dst[i].Op = trace.Op(op)
	}
	for i := range dst {
		idx, err := b.uvarint()
		if err != nil {
			return nil, err
		}
		if idx >= uint64(len(tids)) {
			return nil, fmt.Errorf("%w: chunk %d thread dict index out of range", ErrFormat, c)
		}
		dst[i].Tid = tids[idx]
	}
	for i := range dst {
		v, err := b.uvarint()
		if err != nil {
			return nil, err
		}
		switch {
		case dst[i].Op.IsAccess():
			if v >= uint64(len(vars)) {
				return nil, fmt.Errorf("%w: chunk %d variable dict index out of range", ErrFormat, c)
			}
			dst[i].Addr = vars[v]
		case dst[i].Op == trace.OpAcquire || dst[i].Op == trace.OpRelease:
			if v >= uint64(len(locks)) {
				return nil, fmt.Errorf("%w: chunk %d lock dict index out of range", ErrFormat, c)
			}
			dst[i].Addr = locks[v]
		default:
			dst[i].Addr = trace.Addr(v)
		}
	}
	for i := range dst {
		v, err := b.varint()
		if err != nil {
			return nil, err
		}
		dst[i].Value = v
	}
	for i := range dst {
		v, err := b.uvarint()
		if err != nil {
			return nil, err
		}
		if v >= uint64(len(locs)) {
			return nil, fmt.Errorf("%w: chunk %d location dict index out of range", ErrFormat, c)
		}
		dst[i].Loc = locs[v]
	}
	if b.off != len(b.buf) {
		return nil, fmt.Errorf("%w: %d trailing chunk bytes", ErrFormat, len(b.buf)-b.off)
	}
	return dst, nil
}
