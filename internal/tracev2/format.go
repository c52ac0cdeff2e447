// Package tracev2 implements the chunked, columnar, mmap-friendly
// on-disk trace format — the out-of-core counterpart to the legacy
// row-oriented format in internal/tracefile. The legacy decoder
// materialises the whole trace before the first window is cut, so peak
// memory scales with trace length; this format keeps events on disk in
// fixed-capacity chunks and lets the reader materialise one window at a
// time, holding O(window + chunk) events live regardless of trace size
// (the paper's real workloads reach 14.8M events).
//
// # File layout
//
//	"RVC2" ‖ uvarint(version=2)
//	chunk*                       event data, fixed capacity per chunk
//	meta                         links ‖ volatiles ‖ initials ‖ locnames
//	footer                       directory + stats + content hash
//	tail                         fixed 12 bytes, locates the footer
//
// Each chunk is columnar with per-chunk dictionaries:
//
//	uvarint(nEvents)
//	thread dict:   uvarint(count) ‖ varint(tid)…        first-use order
//	variable dict: uvarint(count) ‖ uvarint(addr)…      access addresses
//	lock dict:     uvarint(count) ‖ uvarint(addr)…      acquire/release
//	location dict: uvarint(count) ‖ uvarint(loc)…
//	ops column:    nEvents raw bytes                    decoded first
//	tid column:    uvarint(thread-dict index) per event
//	addr column:   access → var-dict index, acquire/release → lock-dict
//	               index, other ops → raw uvarint address
//	value column:  varint per event
//	loc column:    uvarint(loc-dict index) per event
//
// Every chunk except the last holds exactly chunkSize events, so random
// access to event i touches only chunk i/chunkSize. The footer's chunk
// directory carries each chunk's byte offset, length, event count and a
// min/max block (thread, variable and lock ranges) so future index scans
// can skip chunks without decoding them.
//
// The metadata block reuses the legacy per-section element encodings
// (notify links, volatile addresses, initial values, location names) —
// it is small (alphabet-sized, not trace-sized) and decoded eagerly.
//
// The footer is:
//
//	uvarint(totalEvents) ‖ uvarint(chunkSize) ‖ uvarint(chunkCount)
//	directory entry per chunk:
//	  uvarint(offset) ‖ uvarint(byteLen) ‖ uvarint(events) ‖
//	  varint(minTid) ‖ varint(maxTid) ‖
//	  uvarint(minVar) ‖ uvarint(maxVar) ‖
//	  uvarint(minLock) ‖ uvarint(maxLock) ‖
//	  uvarint(crc32c(chunk bytes))                 (added in version 2)
//	uvarint(metaOff) ‖ uvarint(metaLen)
//	stats: uvarint ×7 (threads, events, accesses, syncs, branches,
//	       locks, shared) — the Table 1 columns, precomputed at write
//	       time so readers never scan the file for Stats()
//	contentHash[32]
//
// contentHash is the SHA-256 of the trace's canonical legacy encoding
// (the exact byte stream tracefile.Encode produces), NOT of this file's
// bytes. journal.TraceFingerprint hashes the same stream, so a journal
// written against a chunked trace binds to the identical fingerprint as
// one written against the legacy file — resume, crash recovery and the
// fleet's merge all work across formats unchanged.
//
// The 12-byte tail is fixed-size so the footer can be located from the
// end of the file without any forward scan:
//
//	uint32le(footerLen) ‖ uint32le(crc32c(footer)) ‖ "RVC2"
//
// Like the legacy decoder, Open/NewReader are safe on hostile input:
// every count, offset and dictionary index is validated before it
// drives an allocation or a slice access, and corruption yields
// ErrFormat in bounded memory, never a panic or an OOM (see
// harden_test.go and FuzzChunkDecode).
package tracev2

import (
	"errors"
	"fmt"
)

// Magic and Version identify the chunked format. The magic constant is
// mirrored as tracefile.ChunkedMagic so format sniffing needs only the
// tracefile package. Version 2 added a crc32c per directory entry,
// covering the chunk's encoded bytes: chunk data sits outside the
// footer checksum, so without it a torn or bit-flipped chunk is only
// caught if it happens to break structural validation. Version 1 files
// are rejected as ErrFormat (regenerate with Convert — the format is a
// cache of the canonical legacy encoding, never the source of truth).
const (
	Magic   = "RVC2"
	Version = 2
)

// DefaultChunkSize is the event capacity of a chunk when the writer is
// not told otherwise: large enough that dictionary amortisation wins,
// small enough that one decoded chunk (~24 B/event in memory) stays a
// couple of MB.
const DefaultChunkSize = 1 << 16

// tailLen is the fixed byte length of the end-of-file tail:
// uint32 footer length, uint32 footer CRC, 4-byte magic.
const tailLen = 12

// headerLen is the fixed byte length of the file header: 4-byte magic
// plus the single-byte uvarint of version 1.
const headerLen = len(Magic) + 1

// Decode limits, in the spirit of tracefile's: hostile inputs can claim
// arbitrary counts in a few bytes, so every count is validated before
// it drives an allocation or a long loop. The caps sit far above
// anything the writer produces.
const (
	// maxEvents bounds the footer's declared total event count.
	maxEvents = 1 << 31
	// maxChunkSize bounds the declared per-chunk event capacity (and so
	// the decode buffer one chunk can demand).
	maxChunkSize = 1 << 24
	// maxChunks bounds the chunk directory length.
	maxChunks = 1 << 24
	// maxMeta bounds each metadata section's element count.
	maxMeta = 1 << 24
	// maxNameLen bounds one location name's byte length.
	maxNameLen = 1 << 16
)

// ErrFormat reports a malformed chunked trace file.
var ErrFormat = errors.New("tracev2: malformed input")

// ChunkError locates a chunk-level decode failure: which directory
// entry failed and where its bytes start in the file. Chunk decoding is
// lazy, so corruption inside a chunk only surfaces when that chunk is
// first touched — long after Open succeeded — and the caller that hits
// it (a fleet worker analysing a shipped trace, say) needs to report
// *which* chunk of the file was torn, not just that some byte somewhere
// was. It wraps the underlying cause, so errors.Is(err, ErrFormat)
// still matches.
type ChunkError struct {
	// Chunk is the failing chunk's directory index.
	Chunk int
	// Offset is the byte offset of the chunk's encoding in the file.
	Offset int64
	// Err is the underlying failure (a CRC mismatch or a structural
	// validation error, both wrapping ErrFormat).
	Err error
}

func (e *ChunkError) Error() string {
	return fmt.Sprintf("tracev2: chunk %d at offset %d: %v", e.Chunk, e.Offset, e.Err)
}

func (e *ChunkError) Unwrap() error { return e.Err }
