package tracev2

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"repro/internal/race"
	"repro/internal/tracefile"
	"repro/trace"
)

// MemReader adapts an already-materialised *trace.Trace to the Reader
// access surface (NumEvents/Stats/ContentHash/LocName/Event/Windows/
// ReadAll), so the analysis driver runs identically whether the trace
// came from a chunked file or a legacy decode. Windows is race.EachWindow,
// and the content hash streams the canonical legacy encoding through
// SHA-256 — the same value a chunked file's footer carries for the same
// trace. Stats and the hash are computed on first use, so a run that
// never journals never encodes the trace.
type MemReader struct {
	tr *trace.Trace

	statsOnce sync.Once
	stats     trace.Stats
	hashOnce  sync.Once
	hash      [sha256.Size]byte
}

// FromTrace wraps tr. The trace must not be mutated afterwards.
func FromTrace(tr *trace.Trace) *MemReader { return &MemReader{tr: tr} }

// NumEvents returns the trace's event count.
func (m *MemReader) NumEvents() int { return m.tr.Len() }

// Stats returns the trace's summary metrics.
func (m *MemReader) Stats() trace.Stats {
	m.statsOnce.Do(func() { m.stats = m.tr.ComputeStats() })
	return m.stats
}

// ContentHash returns the canonical-encoding SHA-256, matching
// journal.TraceFingerprint.
func (m *MemReader) ContentHash() [sha256.Size]byte {
	m.hashOnce.Do(func() {
		h := sha256.New()
		// A hash never fails a write, so neither can the encoding.
		_ = tracefile.Encode(h, m.tr)
		h.Sum(m.hash[:0])
	})
	return m.hash
}

// LocName renders a program location.
func (m *MemReader) LocName(l trace.Loc) string { return m.tr.LocName(l) }

// Event returns the event at whole-trace index i.
func (m *MemReader) Event(i int) (trace.Event, error) {
	if i < 0 || i >= m.tr.Len() {
		return trace.Event{}, fmt.Errorf("tracev2: event index %d out of range [0,%d)", i, m.tr.Len())
	}
	return m.tr.Event(i), nil
}

// Windows invokes f per analysis window (race.EachWindow).
func (m *MemReader) Windows(size int, f func(w *trace.Trace, widx, offset int) error) error {
	return race.EachWindow(m.tr, size, f)
}

// ReadAll returns the wrapped trace.
func (m *MemReader) ReadAll() (*trace.Trace, error) { return m.tr, nil }
