package tracev2

import (
	"repro/trace"
)

// chunkCursor decodes chunks sequentially into one reusable buffer —
// the window iterator's read path, kept separate from the random-access
// cache so a linear scan never evicts the renderer's working set.
type chunkCursor struct {
	r      *Reader
	idx    int
	events []trace.Event
}

// fill copies events [lo, lo+len(dst)) of the trace into dst.
func (cu *chunkCursor) fill(dst []trace.Event, lo int) error {
	pos := lo
	for len(dst) > 0 {
		c := pos / cu.r.chunkSize
		if cu.idx != c {
			ev, err := cu.r.decodeChunk(c, cu.events[:0])
			if err != nil {
				return err
			}
			cu.idx, cu.events = c, ev
		}
		off := pos - c*cu.r.chunkSize
		n := copy(dst, cu.events[off:])
		dst = dst[n:]
		pos += n
	}
	return nil
}

// windowLinks returns the notify links falling entirely inside
// [lo, hi), rebased to window-local indices — the Slice rule.
func (r *Reader) windowLinks(lo, hi int) []trace.NotifyLink {
	var out []trace.NotifyLink
	for _, ln := range r.links {
		if ln.Notify >= lo && ln.Notify < hi &&
			ln.Release >= lo && ln.Release < hi &&
			ln.Acquire >= lo && ln.Acquire < hi {
			out = append(out, trace.NotifyLink{
				Notify:  ln.Notify - lo,
				Release: ln.Release - lo,
				Acquire: ln.Acquire - lo,
			})
		}
	}
	return out
}

// Windows invokes f for each analysis window in trace order,
// replicating race.EachWindow semantics exactly — same window
// boundaries, same carried last-write installation into each window's
// initial-value map, same notify-link filtering — while holding only
// O(window + chunk) events live. Each window is a fresh *trace.Trace
// over its own event slice (the volatile and location-name maps are
// shared across windows by reference, like Slice); f owns the window
// for the duration of the call, and widx/offset give its index and
// whole-trace event offset.
func (r *Reader) Windows(size int, f func(w *trace.Trace, widx, offset int) error) error {
	cu := &chunkCursor{r: r, idx: -1}
	if size <= 0 || r.total <= size {
		w, err := r.buildWindow(cu, 0, r.total, nil)
		if err != nil {
			return err
		}
		return f(w, 0, 0)
	}
	carried := make(map[trace.Addr]int64)
	widx := 0
	for lo := 0; lo < r.total; lo += size {
		hi := lo + size
		if hi > r.total {
			hi = r.total
		}
		w, err := r.buildWindow(cu, lo, hi, carried)
		if err != nil {
			return err
		}
		if err := f(w, widx, lo); err != nil {
			return err
		}
		// The next window inherits this one's final write per address —
		// EachWindow's carried map, updated after the window is cut.
		for _, e := range w.Events() {
			if e.Op == trace.OpWrite {
				carried[e.Addr] = e.Value
			}
		}
		widx++
	}
	return nil
}

// buildWindow materialises events [lo, hi) as a window trace whose
// initial-value map is the declared initials overlaid with the carried
// last-writes (carried wins, matching Slice-copy-then-SetInitial
// order).
func (r *Reader) buildWindow(cu *chunkCursor, lo, hi int, carried map[trace.Addr]int64) (*trace.Trace, error) {
	events := make([]trace.Event, hi-lo)
	if err := cu.fill(events, lo); err != nil {
		return nil, err
	}
	initial := make(map[trace.Addr]int64, len(r.initials)+len(carried))
	for a, v := range r.initials {
		initial[a] = v
	}
	for a, v := range carried {
		initial[a] = v
	}
	return trace.FromParts(events, r.windowLinks(lo, hi), r.volatiles, initial, r.names), nil
}

// ReadAll materialises the whole trace as a *trace.Trace — the bridge
// for whole-trace consumers (the baseline algorithms, witness
// validation) that cannot yet iterate windows. Costs O(trace) memory by
// definition; the detector's out-of-core path never calls it.
func (r *Reader) ReadAll() (*trace.Trace, error) {
	tr := trace.New(r.total)
	cu := &chunkCursor{r: r, idx: -1}
	for c := range r.dir {
		ev, err := r.decodeChunk(c, cu.events[:0])
		if err != nil {
			return nil, err
		}
		cu.events = ev
		for _, e := range ev {
			tr.Append(e)
		}
	}
	for _, ln := range r.links {
		tr.AddNotifyLink(ln.Notify, ln.Release, ln.Acquire)
	}
	for a := range r.volatiles {
		tr.SetVolatile(a)
	}
	for a, v := range r.initials {
		tr.SetInitial(a, v)
	}
	for l, name := range r.names {
		tr.NameLoc(l, name)
	}
	return tr, nil
}
