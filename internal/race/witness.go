package race

import (
	"fmt"

	"repro/trace"
)

// ValidateWitness checks that a witness schedule is a legal reordered
// prefix demonstrating the race (a, b): the two racing events are the last
// two (in either order), and the whole schedule is a feasible prefix of
// the window starting at event from (ValidatePrefix). Read values are not
// checked: witness traces are data-abstract except for the reads the
// encoding constrained (the paper's symbolic-value traces of
// Definition 2).
//
// It returns nil if the witness is valid. The function is exported for the
// test suites and the CLI's witness printer.
func ValidateWitness(tr *trace.Trace, witness []int, a, b, from int) error {
	n := len(witness)
	if n < 2 {
		return fmt.Errorf("witness has %d events, want ≥ 2", n)
	}
	last, prev := witness[n-1], witness[n-2]
	if !(prev == a && last == b) && !(prev == b && last == a) {
		return fmt.Errorf("witness does not end with the racing pair (%d,%d): got …%d,%d",
			a, b, prev, last)
	}
	_, err := ValidatePrefix(tr, witness, from)
	return err
}

// WindowStart is the index of the first event of the window (EachWindow)
// that holds event idx, for the validators' from: a witness reorders only
// the events of its finding's window.
func WindowStart(idx, size int) int {
	if size <= 0 {
		return 0
	}
	return idx / size * size
}

// ValidatePrefix checks that a schedule is a feasible prefix of a
// reordering of the window of tr that starts at event from (0 for a
// whole-trace analysis): every event is in the window and occurs once,
// per-thread program order is preserved and each thread's scheduled
// events are a prefix of its events in the window, fork, join and
// wait/notify must-orders hold, and lock mutual exclusion is respected
// (locks may be held at the end). Events before from are the window's
// past, not part of the schedule. It returns each scheduled event's
// position, for the end checks of the witness validators (races here,
// deadlocks and atomicity violations in their packages).
func ValidatePrefix(tr *trace.Trace, witness []int, from int) (map[int]int, error) {
	pos := make(map[int]int, len(witness))
	for p, idx := range witness {
		if idx < from || idx >= tr.Len() {
			return nil, fmt.Errorf("witness index %d outside the window [%d, %d)", idx, from, tr.Len())
		}
		if q, dup := pos[idx]; dup {
			return nil, fmt.Errorf("event %d appears twice (positions %d and %d)", idx, q, p)
		}
		pos[idx] = p
	}

	// The window's events per thread, and the threads forked in it.
	perThread := make(map[trace.TID][]int)
	forkedHere := make(map[trace.TID]bool)
	for i := from; i < tr.Len(); i++ {
		e := tr.Event(i)
		perThread[e.Tid] = append(perThread[e.Tid], i)
		if e.Op == trace.OpFork {
			forkedHere[e.Child()] = true
		}
	}
	// Program order and its downward closure: the k-th scheduled event of
	// a thread is the thread's k-th event in the window.
	counted := make(map[trace.TID]int)
	for p, idx := range witness {
		t := tr.Event(idx).Tid
		if want := perThread[t][counted[t]]; idx != want {
			return nil, fmt.Errorf("thread t%d: event %d at position %d, want its event %d first (program order)", t, idx, p, want)
		}
		counted[t]++
	}
	// Wait/notify: a scheduled notify follows the release of the wait it
	// woke, and precedes the wake-up acquire, when those are scheduled.
	for _, ln := range tr.NotifyLinks() {
		pn, ok := pos[ln.Notify]
		if !ok {
			continue
		}
		if pr, ok := pos[ln.Release]; ok && pr > pn {
			return nil, fmt.Errorf("notify %d scheduled before the release %d of the wait it woke", ln.Notify, ln.Release)
		}
		if pa, ok := pos[ln.Acquire]; ok && pa < pn {
			return nil, fmt.Errorf("wake-up acquire %d scheduled before its notify %d", ln.Acquire, ln.Notify)
		}
	}

	// Fork/join and lock discipline along the witness order.
	forked := make(map[trace.TID]bool)
	holder := make(map[trace.Addr]trace.TID)
	held := make(map[trace.Addr]bool)
	acquired := make(map[trace.TID]map[trace.Addr]bool) // per thread, in the window
	for p, idx := range witness {
		e := tr.Event(idx)
		switch e.Op {
		case trace.OpFork:
			forked[e.Child()] = true
		case trace.OpBegin:
			// A begin needs its fork scheduled first, unless the thread
			// was not forked in the window (initial thread, or a fork
			// before the window).
			if forkedHere[e.Tid] && !forked[e.Tid] {
				return nil, fmt.Errorf("begin(t%d) scheduled before its fork", e.Tid)
			}
		case trace.OpJoin:
			// A join needs the child's last event in the window first.
			if evs := perThread[e.Child()]; len(evs) > 0 && evs[len(evs)-1] < idx {
				if q, ok := pos[evs[len(evs)-1]]; !ok || q > p {
					return nil, fmt.Errorf("join(t%d) scheduled before the thread's last event %d", e.Child(), evs[len(evs)-1])
				}
			}
		case trace.OpAcquire:
			if held[e.Addr] {
				return nil, fmt.Errorf("lock l%d acquired while held by t%d (witness)",
					e.Addr, holder[e.Addr])
			}
			held[e.Addr] = true
			holder[e.Addr] = e.Tid
			if acquired[e.Tid] == nil {
				acquired[e.Tid] = make(map[trace.Addr]bool)
			}
			acquired[e.Tid][e.Addr] = true
		case trace.OpRelease:
			// A release without a witnessed acquire is legal only if the
			// acquire fell before the window (scheduled events are a
			// per-thread prefix, so an acquire in it is scheduled).
			if (!held[e.Addr] || holder[e.Addr] != e.Tid) && acquired[e.Tid][e.Addr] {
				return nil, fmt.Errorf("release of l%d by t%d without holding it (witness)",
					e.Addr, e.Tid)
			}
			held[e.Addr] = false
		}
	}
	return pos, nil
}
