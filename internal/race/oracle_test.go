package race

import (
	"sort"

	"repro/trace"
)

// EnumerateCOPs is the test oracle of EachCOP, Accesses.Count and the
// quick-check sweep (lockset.Sets.Survivors): it materialises every
// conflicting operation pair of tr, grouped by location and then sorted
// by (A, B). Accesses to volatile locations are skipped.
func EnumerateCOPs(tr *trace.Trace) []COP {
	byAddr := make(map[trace.Addr][]int)
	for i := 0; i < tr.Len(); i++ {
		e := tr.Event(i)
		if e.Op.IsAccess() && !tr.Volatile(e.Addr) {
			byAddr[e.Addr] = append(byAddr[e.Addr], i)
		}
	}
	addrs := make([]trace.Addr, 0, len(byAddr))
	for a := range byAddr {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	var out []COP
	for _, a := range addrs {
		idxs := byAddr[a]
		for i := 0; i < len(idxs); i++ {
			ei := tr.Event(idxs[i])
			for j := i + 1; j < len(idxs); j++ {
				ej := tr.Event(idxs[j])
				if ei.ConflictsWith(ej) {
					out = append(out, COP{A: idxs[i], B: idxs[j]})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// CollectCOPs gathers EachCOP's stream into a slice.
func CollectCOPs(tr *trace.Trace) []COP {
	var out []COP
	EachCOP(tr, func(c COP) { out = append(out, c) })
	return out
}
