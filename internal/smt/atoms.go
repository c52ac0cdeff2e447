package smt

import (
	"slices"

	"repro/internal/sat"
)

// atomTable interns atoms. Its index is an open-addressing hash table with
// linear probing from each atom's hashed home slot; a slot holds the
// atom's 32-bit hash and its variable, and the atom itself sits in the
// interning log, so a probe compares 8-byte slots and reads an atom only
// when the hashes match. Deletion shifts the entries after the deleted
// one back towards their homes instead of leaving tombstones, so a table
// that rolls back thousands of atoms per query probes no longer for it.
// Nothing in it is a Go pointer, so the collector never scans it.
type atomTable struct {
	slots []atomSlot // len is zero or a power of two
	shift uint       // 32 − log2(len(slots)): home = fp >> shift
	// log lists the interned atoms in order, and idx gives each SAT
	// variable its atom's position in log plus one (0 for the variables
	// that are not atoms).
	log []Atom
	idx []int32
}

// atomSlot is one table entry: its atom's hash, and its variable plus
// one (zero marks an empty slot).
type atomSlot struct {
	fp  uint32
	vp1 int32
}

// hash mixes the packed (X, Y, C) of a into 32 bits.
func (a Atom) hash() uint32 {
	h := uint64(uint32(a.X))<<32 | uint64(uint32(a.Y))
	h = (h ^ uint64(a.C)*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	h ^= h >> 31
	return uint32(h * 0x94d049bb133111eb >> 32)
}

// atomOf returns the atom of v, which must be interned.
func (t *atomTable) atomOf(v sat.Var) Atom { return t.log[t.idx[v]-1] }

// interned reports whether v is an interned atom's variable.
func (t *atomTable) interned(v sat.Var) bool { return int(v) < len(t.idx) && t.idx[v] != 0 }

// find returns the index of the slot holding a, whose hash is fp, or of
// the empty slot where a belongs.
func (t *atomTable) find(a Atom, fp uint32) int {
	mask := len(t.slots) - 1
	for i := int(fp >> t.shift); ; i = (i + 1) & mask {
		sl := t.slots[i]
		if sl.vp1 == 0 || sl.fp == fp && t.atomOf(sat.Var(sl.vp1-1)) == a {
			return i
		}
	}
}

// intern returns a's variable if a is interned; otherwise it interns a
// as variable v and returns v with found false. The table doubles once it
// would be more than three quarters full.
func (t *atomTable) intern(a Atom, v sat.Var) (_ sat.Var, found bool) {
	if 4*(len(t.log)+1) > 3*len(t.slots) {
		t.grow()
	}
	fp := a.hash()
	sl := &t.slots[t.find(a, fp)]
	if sl.vp1 != 0 {
		return sat.Var(sl.vp1 - 1), true
	}
	*sl = atomSlot{fp: fp, vp1: int32(v) + 1}
	t.log = append(grow(t.log, 1), a)
	if n := int(v) + 1 - len(t.idx); n > 0 {
		t.idx = append(grow(t.idx, n), make([]int32, n)...)
	}
	t.idx[v] = int32(len(t.log))
	return v, false
}

func (t *atomTable) grow() {
	old := t.slots
	size := max(8, 2*len(old))
	t.slots = make([]atomSlot, size)
	t.shift = 32
	for ; size > 1; size >>= 1 {
		t.shift--
	}
	mask := len(t.slots) - 1
	for _, sl := range old {
		if sl.vp1 == 0 {
			continue
		}
		i := int(sl.fp >> t.shift)
		for t.slots[i].vp1 != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = sl
	}
}

// reset deletes every atom but keeps the table's size, so a table
// reused for a new formula does not grow again through the sizes it has
// already reached.
func (t *atomTable) reset() {
	clear(t.slots)
	t.log = t.log[:0]
	t.idx = t.idx[:0]
}

// truncate deletes the atoms interned after the first n, and the
// variables from nVars on.
func (t *atomTable) truncate(n, nVars int) {
	for _, a := range t.log[n:] {
		t.delete(a)
	}
	t.log = t.log[:n]
	t.idx = t.idx[:min(len(t.idx), nVars)]
}

// delete removes a, which must be interned. Each entry after it in the
// probe run moves back into the gap unless the gap lies before its home
// (cyclically), where a lookup would no longer reach it.
func (t *atomTable) delete(a Atom) {
	mask := len(t.slots) - 1
	i := t.find(a, a.hash())
	if t.slots[i].vp1 == 0 {
		panic("smt: deleting an atom that is not interned")
	}
	for j := (i + 1) & mask; t.slots[j].vp1 != 0; j = (j + 1) & mask {
		// The entry at j may fill the gap at i only if its home is not
		// in (i, j], cyclically.
		if h := int(t.slots[j].fp >> t.shift); (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = atomSlot{}
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it must grow: the log and the index grow from empty in
// every window's solver, and append's growth by a quarter for large
// slices would copy them about five times over (as sat's arrays).
func grow[T any](s []T, n int) []T {
	if n > cap(s)-len(s) {
		return slices.Grow(s, len(s)+n)
	}
	return s
}
