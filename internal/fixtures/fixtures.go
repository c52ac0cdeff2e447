// Package fixtures builds the paper's example traces, used as ground truth
// across the detector test suites:
//
//   - Figure1 / Figure 4: the motivating program whose race (3,10) only a
//     control-flow-aware detector finds, whose pair (4,8) is excluded by
//     lock mutual exclusion and (12,15) by the control flow of the branch
//     at line 11.
//   - Figure1Switched: the variant discussed in Section 1 (lock acquired
//     before the fork) where (3,10) is no longer a race although the
//     lockset hybrid still reports it.
//   - Figure2: the volatile example whose two cases produce identical
//     read/write traces distinguishable only by branch events.
//
// Location IDs follow the paper's line numbers, so expected races can be
// written as signature pairs of line numbers.
package fixtures

import "repro/trace"

// Variable and lock identifiers of the Figure 1 program.
const (
	X trace.Addr = 1
	Y trace.Addr = 2
	Z trace.Addr = 3
	L trace.Addr = 100
)

// Figure1 returns the trace of Figure 4 (an execution of the Figure 1
// program in line-number order). Event locations are the paper's line
// numbers; thread t1 = 1, t2 = 2.
func Figure1() *trace.Trace {
	b := trace.NewBuilder()
	b.At(1).Fork(1, 2)      // 1.  fork(t1,t2)
	b.At(2).Acquire(1, L)   // 2.  acquire(t1,l)
	b.At(3).Write(1, X, 1)  // 3.  write(t1,x,1)
	b.At(4).Write(1, Y, 1)  // 4.  write(t1,y,1)
	b.At(5).Release(1, L)   // 5.  release(t1,l)
	b.At(6).Begin(2)        // 6.  begin(t2)
	b.At(7).Acquire(2, L)   // 7.  acquire(t2,l)
	b.At(8).Read(2, Y)      // 8.  read(t2,y,1)
	b.At(9).Release(2, L)   // 9.  release(t2,l)
	b.At(10).Read(2, X)     // 10. read(t2,x,1)
	b.At(11).Branch(2)      // 11. branch(t2): if (r1 == r2)
	b.At(12).Write(2, Z, 1) // 12. write(t2,z,1)
	b.At(13).End(2)         // 13. end(t2)
	b.At(14).Join(1, 2)     // 14. join(t1,t2)
	b.At(15).Read(1, Z)     // 15. read(t1,z,1)
	b.At(16).Branch(1)      // 16. branch(t1): if (r3 == 0)
	return b.Trace()
}

// Figure1Indices names the event indices of Figure1's trace by their paper
// line numbers (line n is event n−1).
func Figure1Indices() (writeX, readX, writeY, readY, writeZ, readZ int) {
	return 2, 9, 3, 7, 11, 14
}

// Figure1Switched returns the Section 1 variant with lines 1 and 2 swapped
// (the lock acquired before the fork), for which (3,10) is not a race: t2
// begins only after t1's acquire, so t2's critical section — and with it
// everything after it, including line 10 — is forced after t1's release,
// which follows the write at line 3.
func Figure1Switched() *trace.Trace {
	b := trace.NewBuilder()
	b.At(2).Acquire(1, L)   // 2.  acquire(t1,l)   (switched)
	b.At(1).Fork(1, 2)      // 1.  fork(t1,t2)     (switched)
	b.At(3).Write(1, X, 1)  // 3.
	b.At(4).Write(1, Y, 1)  // 4.
	b.At(5).Release(1, L)   // 5.
	b.At(6).Begin(2)        // 6.
	b.At(7).Acquire(2, L)   // 7.
	b.At(8).Read(2, Y)      // 8.
	b.At(9).Release(2, L)   // 9.
	b.At(10).Read(2, X)     // 10.
	b.At(11).Branch(2)      // 11.
	b.At(12).Write(2, Z, 1) // 12.
	b.At(13).End(2)         // 13.
	b.At(14).Join(1, 2)     // 14.
	b.At(15).Read(1, Z)     // 15.
	b.At(16).Branch(1)      // 16.
	return b.Trace()
}

// Figure2 returns the volatile example of Figure 2. With branchCase false
// it models case ¿ (r1 = y: a plain read, no control dependence), in which
// (1,4) is a race on x; with true it models case ¡ (while(y == 0)), where
// the branch after the read of y makes line 4 control-dependent and (1,4)
// is not a race. The read/write projections of the two traces are
// identical — only the branch event differs.
func Figure2(branchCase bool) *trace.Trace {
	b := trace.NewBuilder()
	b.Volatile(Y)
	b.At(1).Write(1, X, 1) // 1. x = 1
	b.At(2).Write(1, Y, 1) // 2. y = 1 (volatile)
	b.At(3).Read(2, Y)     // 3. reads y == 1
	if branchCase {
		b.At(3).Branch(2) // the while's exit test
	}
	b.At(4).Read(2, X) // 4. r2 = x
	return b.Trace()
}

// Figure2Indices returns the indices of the write to x and the read of x
// in a Figure2 trace.
func Figure2Indices(branchCase bool) (writeX, readX int) {
	if branchCase {
		return 0, 4
	}
	return 0, 3
}

// RecurringBlock is the length of one RecurringRaces block; with it as
// the window size, each block is one analysis window.
const RecurringBlock = 24

// RecurringRaces returns a trace of the given number of blocks in which
// the same three location pairs race in every block — the case where a
// run that carries signature verdicts across windows issues fewer solver
// queries than one that analyses each window in isolation, while both
// report the same races. Per block:
//
//   - (1,2): a plain write/read race, confirmed by the SHB triage rung;
//   - (3,4): a write/write race;
//   - (5,6): the Figure 1 race — t2's critical section must move before
//     t1's, which only the SMT tier can justify;
//
// then branches pad the block to RecurringBlock events.
func RecurringRaces(blocks int) *trace.Trace {
	const x, y, z, g, l trace.Addr = 1, 2, 3, 4, 100
	b := trace.NewBuilder()
	for i := 0; i < blocks; i++ {
		b.At(1).Write(1, x, 1)
		b.At(2).ReadV(2, x, 1)
		b.At(3).Write(1, y, 2)
		b.At(4).Write(2, y, 2)
		b.At(0).Acquire(1, l)
		b.At(5).Write(1, z, 1)
		b.At(0).Write(1, g, 1)
		b.At(0).Release(1, l)
		b.At(0).Acquire(2, l)
		b.At(0).Read(2, g)
		b.At(0).Release(2, l)
		b.At(6).Read(2, z)
		for j := 0; j < 6; j++ {
			b.At(7).Branch(1)
			b.At(8).Branch(2)
		}
	}
	return b.Trace()
}

// TierRaces returns a trace of the given number of 8-event blocks, each
// holding one race at block-unique locations that the named triage tier
// ("shb", "syncp" or "smt") is the cheapest to prove, padded with a third
// thread's branches:
//
//   - shb: a plain write/read race;
//   - syncp: lock-ordered but non-conflicting critical sections, which
//     only a witness that swaps them shows racing;
//   - smt: a volatile flag orders the pair for every rung, and only
//     the solver, reading the flag's value abstractly, proves the race.
func TierRaces(tier string, blocks int) *trace.Trace {
	const l trace.Addr = 1
	b := trace.NewBuilder()
	for i := 0; i < blocks; i++ {
		loc := trace.Loc(100 * (i + 1))
		x, u := trace.Addr(10+2*i), trace.Addr(11+2*i)
		n := b.Mark()
		switch tier {
		case "shb":
			b.At(loc+1).Write(1, x, 1)
			b.At(loc+2).Read(2, x)
		case "syncp":
			b.Acquire(1, l)
			b.At(loc+1).Write(1, x, 1)
			b.Release(1, l)
			b.Acquire(2, l)
			b.At(loc+3).Write(2, u, 1)
			b.Release(2, l)
			b.At(loc+2).Read(2, x)
		default:
			b.Volatile(u)
			b.At(loc+1).Write(1, x, 1)
			b.At(loc+3).Write(1, u, 1)
			b.At(loc+4).ReadV(2, u, 1)
			b.At(loc+2).Read(2, x)
		}
		for b.Mark()-n < 8 {
			b.At(loc + 9).Branch(3)
		}
	}
	return b.Trace()
}
