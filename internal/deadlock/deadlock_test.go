package deadlock

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/race"
	"repro/minilang"
	"repro/trace"
)

// detect runs deadlock detection over tr through the core pipeline and
// checks every witness it returns against the finding's window.
func detect(t *testing.T, tr *trace.Trace, opt core.Options) race.ResultOf[Deadlock] {
	t.Helper()
	res := core.DetectKind(context.Background(), Kind, opt, tr)
	for _, d := range res.Races {
		if !opt.Witness {
			continue
		}
		held := [2]int{d.HeldAcquire1, d.HeldAcquire2}
		blocked := [2]int{d.BlockedAcquire1, d.BlockedAcquire2}
		from := race.WindowStart(d.HeldAcquire1, opt.WindowSize)
		if err := ValidateWitness(tr, d.Witness, held, blocked, from); err != nil {
			t.Errorf("%s: witness %v: %v", d.Describe(tr), d.Witness, err)
		}
	}
	return res
}

const (
	a trace.Addr = 100
	b trace.Addr = 101
	g trace.Addr = 102
)

// abba builds the classic inversion, observed without deadlocking (t1 runs
// completely before t2).
func abba() *trace.Trace {
	bld := trace.NewBuilder()
	bld.At(1).Acquire(1, a)
	bld.At(2).Acquire(1, b)
	bld.At(3).Release(1, b)
	bld.At(4).Release(1, a)
	bld.At(5).Acquire(2, b)
	bld.At(6).Acquire(2, a)
	bld.At(7).Release(2, a)
	bld.At(8).Release(2, b)
	return bld.Trace()
}

func TestClassicInversionPredicted(t *testing.T) {
	tr := abba()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	res := detect(t, tr, core.Options{Witness: true})
	if len(res.Races) != 1 {
		t.Fatalf("deadlocks = %d, want 1 (candidates %d)", len(res.Races), res.COPsChecked)
	}
	d := res.Races[0]
	if d.HeldAcquire1 != 0 || d.BlockedAcquire1 != 1 ||
		d.HeldAcquire2 != 4 || d.BlockedAcquire2 != 5 {
		t.Errorf("deadlock sites = %+v", d)
	}
	// The witness prefix must contain both held acquires and neither
	// blocked acquire nor any release of the held locks.
	inW := map[int]bool{}
	for _, e := range d.Witness {
		inW[e] = true
	}
	if !inW[0] || !inW[4] {
		t.Errorf("witness must contain both held acquires: %v", d.Witness)
	}
	if inW[1] || inW[5] || inW[3] || inW[7] {
		t.Errorf("witness must stop before the blocked acquires/releases: %v", d.Witness)
	}
	if got := d.Describe(tr); got == "" {
		t.Error("Describe must render")
	}
}

func TestGateLockPreventsDeadlock(t *testing.T) {
	// Both inversions guarded by a common gate: the classic lockset-style
	// false positive that the constraint-based detector must reject.
	bld := trace.NewBuilder()
	bld.Acquire(1, g)
	bld.Acquire(1, a)
	bld.Acquire(1, b)
	bld.Release(1, b)
	bld.Release(1, a)
	bld.Release(1, g)
	bld.Acquire(2, g)
	bld.Acquire(2, b)
	bld.Acquire(2, a)
	bld.Release(2, a)
	bld.Release(2, b)
	bld.Release(2, g)
	tr := bld.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	res := detect(t, tr, core.Options{})
	if len(res.Races) != 0 {
		t.Fatalf("gate-locked inversion must not deadlock, got %+v", res.Races)
	}
	if res.COPsChecked == 0 {
		t.Error("the inversion candidates must at least be examined")
	}
}

func TestSameOrderNoCandidates(t *testing.T) {
	bld := trace.NewBuilder()
	for _, tid := range []trace.TID{1, 2} {
		bld.Acquire(tid, a)
		bld.Acquire(tid, b)
		bld.Release(tid, b)
		bld.Release(tid, a)
	}
	res := detect(t, bld.Trace(), core.Options{})
	if len(res.Races) != 0 {
		t.Fatalf("consistent lock order must not deadlock, got %+v", res.Races)
	}
}

func TestForkOrderPreventsDeadlock(t *testing.T) {
	// t1's nested section completes before t2 is even forked: the
	// must-happen-before edges make the deadlocked cut unreachable.
	bld := trace.NewBuilder()
	bld.Acquire(1, a)
	bld.Acquire(1, b)
	bld.Release(1, b)
	bld.Release(1, a)
	bld.Fork(1, 2)
	bld.Begin(2)
	bld.Acquire(2, b)
	bld.Acquire(2, a)
	bld.Release(2, a)
	bld.Release(2, b)
	tr := bld.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	res := detect(t, tr, core.Options{})
	if len(res.Races) != 0 {
		t.Fatalf("fork-ordered inversion must not deadlock, got %+v", res.Races)
	}
}

func TestBranchGuardPreventsDeadlock(t *testing.T) {
	// t2's inner acquire is guarded by a branch that requires x == 1,
	// written by t1 only after releasing both locks: at any deadlocked cut
	// t1 still holds lock a, so the guard's read can never be satisfied.
	bld := trace.NewBuilder()
	bld.At(1).Acquire(1, a)
	bld.At(2).Acquire(1, b)
	bld.At(3).Release(1, b)
	bld.At(4).Release(1, a)
	bld.At(5).Write(1, 5, 1)
	bld.At(6).ReadV(2, 5, 1)
	bld.At(7).Branch(2)
	bld.At(8).Acquire(2, b)
	bld.At(9).Acquire(2, a)
	bld.At(10).Release(2, a)
	bld.At(11).Release(2, b)
	tr := bld.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	res := detect(t, tr, core.Options{})
	if len(res.Races) != 0 {
		t.Fatalf("branch-guarded inversion must not deadlock, got %+v", res.Races)
	}

	// Control: without the branch, the same trace deadlocks (the read may
	// data-abstractly return anything).
	bld2 := trace.NewBuilder()
	bld2.At(1).Acquire(1, a)
	bld2.At(2).Acquire(1, b)
	bld2.At(3).Release(1, b)
	bld2.At(4).Release(1, a)
	bld2.At(5).Write(1, 5, 1)
	bld2.At(6).ReadV(2, 5, 1)
	bld2.At(8).Acquire(2, b)
	bld2.At(9).Acquire(2, a)
	bld2.At(10).Release(2, a)
	bld2.At(11).Release(2, b)
	res2 := detect(t, bld2.Trace(), core.Options{})
	if len(res2.Races) != 1 {
		t.Fatalf("unguarded control must deadlock, got %+v", res2.Races)
	}
}

func TestDiningPhilosophersFromMinilang(t *testing.T) {
	// Two philosophers picking up forks in opposite order; a sequential
	// run completes without deadlocking, and the detector predicts the
	// deadlock from that innocent trace.
	prog, err := minilang.Compile(`lock forkA, forkB;
shared meals;
thread table {
  fork p1;
  fork p2;
  join p1;
  join p2;
}
thread p1 {
  lock forkA;
  lock forkB;
  meals = meals + 1;
  unlock forkB;
  unlock forkA;
}
thread p2 {
  lock forkB;
  lock forkA;
  meals = meals + 1;
  unlock forkA;
  unlock forkB;
}`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := prog.Run(minilang.RunOptions{Scheduler: minilang.Sequential{}})
	if err != nil {
		t.Fatalf("the sequential run itself must not deadlock: %v", err)
	}
	res := detect(t, tr, core.Options{Witness: true})
	if len(res.Races) != 1 {
		t.Fatalf("want the predicted deadlock, got %+v (candidates %d)",
			res.Races, res.COPsChecked)
	}
}

func TestDedupBySites(t *testing.T) {
	// The same static inversion executed twice is reported once.
	bld := trace.NewBuilder()
	for range [2]int{} {
		bld.At(1).Acquire(1, a)
		bld.At(2).Acquire(1, b)
		bld.At(3).Release(1, b)
		bld.At(4).Release(1, a)
		bld.At(5).Acquire(2, b)
		bld.At(6).Acquire(2, a)
		bld.At(7).Release(2, a)
		bld.At(8).Release(2, b)
	}
	res := detect(t, bld.Trace(), core.Options{})
	if len(res.Races) != 1 {
		t.Fatalf("deduplicated deadlocks = %d, want 1", len(res.Races))
	}
}

func TestValidateWitness(t *testing.T) {
	tr := abba()
	held, blocked := [2]int{0, 4}, [2]int{1, 5}
	if err := ValidateWitness(tr, []int{0, 4}, held, blocked, 0); err != nil {
		t.Errorf("valid witness rejected: %v", err)
	}
	for _, bad := range [][]int{
		{4},             // a held acquire is missing
		{0, 1, 2, 3, 4}, // a blocked acquire is scheduled
		{4, 0, 5},       // t2 is past its blocked acquire
		{1, 0, 4},       // program order
	} {
		if err := ValidateWitness(tr, bad, held, blocked, 0); err == nil {
			t.Errorf("witness %v accepted", bad)
		}
	}
}

// TestWitnessesOfLaterWindows: three rounds of a lock inversion, one per
// window and each at its own sites, give one deadlock per window, and
// every witness reorders only its own window's events.
func TestWitnessesOfLaterWindows(t *testing.T) {
	bld := trace.NewBuilder()
	for r := range 3 {
		loc := trace.Loc(10 * r)
		bld.At(loc+1).Acquire(1, a)
		bld.At(loc+2).Acquire(1, b)
		bld.At(loc+3).Release(1, b)
		bld.At(loc+4).Release(1, a)
		bld.At(loc+5).Acquire(2, b)
		bld.At(loc+6).Acquire(2, a)
		bld.At(loc+7).Release(2, a)
		bld.At(loc+8).Release(2, b)
	}
	tr := bld.Trace()
	res := detect(t, tr, core.Options{WindowSize: 8, Witness: true})
	if len(res.Races) != 3 {
		t.Fatalf("deadlocks = %d, want one per window", len(res.Races))
	}
	for k, d := range res.Races {
		if lo := d.Witness[0]; lo < 8*k || lo >= 8*(k+1) {
			t.Errorf("window %d: witness %v outside the window", k, d.Witness)
		}
	}
	if err := ValidateWitness(tr, []int{8, 12}, [2]int{8, 12}, [2]int{9, 13}, 0); err == nil {
		t.Error("window-1 witness accepted as a whole-trace prefix")
	}
}
