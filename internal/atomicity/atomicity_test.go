package atomicity

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/race"
	"repro/minilang"
	"repro/trace"
)

// detect runs atomicity detection over tr through the core pipeline and
// checks every witness it returns against the finding's window.
func detect(t *testing.T, tr *trace.Trace, opt core.Options) race.ResultOf[Violation] {
	t.Helper()
	res := core.DetectKind(context.Background(), Kind, opt, tr)
	for _, v := range res.Races {
		if !opt.Witness {
			continue
		}
		from := race.WindowStart(v.First, opt.WindowSize)
		if err := ValidateWitness(tr, v.Witness, v.First, v.Remote, v.Second, from); err != nil {
			t.Errorf("%s: witness %v: %v", v.Describe(tr), v.Witness, err)
		}
	}
	return res
}

// checkThenAct builds the classic pattern: t1 reads the balance and writes
// it back inside a lock region, while t2 updates the balance under a
// different lock — the remote write can land between t1's read and write.
func checkThenAct() *trace.Trace {
	b := trace.NewBuilder()
	const bal trace.Addr = 1
	const l1, l2 trace.Addr = 100, 101
	b.At(1).Acquire(1, l1)
	b.At(2).Read(1, bal)      // e1: r(bal)=0
	b.At(3).Write(1, bal, 10) // e2: w(bal)
	b.At(4).Release(1, l1)
	b.At(5).Acquire(2, l2)
	b.At(6).Write(2, bal, 99) // e3: remote write, wrong lock
	b.At(7).Release(2, l2)
	return b.Trace()
}

func TestCheckThenActViolation(t *testing.T) {
	tr := checkThenAct()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	res := detect(t, tr, core.Options{Witness: true})
	if len(res.Races) != 1 {
		t.Fatalf("violations = %d (candidates %d), want 1", len(res.Races), res.COPsChecked)
	}
	v := res.Races[0]
	if v.First != 1 || v.Second != 2 || v.Remote != 5 {
		t.Errorf("violation sites = %+v", v)
	}
	// Witness: the remote write must sit strictly between the two local
	// accesses.
	pos := map[int]int{}
	for p, idx := range v.Witness {
		pos[idx] = p
	}
	if !(pos[v.First] < pos[v.Remote] && pos[v.Remote] < pos[v.Second]) {
		t.Errorf("witness does not sandwich the remote access: %v", v.Witness)
	}
	if got := v.Describe(tr); got == "" {
		t.Error("Describe must render")
	}
}

func TestSameLockIsAtomic(t *testing.T) {
	// The remote write holds the same lock: interleaving is impossible and
	// no candidate is even generated.
	b := trace.NewBuilder()
	const bal trace.Addr = 1
	const l trace.Addr = 100
	b.Acquire(1, l)
	b.Read(1, bal)
	b.Write(1, bal, 10)
	b.Release(1, l)
	b.Acquire(2, l)
	b.Write(2, bal, 99)
	b.Release(2, l)
	res := detect(t, b.Trace(), core.Options{})
	if len(res.Races) != 0 || res.COPsChecked != 0 {
		t.Fatalf("properly locked update must be atomic: %+v", res)
	}
}

func TestMHBOrderedRemoteSafe(t *testing.T) {
	// The remote write happens after joining the region's thread: ordered.
	b := trace.NewBuilder()
	const bal trace.Addr = 1
	const l trace.Addr = 100
	b.Acquire(1, l)
	b.Read(1, bal)
	b.Write(1, bal, 10)
	b.Release(1, l)
	b.Fork(1, 2)
	b.Begin(2)
	b.Write(2, bal, 99) // fork-ordered after the region
	b.End(2)
	b.Join(1, 2)
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	res := detect(t, tr, core.Options{})
	if len(res.Races) != 0 {
		t.Fatalf("fork-ordered remote cannot interleave: %+v", res.Races)
	}
}

func TestSerializablePatternsIgnored(t *testing.T) {
	// Remote READ between two local reads is serializable: no candidate.
	b := trace.NewBuilder()
	const x trace.Addr = 1
	b.Acquire(1, 100)
	b.Read(1, x)
	b.Read(1, x)
	b.Release(1, 100)
	b.ReadV(2, x, 0)
	res := detect(t, b.Trace(), core.Options{})
	if res.COPsChecked != 0 {
		t.Fatalf("R·R·R is serializable; candidates = %d", res.COPsChecked)
	}

	// W·W·W (remote write between two local writes) is serializable too.
	b2 := trace.NewBuilder()
	b2.Acquire(1, 100)
	b2.Write(1, x, 1)
	b2.Write(1, x, 2)
	b2.Release(1, 100)
	b2.Write(2, x, 9)
	res2 := detect(t, b2.Trace(), core.Options{})
	if res2.COPsChecked != 0 {
		t.Fatalf("W·W·W is serializable; candidates = %d", res2.COPsChecked)
	}
}

func TestBranchGuardPreventsViolation(t *testing.T) {
	// The remote write is guarded by a branch whose read needs the value
	// the region writes at its end: the write can only run after the
	// region completes.
	b := trace.NewBuilder()
	const bal, flag trace.Addr = 1, 2
	b.At(1).Acquire(1, 100)
	b.At(2).Read(1, bal)      // e1
	b.At(3).Write(1, bal, 10) // e2
	b.At(4).Write(1, flag, 1) // published at the end of the region…
	b.At(5).Release(1, 100)
	b.At(6).ReadV(2, flag, 1) // …and required by the remote's guard
	b.At(7).Branch(2)
	b.At(8).Write(2, bal, 99) // e3
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	res := detect(t, tr, core.Options{})
	if len(res.Races) != 0 {
		t.Fatalf("guarded remote cannot interleave: %+v", res.Races)
	}

	// Control: dropping the branch re-enables the violation.
	b2 := trace.NewBuilder()
	b2.At(1).Acquire(1, 100)
	b2.At(2).Read(1, bal)
	b2.At(3).Write(1, bal, 10)
	b2.At(4).Write(1, flag, 1)
	b2.At(5).Release(1, 100)
	b2.At(6).ReadV(2, flag, 1)
	b2.At(8).Write(2, bal, 99)
	res2 := detect(t, b2.Trace(), core.Options{})
	if len(res2.Races) != 1 {
		t.Fatalf("unguarded control must violate, got %+v", res2.Races)
	}
}

func TestFromMinilang(t *testing.T) {
	// A bank account with a racy audit thread: deposit() holds the lock,
	// audit() writes without it.
	prog, err := minilang.Compile(`shared balance;
lock l;
thread main {
  fork depositor;
  fork audit;
  join depositor;
  join audit;
}
thread depositor {
  sync l {
    r = balance;
    balance = r + 100;
  }
}
thread audit {
  balance = 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := prog.Run(minilang.RunOptions{Scheduler: minilang.Sequential{}})
	if err != nil {
		t.Fatal(err)
	}
	res := detect(t, tr, core.Options{})
	if len(res.Races) != 1 {
		t.Fatalf("want the audit-write violation, got %+v (candidates %d)",
			res.Races, res.COPsChecked)
	}
}

func TestDedupBySignature(t *testing.T) {
	b := trace.NewBuilder()
	const bal trace.Addr = 1
	for range [3]int{} {
		b.At(1).Acquire(1, 100)
		b.At(2).Read(1, bal)
		b.At(3).Write(1, bal, 10)
		b.At(4).Release(1, 100)
		b.At(6).Write(2, bal, 99)
	}
	res := detect(t, b.Trace(), core.Options{})
	// Two distinct signatures survive dedup: the in-region R·W·W triple
	// (L2 … L3) and the split-region W·W·R triple across consecutive
	// repetitions (L3 … L2). The other 3×-repeated instances fold away.
	if len(res.Races) != 2 {
		t.Fatalf("violations = %d, want 2 after dedup (%+v)", len(res.Races), res.Races)
	}
	var splits int
	for _, v := range res.Races {
		if v.Split {
			splits++
		}
	}
	if splits != 1 {
		t.Errorf("split-region violations = %d, want 1", splits)
	}
}

func TestSplitRegionCheckThenAct(t *testing.T) {
	// The check-then-act idiom: read under the lock, decide, write under
	// the lock again; a same-lock remote write slips between the sections.
	b := trace.NewBuilder()
	const bal trace.Addr = 1
	const l trace.Addr = 100
	b.At(1).Acquire(1, l)
	b.At(2).Read(1, bal) // check
	b.At(3).Release(1, l)
	b.At(4).Branch(1)
	b.At(5).Acquire(1, l)
	b.At(6).Write(1, bal, 50) // act
	b.At(7).Release(1, l)
	b.At(8).Acquire(2, l)
	b.At(9).Write(2, bal, 99) // remote update, properly locked
	b.At(10).Release(2, l)
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	res := detect(t, tr, core.Options{Witness: true})
	var split *Violation
	for i := range res.Races {
		if res.Races[i].Split {
			split = &res.Races[i]
		}
	}
	if split == nil {
		t.Fatalf("split-region violation not detected: %+v (candidates %d)",
			res.Races, res.COPsChecked)
	}
	if split.First != 1 || split.Second != 5 || split.Remote != 8 {
		t.Errorf("split sites = %+v", *split)
	}
}

func TestValidateWitness(t *testing.T) {
	tr := checkThenAct()
	if err := ValidateWitness(tr, []int{0, 1, 4, 5, 2}, 1, 5, 2, 0); err != nil {
		t.Errorf("valid witness rejected: %v", err)
	}
	for _, bad := range [][]int{
		{0, 1, 2},          // the remote access is missing
		{4, 5, 0, 1, 2},    // the remote access precedes the region
		{0, 1, 4, 5, 2, 3}, // the witness runs past the second access
		{0, 1, 5, 2},       // the remote thread skips its acquire
	} {
		if err := ValidateWitness(tr, bad, 1, 5, 2, 0); err == nil {
			t.Errorf("witness %v accepted", bad)
		}
	}
}

// TestWitnessesOfLaterWindows: the check-then-act pattern repeated at new
// sites in each window gives one violation per window, and every witness
// reorders only its own window's events.
func TestWitnessesOfLaterWindows(t *testing.T) {
	const bal trace.Addr = 1
	const l1, l2 trace.Addr = 100, 101
	b := trace.NewBuilder()
	for r := range 3 {
		loc := trace.Loc(10 * r)
		b.At(loc+1).Acquire(1, l1)
		b.At(loc+2).Read(1, bal)
		b.At(loc+3).Write(1, bal, 10)
		b.At(loc+4).Release(1, l1)
		b.At(loc+5).Acquire(2, l2)
		b.At(loc+6).Write(2, bal, 99)
		b.At(loc+7).Release(2, l2)
	}
	res := detect(t, b.Trace(), core.Options{WindowSize: 7, Witness: true})
	if len(res.Races) != 3 {
		t.Fatalf("violations = %d, want one per window", len(res.Races))
	}
}
