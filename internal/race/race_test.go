package race

import (
	"slices"
	"testing"

	"repro/trace"
)

func TestEnumerateCOPs(t *testing.T) {
	b := trace.NewBuilder()
	b.Write(1, 5, 1) // 0
	b.ReadV(2, 5, 1) // 1: conflicts with 0
	b.ReadV(1, 5, 1) // 2: same thread as 0, no conflict with 0; read-read with 1
	b.Write(2, 6, 1) // 3: different location
	b.Write(1, 6, 2) // 4: conflicts with 3
	b.Branch(1)      // 5: not an access
	tr := b.Trace()
	want := []COP{{A: 0, B: 1}, {A: 3, B: 4}}
	for name, cops := range map[string][]COP{"EnumerateCOPs": EnumerateCOPs(tr), "EachCOP": CollectCOPs(tr)} {
		if !slices.Equal(cops, want) {
			t.Errorf("%s = %v, want %v", name, cops, want)
		}
	}
	// Every event sits at location 0, so both pairs share one signature.
	acc := GroupAccesses(tr)
	if n, dedup := acc.Count(tr, map[Signature]bool{SigOf(tr, 3, 4): true}); n != 2 || dedup != 2 {
		t.Errorf("Count = %d, %d; want 2, 2", n, dedup)
	}
	if _, dedup := acc.Count(tr, map[Signature]bool{{First: 7, Second: 9}: true}); dedup != 0 {
		t.Errorf("Count dedup = %d for an absent signature", dedup)
	}
}

func TestEnumerateSkipsVolatile(t *testing.T) {
	b := trace.NewBuilder()
	b.Volatile(5)
	b.Write(1, 5, 1)
	b.ReadV(2, 5, 1)
	if cops := EnumerateCOPs(b.Trace()); len(cops) != 0 {
		t.Errorf("volatile accesses must not form COPs, got %v", cops)
	}
	if cops := CollectCOPs(b.Trace()); len(cops) != 0 {
		t.Errorf("EachCOP visits volatile accesses: %v", cops)
	}
	if n, _ := GroupAccesses(b.Trace()).Count(b.Trace(), nil); n != 0 {
		t.Errorf("Count counts %d volatile pairs", n)
	}
}

func TestSigOfNormalises(t *testing.T) {
	b := trace.NewBuilder()
	b.At(9).Write(1, 5, 1)
	b.At(2).ReadV(2, 5, 1)
	tr := b.Trace()
	s1 := SigOf(tr, 0, 1)
	s2 := SigOf(tr, 1, 0)
	if s1 != s2 {
		t.Errorf("signature must be unordered: %v vs %v", s1, s2)
	}
	if s1.First != 2 || s1.Second != 9 {
		t.Errorf("signature = %v, want {2 9}", s1)
	}
}

func TestWindows(t *testing.T) {
	b := trace.NewBuilder()
	for i := 0; i < 25; i++ {
		b.Branch(1)
	}
	tr := b.Trace()
	var offsets []int
	var sizes []int
	n := Windows(tr, 10, func(w *trace.Trace, offset int) {
		offsets = append(offsets, offset)
		sizes = append(sizes, w.Len())
	})
	if n != 3 {
		t.Fatalf("Windows = %d, want 3", n)
	}
	if offsets[0] != 0 || offsets[1] != 10 || offsets[2] != 20 {
		t.Errorf("offsets = %v", offsets)
	}
	if sizes[0] != 10 || sizes[1] != 10 || sizes[2] != 5 {
		t.Errorf("sizes = %v", sizes)
	}

	// Whole-trace mode.
	n = Windows(tr, 0, func(w *trace.Trace, offset int) {
		if offset != 0 || w.Len() != 25 {
			t.Errorf("whole-trace window wrong: offset=%d len=%d", offset, w.Len())
		}
	})
	if n != 1 {
		t.Errorf("whole-trace Windows = %d, want 1", n)
	}
}

func TestDescribe(t *testing.T) {
	b := trace.NewBuilder()
	b.AtNamed(1, "Main.java:3").Write(1, 5, 1)
	b.AtNamed(2, "Main.java:10").ReadV(2, 5, 1)
	tr := b.Trace()
	r := Race{COP: COP{A: 0, B: 1}, Sig: SigOf(tr, 0, 1)}
	got := r.Describe(tr)
	for _, sub := range []string{"Main.java:3", "Main.java:10", "write(t1, x5, 1)"} {
		if !contains(got, sub) {
			t.Errorf("Describe = %q missing %q", got, sub)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

func TestValidateWitness(t *testing.T) {
	b := trace.NewBuilder()
	b.Fork(1, 2)     // 0
	b.Write(1, 5, 1) // 1
	b.Begin(2)       // 2
	b.ReadV(2, 5, 1) // 3
	tr := b.Trace()

	// Valid: fork, begin, write, read with (1,3) racing.
	if err := ValidateWitness(tr, []int{0, 2, 1, 3}, 1, 3, 0); err != nil {
		t.Errorf("valid witness rejected: %v", err)
	}
	// Racing pair not last.
	if err := ValidateWitness(tr, []int{0, 1, 3, 2}, 1, 3, 0); err == nil {
		t.Error("pair must be the last two events")
	}
	// Program order violated.
	if err := ValidateWitness(tr, []int{2, 0, 1, 3}, 1, 3, 0); err == nil {
		t.Error("begin before fork must be rejected")
	}
	// Duplicate event.
	if err := ValidateWitness(tr, []int{0, 0, 1, 3}, 1, 3, 0); err == nil {
		t.Error("duplicate events must be rejected")
	}
	// Too short.
	if err := ValidateWitness(tr, []int{3}, 1, 3, 0); err == nil {
		t.Error("single-event witness must be rejected")
	}
}

func TestValidateWitnessLockDiscipline(t *testing.T) {
	b := trace.NewBuilder()
	b.Acquire(1, 9)  // 0
	b.Write(1, 5, 1) // 1
	b.Release(1, 9)  // 2
	b.Acquire(2, 9)  // 3
	b.ReadV(2, 5, 1) // 4
	tr := b.Trace()
	// Interleaved acquires: t2 acquires while t1 holds.
	if err := ValidateWitness(tr, []int{0, 3, 1, 4}, 1, 4, 0); err == nil {
		t.Error("overlapping critical sections must be rejected")
	}
	// Proper: t1's section completes first.
	if err := ValidateWitness(tr, []int{0, 1, 2, 3, 1, 4}, 1, 4, 0); err == nil {
		t.Error("duplicate write must be rejected")
	}
	if err := ValidateWitness(tr, []int{0, 2, 3, 1, 4}, 1, 4, 0); err == nil {
		t.Error("release without matching program order (missing write before release? program order 1 before 2) must be rejected")
	}
}

func TestRenderWitness(t *testing.T) {
	b := trace.NewBuilder()
	b.AtNamed(1, "w.go:5").Write(1, 5, 1) // 0
	b.Begin(2)                            // 1
	b.AtNamed(2, "r.go:9").ReadV(2, 5, 1) // 2
	tr := b.Trace()
	out := RenderWitness(tr, []int{1, 0, 2})
	lines := 0
	for _, c := range out {
		if c == '\n' {
			lines++
		}
	}
	if lines != 4 { // header + three rows
		t.Fatalf("lines = %d, want 4:\n%s", lines, out)
	}
	for _, sub := range []string{"t1", "t2", "write(t1, x5, 1)", "@w.go:5", "← race"} {
		if !contains(out, sub) {
			t.Errorf("render missing %q:\n%s", sub, out)
		}
	}
	if got := RenderWitness(tr, nil); got != "" {
		t.Error("empty witness renders empty")
	}
}

// TestValidatePrefixWaitNotify: a wake-up acquire must follow the notify
// that woke it, even when lock discipline alone would allow it earlier.
func TestValidatePrefixWaitNotify(t *testing.T) {
	b := trace.NewBuilder()
	b.Acquire(1, 9)                           // 0
	b.Wait(1, 9, func(b *trace.Builder) int { // release 1, acquire 5
		b.Acquire(2, 9) // 2
		b.Release(2, 9) // 3
		n := b.Mark()
		b.Write(2, 5, 1) // 4: the notify
		return n
	})
	tr := b.Trace()
	if _, err := ValidatePrefix(tr, []int{0, 1, 2, 3, 4, 5}, 0); err != nil {
		t.Errorf("valid prefix rejected: %v", err)
	}
	if _, err := ValidatePrefix(tr, []int{0, 1, 2, 3, 5, 4}, 0); err == nil {
		t.Error("wake-up acquire before its notify accepted")
	}
}

// TestValidatePrefixJoin: a join must follow the joined thread's last
// event.
func TestValidatePrefixJoin(t *testing.T) {
	b := trace.NewBuilder()
	b.Fork(1, 2)     // 0
	b.Begin(2)       // 1
	b.Write(2, 5, 1) // 2
	b.End(2)         // 3
	b.Join(1, 2)     // 4
	tr := b.Trace()
	if _, err := ValidatePrefix(tr, []int{0, 1, 2, 3, 4}, 0); err != nil {
		t.Errorf("valid prefix rejected: %v", err)
	}
	for _, bad := range [][]int{
		{0, 4},          // the joined thread never ran
		{0, 1, 2, 4, 3}, // join before the thread's end
	} {
		if _, err := ValidatePrefix(tr, bad, 0); err == nil {
			t.Errorf("prefix %v accepted", bad)
		}
	}
}

// TestValidatePrefixWindow: a witness of a later window reorders only
// that window's events, so program-order closure starts at the window's
// first event, and an event before it is not part of the schedule.
func TestValidatePrefixWindow(t *testing.T) {
	b := trace.NewBuilder()
	for range 2 {
		b.Acquire(1, 9)  // 0, 4
		b.Write(1, 5, 1) // 1, 5
		b.Release(1, 9)  // 2, 6
		b.Read(2, 5)     // 3, 7
	}
	tr := b.Trace()
	from := WindowStart(7, 4)
	if from != 4 {
		t.Fatalf("WindowStart(7, 4) = %d, want 4", from)
	}
	if _, err := ValidatePrefix(tr, []int{4, 5, 7}, from); err != nil {
		t.Errorf("window prefix rejected: %v", err)
	}
	if _, err := ValidatePrefix(tr, []int{4, 5, 7}, 0); err == nil {
		t.Error("window prefix accepted as a whole-trace prefix")
	}
	for _, bad := range [][]int{
		{4, 7, 6}, // t1 skips its write
		{3, 4, 7}, // an event of the previous window
	} {
		if _, err := ValidatePrefix(tr, bad, from); err == nil {
			t.Errorf("prefix %v accepted", bad)
		}
	}
}
