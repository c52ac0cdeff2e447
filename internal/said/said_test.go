package said

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/race"
	"repro/trace"
)

func detect(tr *trace.Trace) race.Result {
	return New(Options{Witness: true}).Detect(tr)
}

func sigSet(res race.Result) map[race.Signature]bool {
	out := make(map[race.Signature]bool)
	for _, r := range res.Races {
		out[r.Sig] = true
	}
	return out
}

func TestFigure1SaidMisses310(t *testing.T) {
	// Whole-trace read–write consistency forces r(y)@7 to read 1 from
	// w(y)@3, chaining w(x)@2 strictly before r(x)@9 with events in
	// between: (3,10) is missed — the paper's Section 1 point about [30].
	res := detect(fixtures.Figure1())
	if len(res.Races) != 0 {
		t.Errorf("Said must find no races in Figure 1, got %v", res.Races)
	}
}

func TestFigure2SaidMissesCaseNoBranch(t *testing.T) {
	// Case ¿: the race (1,4) exists but only in an incomplete trace where
	// the read of y returns 0; Said requires it to return 1, killing the
	// reordering.
	res := detect(fixtures.Figure2(false))
	if len(res.Races) != 0 {
		t.Errorf("Said must miss (1,4) in case ¿, got %v", res.Races)
	}
}

func TestPlainRaceWithWitness(t *testing.T) {
	b := trace.NewBuilder()
	b.At(1).Write(1, 5, 1)
	b.At(2).ReadV(2, 5, 1)
	tr := b.Trace()
	res := detect(tr)
	if len(res.Races) != 1 {
		t.Fatalf("want 1 race, got %v", res.Races)
	}
	r := res.Races[0]
	if err := race.ValidateWitness(tr, r.Witness, r.A, r.B, 0); err != nil {
		t.Errorf("invalid witness: %v", err)
	}
}

func TestWriteWriteReorderable(t *testing.T) {
	// Two writes of different values to x by different threads, then a
	// read of the last value by the second thread. Said can reorder as
	// long as the read still sees its value.
	b := trace.NewBuilder()
	b.At(1).Write(1, 5, 1)
	b.At(2).Write(2, 5, 2)
	b.At(3).Read(2, 5) // reads 2
	tr := b.Trace()
	res := detect(tr)
	if got := sigSet(res); !got[race.Signature{First: 1, Second: 2}] {
		t.Errorf("(w1, w2) must be a Said race, got %v", res.Races)
	}
}

func TestValueBlockedReordering(t *testing.T) {
	// t2's read of x must see t1's second write; the COP with the first
	// write cannot be adjacent because the second write must intervene.
	b := trace.NewBuilder()
	b.At(1).Write(1, 5, 1) // first write (value 1)
	b.At(2).Write(1, 5, 2) // second write (value 2)
	b.At(3).ReadV(2, 5, 2) // must read 2
	tr := b.Trace()
	res := detect(tr)
	got := sigSet(res)
	if got[race.Signature{First: 1, Second: 3}] {
		t.Error("(w1, r) cannot be adjacent: r must read w2 which is forced between")
	}
	if !got[race.Signature{First: 2, Second: 3}] {
		t.Errorf("(w2, r) must be a race, got %v", res.Races)
	}
}

func TestSaidSubsetOfRV(t *testing.T) {
	// Property: on the paper fixtures, every Said race is found by RV.
	rv := core.New(core.Options{})
	for i, tr := range []*trace.Trace{
		fixtures.Figure1(), fixtures.Figure1Switched(),
		fixtures.Figure2(false), fixtures.Figure2(true),
	} {
		saidSigs := sigSet(detect(tr))
		rvSigs := sigSet(rv.Detect(tr))
		for s := range saidSigs {
			if !rvSigs[s] {
				t.Errorf("fixture %d: Said race %v missed by RV (violates maximality)", i, s)
			}
		}
	}
}

func TestAbortCounted(t *testing.T) {
	b := trace.NewBuilder()
	b.At(1).Write(1, 5, 1)
	b.At(2).ReadV(2, 5, 1)
	d := New(Options{}) // unbounded: should not abort
	res := d.Detect(b.Trace())
	if res.SolverAborts != 0 {
		t.Errorf("unexpected aborts: %d", res.SolverAborts)
	}
}
