package capture

import (
	"testing"

	"repro/rvpredict"
	"repro/trace"
)

func TestRecordedTraceIsConsistent(t *testing.T) {
	rec := NewRecorder()
	bal := NewShared(rec, "balance")
	mu := NewMutex(rec, "mu")

	var hs []*Handle
	for i := 0; i < 4; i++ {
		hs = append(hs, rec.Go(func(th *Thread) {
			mu.Lock(th)
			bal.Store(th, bal.Load(th)+1)
			mu.Unlock(th)
		}))
	}
	for _, h := range hs {
		h.Join(rec.Main())
	}
	tr := rec.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("recorded trace inconsistent: %v", err)
	}
	if v := bal.Load(rec.Main()); v != 4 {
		t.Errorf("balance = %d, want 4", v)
	}
	st := tr.ComputeStats()
	if st.Threads != 5 {
		t.Errorf("threads = %d, want 5", st.Threads)
	}
	// Properly locked increments: no races.
	rep := rvpredict.Detect(tr, rvpredict.Options{})
	if len(rep.Races) != 0 {
		t.Errorf("locked counter must be race-free, got %v", rep.Races)
	}
}

func TestCapturedRaceDetected(t *testing.T) {
	rec := NewRecorder()
	flag := NewShared(rec, "flag")
	data := NewShared(rec, "data")
	mu := NewMutex(rec, "mu")

	h := rec.Go(func(th *Thread) {
		data.StoreAt(th, "worker:data", 42) // unprotected
		mu.Lock(th)
		flag.Store(th, 1)
		mu.Unlock(th)
	})
	mu.Lock(rec.Main())
	_ = flag.Load(rec.Main())
	mu.Unlock(rec.Main())
	_ = data.LoadAt(rec.Main(), "main:data") // unprotected: races
	h.Join(rec.Main())

	tr := rec.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	rep := rvpredict.Detect(tr, rvpredict.Options{Witness: true})
	found := false
	for _, r := range rep.Races {
		if r.Locations[0] == "worker:data" && r.Locations[1] == "main:data" ||
			r.Locations[1] == "worker:data" && r.Locations[0] == "main:data" {
			found = true
			if err := rvpredict.CheckWitness(tr, r.Witness, r.First, r.Second, 0); err != nil {
				t.Errorf("invalid witness: %v", err)
			}
		}
	}
	if !found {
		t.Errorf("data race not detected; races: %v", rep.Races)
	}
}

func TestBranchRecorded(t *testing.T) {
	rec := NewRecorder()
	x := NewShared(rec, "x")
	y := NewShared(rec, "y")

	h := rec.Go(func(th *Thread) {
		x.StoreAt(th, "w:x", 1)
		y.Store(th, 1)
	})
	if y.Load(rec.Main()) == 1 {
		rec.Main().Branch("main:guard")
		_ = x.LoadAt(rec.Main(), "m:x")
	} else {
		rec.Main().Branch("main:guard")
	}
	h.Join(rec.Main())

	tr := rec.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.ComputeStats().Branches != 1 {
		t.Fatalf("branches = %d, want 1", tr.ComputeStats().Branches)
	}
	// Whether (w:x, m:x) is a race depends on the run: if main saw y == 1
	// the guarded read is control-dependent on y's value, and the guard
	// makes the pair infeasible for the maximal detector — mirroring
	// Figure 2 case ¡. If main saw y == 0 the read never happened.
	rep := rvpredict.Detect(tr, rvpredict.Options{})
	for _, r := range rep.Races {
		if r.Locations[0] == "w:x" || r.Locations[1] == "w:x" {
			t.Errorf("guarded read must not race: %v", r)
		}
	}
}

func TestForkJoinEvents(t *testing.T) {
	rec := NewRecorder()
	h := rec.Go(func(th *Thread) {})
	h.Join(rec.Main())
	tr := rec.Trace()
	want := []trace.Op{trace.OpFork, trace.OpBegin, trace.OpEnd, trace.OpJoin}
	if tr.Len() != len(want) {
		t.Fatalf("events = %d, want %d", tr.Len(), len(want))
	}
	for i, op := range want {
		if tr.Event(i).Op != op {
			t.Errorf("event %d = %v, want %v", i, tr.Event(i).Op, op)
		}
	}
}

func TestNestedGo(t *testing.T) {
	rec := NewRecorder()
	x := NewShared(rec, "x")
	outer := rec.Go(func(th *Thread) {
		inner := th.Go(func(th2 *Thread) {
			x.Store(th2, 7)
		})
		inner.Join(th)
		_ = x.Load(th)
	})
	outer.Join(rec.Main())
	tr := rec.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.ComputeStats().Threads; got != 3 {
		t.Errorf("threads = %d, want 3", got)
	}
	// The inner store is join-ordered before the outer load: no race.
	rep := rvpredict.Detect(tr, rvpredict.Options{})
	if len(rep.Races) != 0 {
		t.Errorf("join-ordered accesses must not race: %v", rep.Races)
	}
}

func TestManyGoroutinesStress(t *testing.T) {
	rec := NewRecorder()
	mu := NewMutex(rec, "mu")
	c := NewShared(rec, "c")
	var hs []*Handle
	for i := 0; i < 16; i++ {
		hs = append(hs, rec.Go(func(th *Thread) {
			for j := 0; j < 25; j++ {
				mu.Lock(th)
				c.Store(th, c.Load(th)+1)
				mu.Unlock(th)
			}
		}))
	}
	for _, h := range hs {
		h.Join(rec.Main())
	}
	tr := rec.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if v := c.Load(rec.Main()); v != 400 {
		t.Errorf("counter = %d, want 400", v)
	}
}

func TestCondWaitSignal(t *testing.T) {
	rec := NewRecorder()
	mu := NewMutex(rec, "mu")
	cond := NewCond(mu)
	ready := NewShared(rec, "ready")

	h := rec.Go(func(th *Thread) {
		mu.Lock(th)
		for ready.Load(th) == 0 {
			th.Branch("worker:spin")
			cond.Wait(th)
		}
		th.Branch("worker:spin")
		mu.Unlock(th)
	})
	// Give the worker a chance to park (not required for correctness).
	mu.Lock(rec.Main())
	ready.Store(rec.Main(), 1)
	cond.Signal(rec.Main())
	mu.Unlock(rec.Main())
	h.Join(rec.Main())

	tr := rec.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("inconsistent trace: %v", err)
	}
	// If the worker parked before the signal, a notify link must exist and
	// be properly bracketed.
	for _, ln := range tr.NotifyLinks() {
		if !(ln.Release < ln.Notify && ln.Notify < ln.Acquire) {
			t.Errorf("malformed link %+v", ln)
		}
		if tr.Event(ln.Notify).Op != trace.OpRelease {
			t.Errorf("notify must be attributed to a release, got %v", tr.Event(ln.Notify))
		}
	}
	// The protected flag must not race.
	rep := rvpredict.Detect(tr, rvpredict.Options{})
	if len(rep.Races) != 0 {
		t.Errorf("monitor-protected handoff must be race-free: %v", rep.Races)
	}
}

func TestCondBroadcast(t *testing.T) {
	rec := NewRecorder()
	mu := NewMutex(rec, "mu")
	cond := NewCond(mu)
	gate := NewShared(rec, "gate")

	var hs []*Handle
	for i := 0; i < 3; i++ {
		hs = append(hs, rec.Go(func(th *Thread) {
			mu.Lock(th)
			for gate.Load(th) == 0 {
				th.Branch("waiter:gate")
				cond.Wait(th)
			}
			th.Branch("waiter:gate")
			mu.Unlock(th)
		}))
	}
	mu.Lock(rec.Main())
	gate.Store(rec.Main(), 1)
	cond.Broadcast(rec.Main())
	mu.Unlock(rec.Main())
	for _, h := range hs {
		h.Join(rec.Main())
	}
	tr := rec.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("inconsistent trace: %v", err)
	}
	rep := rvpredict.Detect(tr, rvpredict.Options{})
	if len(rep.Races) != 0 {
		t.Errorf("broadcast gate must be race-free: %v", rep.Races)
	}
}
