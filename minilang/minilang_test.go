package minilang

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/race"
	"repro/trace"
)

// figure1Src is the paper's Figure 1 program in minilang. Line numbers in
// this source become race-report locations.
const figure1Src = `shared x, y, z;
lock l;
thread t1 {
  fork t2;
  lock l;
  x = 1;
  y = 1;
  unlock l;
  join t2;
  r3 = z;
  if (r3 == 0) {
    skip; // Error
  }
}
thread t2 {
  lock l;
  r1 = y;
  unlock l;
  r2 = x;
  if (r1 == r2) {
    z = 1;
  }
}`

func mustRun(t *testing.T, src string, opt RunOptions) *trace.Trace {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tr, err := p.Run(opt)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("produced trace inconsistent: %v", err)
	}
	return tr
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("x = 1; // comment\nwhile (x <= 10) { }")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokenKind{TokIdent, TokAssign, TokInt, TokSemi,
		TokWhile, TokLParen, TokIdent, TokLe, TokInt, TokRParen,
		TokLBrace, TokRBrace, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v, want kind %d", i, toks[i], k)
		}
	}
	if toks[4].Line != 2 {
		t.Errorf("while line = %d, want 2", toks[4].Line)
	}
}

func TestLexError(t *testing.T) {
	_, err := Lex("x = #;")
	if err == nil || !strings.Contains(err.Error(), "unexpected character") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                              // no threads
		"thread t {",                    // unterminated block
		"thread t { x = ; }",            // missing expr
		"thread t { if x { } }",         // missing paren
		"shared x thread t { skip; }",   // missing semicolon
		"thread t { foo; }",             // not a statement
		"shared a[0]; thread t {skip;}", // bad array length
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	cases := map[string]string{
		"shared x; shared x; thread t { skip; }":            "declared twice",
		"lock l; lock l; thread t { skip; }":                "declared twice",
		"thread t { skip; } thread t { skip; }":             "declared twice",
		"thread t { lock m; }":                              "not a declared lock",
		"thread t { fork u; }":                              "undeclared thread",
		"thread t { r = q; }":                               "undefined variable",
		"thread t { fork t2; } thread t2 { fork t; }":       "cannot fork the initial",
		"shared a[3]; thread t { a = 1; }":                  "assigned without an index",
		"shared x; thread t { x[0] = 1; }":                  "not a shared array",
		"shared a[3]; thread t { r = a; }":                  "read without an index",
		"lock l; thread t { l = 3; }":                       "cannot assign to lock",
		"thread t { join t; }":                              "cannot join itself",
		"shared x; lock x; thread t { skip; }":              "collides",
		"thread main { fork w; join w; } thread w {w = 1;}": "cannot assign to thread",
	}
	for src, want := range cases {
		_, err := Compile(src)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Compile(%q) err = %v, want containing %q", src, err, want)
		}
	}
}

func TestFigure1ProgramTrace(t *testing.T) {
	tr := mustRun(t, figure1Src, RunOptions{Scheduler: Sequential{}})
	s := tr.ComputeStats()
	// Sequential schedule runs t1 until it blocks on join, then t2:
	// fork, acq, w(x), w(y), rel | begin, acq, r(y), rel, r(x), branch,
	// w(z), end | join, r(z), branch.
	if s.Threads != 2 {
		t.Errorf("threads = %d, want 2", s.Threads)
	}
	if s.Branches != 2 {
		t.Errorf("branches = %d, want 2", s.Branches)
	}
	if s.Accesses != 6 {
		t.Errorf("accesses = %d, want 6", s.Accesses)
	}
}

func TestFigure1EndToEndRace(t *testing.T) {
	// The full pipeline: minilang source → trace → maximal detector. The
	// only race is (x=1 at line 6, r2=x at line 19).
	tr := mustRun(t, figure1Src, RunOptions{Scheduler: Sequential{}})
	res := core.New(core.Options{Witness: true}).Detect(tr)
	if len(res.Races) != 1 {
		t.Fatalf("races = %v, want exactly one", res.Races)
	}
	got := res.Races[0].Sig
	if got.First != 6 || got.Second != 19 {
		t.Errorf("race signature = %v, want lines (6,19)", got)
	}
	if err := race.ValidateWitness(tr, res.Races[0].Witness, res.Races[0].A, res.Races[0].B, 0); err != nil {
		t.Errorf("witness invalid: %v", err)
	}
}

func TestLocalsAreThreadLocal(t *testing.T) {
	tr := mustRun(t, `shared x;
thread a {
  r = 5;
  x = r;
  fork b;
  join b;
}
thread b {
  r = 7;
  x = r + x;
}`, RunOptions{})
	// Locals emit no events: only the shared accesses appear.
	s := tr.ComputeStats()
	if s.Accesses != 3 { // w(x), r(x), w(x)
		t.Errorf("accesses = %d, want 3", s.Accesses)
	}
	// Final value must be 12 (7 + 5): read the last write event.
	var last trace.Event
	for _, e := range tr.Events() {
		if e.Op == trace.OpWrite {
			last = e
		}
	}
	if last.Value != 12 {
		t.Errorf("final write = %d, want 12", last.Value)
	}
}

func TestWhileLoopBranches(t *testing.T) {
	tr := mustRun(t, `shared n;
thread t {
  i = 0;
  while (i < 3) {
    n = i;
    i = i + 1;
  }
}`, RunOptions{})
	s := tr.ComputeStats()
	if s.Branches != 4 { // 3 true tests + 1 false test
		t.Errorf("branches = %d, want 4", s.Branches)
	}
	if s.Accesses != 3 {
		t.Errorf("accesses = %d, want 3 writes", s.Accesses)
	}
}

func TestIfElse(t *testing.T) {
	var out strings.Builder
	p, err := Compile(`shared x = 2;
thread t {
  r = x;
  if (r == 1) {
    print 100;
  } else {
    print 200;
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(RunOptions{Out: &out}); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); got != "200" {
		t.Errorf("output = %q, want 200", got)
	}
}

func TestArraysEmitImplicitBranch(t *testing.T) {
	tr := mustRun(t, `shared a[4], i = 2;
thread t {
  a[0] = 5;
  k = i;
  a[k] = 7;
  r = a[k];
}`, RunOptions{})
	s := tr.ComputeStats()
	// a[0]=5: constant index, no branch. a[k]=7 and a[k]: non-constant
	// index → one branch each.
	if s.Branches != 2 {
		t.Errorf("branches = %d, want 2 (implicit array-index branches)", s.Branches)
	}
	// Distinct element addresses: a[0] and a[2] differ.
	p, _ := Compile(`shared a[4], i = 2; thread t { skip; }`)
	a0, _ := p.ElemAddr("a", 0)
	a2, _ := p.ElemAddr("a", 2)
	if a0 == a2 {
		t.Error("array elements must have distinct addresses")
	}
}

func TestArrayBounds(t *testing.T) {
	p, err := Compile(`shared a[2]; thread t { k = 5; a[k] = 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(RunOptions{}); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v, want out-of-range", err)
	}
}

func TestDivisionByZero(t *testing.T) {
	p, err := Compile(`shared x; thread t { r = 1 / x; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(RunOptions{}); err == nil ||
		!strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v, want division by zero", err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	p, err := Compile(`lock l, m;
thread a {
  fork b;
  lock l;
  lock m;
  unlock m;
  unlock l;
  join b;
}
thread b {
  lock m;
  lock l;
  unlock l;
  unlock m;
}`)
	if err != nil {
		t.Fatal(err)
	}
	// The round-robin scheduler with quantum 1 interleaves the two lock
	// acquisitions, producing the classic AB-BA deadlock.
	_, err = p.Run(RunOptions{Scheduler: &RoundRobin{Quantum: 1}})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestUnlockWithoutHold(t *testing.T) {
	p, err := Compile(`lock l; thread t { unlock l; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(RunOptions{}); err == nil ||
		!strings.Contains(err.Error(), "without holding") {
		t.Fatalf("err = %v", err)
	}
}

func TestReentrantLockRejected(t *testing.T) {
	p, err := Compile(`lock l; thread t { lock l; lock l; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(RunOptions{}); err == nil ||
		!strings.Contains(err.Error(), "re-acquires") {
		t.Fatalf("err = %v", err)
	}
}

func TestEndWithHeldLock(t *testing.T) {
	p, err := Compile(`lock l; thread t { lock l; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(RunOptions{}); err == nil ||
		!strings.Contains(err.Error(), "still held") {
		t.Fatalf("err = %v", err)
	}
}

func TestInfiniteLoopBudget(t *testing.T) {
	p, err := Compile(`shared x; thread t { while (1) { x = x + 1; } }`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Run(RunOptions{MaxSteps: 100})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v, want step budget", err)
	}
}

func TestWaitNotify(t *testing.T) {
	tr := mustRun(t, `shared ready, data;
lock l;
thread producer {
  fork consumer;
  lock l;
  data = 42;
  ready = 1;
  notify l;
  unlock l;
  join consumer;
}
thread consumer {
  lock l;
  while (ready == 0) {
    wait l;
  }
  r = data;
  unlock l;
  print r;
}`, RunOptions{Scheduler: &RoundRobin{Quantum: 1}})
	// If the consumer waited, a notify link must exist and validate.
	// Depending on interleaving the consumer may not wait at all; force
	// determinism: quantum 1 starts consumer early enough that it waits.
	if len(tr.NotifyLinks()) == 0 {
		t.Skip("scheduler did not make the consumer wait; covered by TestWaitNotifyForced")
	}
	ln := tr.NotifyLinks()[0]
	if !(ln.Release < ln.Notify && ln.Notify < ln.Acquire) {
		t.Errorf("link ordering broken: %+v", ln)
	}
}

func TestWaitNotifyForced(t *testing.T) {
	// Sequential scheduler runs the initial thread first; it forks the
	// waiter and then blocks on join, so the waiter definitely waits…
	// actually the waiter runs to its wait while the notifier is blocked.
	tr := mustRun(t, `shared flag;
lock l;
thread waiter {
  fork signaler;
  lock l;
  while (flag == 0) {
    wait l;
  }
  unlock l;
  join signaler;
}
thread signaler {
  lock l;
  flag = 1;
  notify l;
  unlock l;
}`, RunOptions{Scheduler: Sequential{}})
	if len(tr.NotifyLinks()) != 1 {
		t.Fatalf("want exactly one notify link, got %d", len(tr.NotifyLinks()))
	}
	ln := tr.NotifyLinks()[0]
	rel := tr.Event(ln.Release)
	acq := tr.Event(ln.Acquire)
	if rel.Op != trace.OpRelease || acq.Op != trace.OpAcquire {
		t.Errorf("link endpoints must be release/acquire, got %v / %v", rel, acq)
	}
	ntf := tr.Event(ln.Notify)
	if ntf.Op != trace.OpRelease {
		t.Errorf("notify is attributed to the notifier's release, got %v", ntf)
	}
}

func TestNotifyAll(t *testing.T) {
	// The sequential scheduler runs main until it blocks on join, then w1
	// and w2 (both park in wait), then sig, whose notifyall wakes both.
	tr := mustRun(t, `shared flag;
lock l;
thread main {
  fork w1;
  fork w2;
  fork sig;
  join w1;
  join w2;
  join sig;
}
thread w1 {
  lock l;
  while (flag == 0) { wait l; }
  unlock l;
}
thread w2 {
  lock l;
  while (flag == 0) { wait l; }
  unlock l;
}
thread sig {
  lock l;
  flag = 1;
  notifyall l;
  unlock l;
}`, RunOptions{Scheduler: Sequential{}})
	if len(tr.NotifyLinks()) != 2 {
		t.Fatalf("notifyall must wake both waiters: %d links", len(tr.NotifyLinks()))
	}
}

func TestVolatileDeclaration(t *testing.T) {
	p, err := Compile(`volatile v; shared x; thread t { v = 1; x = 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := p.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	va, _ := p.VarAddr("v")
	xa, _ := p.VarAddr("x")
	if !tr.Volatile(va) {
		t.Error("v must be marked volatile in the trace")
	}
	if tr.Volatile(xa) {
		t.Error("x must not be volatile")
	}
}

func TestInitialValues(t *testing.T) {
	tr := mustRun(t, `shared x = 9; thread t { r = x; print r; }`, RunOptions{})
	if tr.Event(0).Op != trace.OpRead || tr.Event(0).Value != 9 {
		t.Errorf("read of initialised var = %v, want value 9", tr.Event(0))
	}
}

func TestSchedulerVariety(t *testing.T) {
	// Different schedulers produce different but always consistent traces.
	src := `shared x, y;
lock l;
thread a {
  fork b;
  lock l; x = 1; unlock l;
  y = 2;
  join b;
}
thread b {
  lock l; x = 3; unlock l;
  y = 4;
}`
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for seed := int64(0); seed < 10; seed++ {
		tr, err := p.Run(RunOptions{Scheduler: &Random{Seed: seed}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: inconsistent trace: %v", seed, err)
		}
		key := ""
		for _, e := range tr.Events() {
			key += e.String() + ";"
		}
		seen[key] = true
	}
	if len(seen) < 2 {
		t.Error("random scheduling should produce interleaving variety")
	}
}

func TestAddressAccessors(t *testing.T) {
	p, err := Compile(`shared x, a[3], y; lock l, m; thread t { skip; }`)
	if err != nil {
		t.Fatal(err)
	}
	xa, ok := p.VarAddr("x")
	if !ok || xa != 1 {
		t.Errorf("VarAddr(x) = %d,%v want 1", xa, ok)
	}
	ya, _ := p.VarAddr("y")
	if ya != 5 { // x=1, a=2..4, y=5
		t.Errorf("VarAddr(y) = %d, want 5", ya)
	}
	if _, ok := p.VarAddr("a"); ok {
		t.Error("VarAddr of array must fail")
	}
	if _, ok := p.ElemAddr("a", 3); ok {
		t.Error("ElemAddr out of range must fail")
	}
	la, _ := p.LockAddr("l")
	ma, _ := p.LockAddr("m")
	if la != 6 || ma != 7 {
		t.Errorf("lock addrs = %d,%d want 6,7", la, ma)
	}
	if id, ok := p.ThreadID("t"); !ok || id != 0 {
		t.Errorf("ThreadID(t) = %d,%v", id, ok)
	}
}

func TestNoShortCircuit(t *testing.T) {
	// Both operands of && are evaluated: two reads appear.
	tr := mustRun(t, `shared x, y; thread t { if (x == 1 && y == 1) { skip; } }`,
		RunOptions{})
	s := tr.ComputeStats()
	if s.Accesses != 2 {
		t.Errorf("accesses = %d, want 2 (no short-circuit)", s.Accesses)
	}
}

func TestSyncBlock(t *testing.T) {
	tr := mustRun(t, `shared x;
lock l;
thread a {
  fork b;
  sync l {
    x = x + 1;
  }
  join b;
}
thread b {
  sync l {
    x = x + 10;
  }
}`, RunOptions{Scheduler: &RoundRobin{Quantum: 1}})
	s := tr.ComputeStats()
	// Two lock/unlock pairs plus fork/join/begin/end.
	if s.Syncs != 8 {
		t.Errorf("syncs = %d, want 8", s.Syncs)
	}
	var last trace.Event
	for _, e := range tr.Events() {
		if e.Op == trace.OpWrite {
			last = e
		}
	}
	if last.Value != 11 {
		t.Errorf("final x = %d, want 11 (both increments under the lock)", last.Value)
	}
	cs := tr.CriticalSections()
	if len(cs) != 2 {
		t.Errorf("critical sections = %d, want 2", len(cs))
	}
}

func TestSyncBlockEmptyBody(t *testing.T) {
	tr := mustRun(t, `lock l; thread t { sync l { } }`, RunOptions{})
	if tr.Len() != 2 {
		t.Fatalf("events = %d, want acquire+release", tr.Len())
	}
	if tr.Event(0).Op != trace.OpAcquire || tr.Event(1).Op != trace.OpRelease {
		t.Errorf("empty sync block must still lock/unlock: %v %v", tr.Event(0), tr.Event(1))
	}
}

func TestSyncBlockAsLastStatement(t *testing.T) {
	// Regression guard for the frame push/pop ordering: the block is the
	// thread's final statement.
	tr := mustRun(t, `shared x; lock l;
thread t {
  sync l {
    x = 1;
  }
}`, RunOptions{})
	if tr.Len() != 3 {
		t.Fatalf("events = %d, want 3", tr.Len())
	}
	if tr.Event(2).Op != trace.OpRelease {
		t.Error("unlock must be emitted after the body")
	}
}

func TestSyncUndeclaredLock(t *testing.T) {
	if _, err := Compile(`thread t { sync m { skip; } }`); err == nil ||
		!strings.Contains(err.Error(), "not a declared lock") {
		t.Fatalf("err = %v", err)
	}
}
