// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with a pluggable theory hook, forming the propositional engine of
// the DPLL(T) SMT solver in internal/smt.
//
// The paper solves its race constraints with Z3 or Yices restricted to
// Integer Difference Logic; Go has no usable bindings to either, so this
// repository re-implements the needed solver stack from scratch (see
// DESIGN.md, substitutions). The solver is deliberately classical:
// two-watched-literal propagation, first-UIP conflict analysis with clause
// learning and non-chronological backjumping, phase saving, and Luby
// restarts. Decisions follow a justification frontier instead of a
// variable-activity heap: the search only assigns what the root clauses,
// and the definitions of the heads it has made true, need (see
// SolveAssuming), and it answers Sat as soon as all of those hold. A
// frontier clause also holds when one of its unassigned theory literals
// is true in the theory's current model (Theory.Holds), so the search
// never decides an order constraint the theory already satisfies; before
// answering Sat it re-checks the whole frontier against the final model.
//
// A definition ¬h ∨ k1 ∨ … ∨ kn of three or more literals is stored with
// ¬h last, so its two watches sit on body literals. The search makes h
// true exactly when it starts justifying the definition, and with ¬h
// watched every such step would move a watcher off ¬h and log the list
// for Rollback. The two-watched-literal invariant needs only two watches
// that are not false (or a satisfied clause, or a unit or conflict that
// propagation has seen); a false ¬h is simply not one of them, so a
// watched body literal that becomes false picks ¬h as its replacement
// only while h is unassigned, and otherwise makes the clause unit on the
// other body watch, as for any clause. The body keeps its order, so the
// frontier branches on the same literals either way.
//
// A solver is Reset rather than rebuilt to decide a new formula: Reset
// empties it and keeps the capacity of every array, so the next formula
// regrows none of them until it outgrows the previous one.
package sat

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"
)

// Var is a propositional variable index, starting at 0.
type Var int32

// Lit is a literal: variable 2*v for the positive polarity, 2*v+1 for the
// negation. The zero Lit is the positive literal of variable 0; use
// MkLit/Neg to construct and transform literals.
type Lit int32

// MkLit returns the literal of v with the given polarity (true = positive).
func MkLit(v Var, positive bool) Lit {
	l := Lit(v << 1)
	if !positive {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Positive reports whether l is a positive literal.
func (l Lit) Positive() bool { return l&1 == 0 }

// Neg returns the complement literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// String renders the literal as "x3" or "¬x3".
func (l Lit) String() string {
	if l.Positive() {
		return fmt.Sprintf("x%d", l.Var())
	}
	return fmt.Sprintf("¬x%d", l.Var())
}

// Value is a three-valued assignment.
type Value int8

// Truth values.
const (
	Unknown Value = iota
	True
	False
)

func (v Value) neg() Value {
	switch v {
	case True:
		return False
	case False:
		return True
	}
	return Unknown
}

// Theory is the interface between the SAT core and a theory solver, in the
// DPLL(T) style. The solver informs the theory of every assignment to a
// theory-relevant literal, in trail order, and asks it to validate the
// assignment once every clause the search must justify holds. All methods
// but Model are called from Solve and Checkpoint only.
//
// The assignment the solver answers Sat on is partial: variables nothing
// justified stay unassigned (see SolveAssuming). The theory must therefore
// decide the asserted literals on their own. Check's nil verdict must
// hold for the extension of them that gives each unasserted relevant
// variable its value in the theory's model, the model Holds reads; an
// assertion-complete theory (IDL: feasible potentials decide every atom)
// meets that by construction. A relevant variable must not be the head
// of a definition (AddDef).
type Theory interface {
	// Relevant reports whether assignments to v concern the theory. The
	// solver only forwards relevant literals to Assert.
	Relevant(v Var) bool

	// Assert notifies the theory that lit became true. If the assertion is
	// inconsistent with previously asserted literals, Assert returns a
	// non-nil conflict: a set of literals, all currently asserted (lit may
	// be among them), that are jointly theory-inconsistent. The solver
	// learns the clause ¬c1 ∨ … ∨ ¬cn.
	Assert(lit Lit) (conflict []Lit)

	// Push marks a backtracking point, corresponding to a new decision
	// level in the SAT core.
	Push()

	// Pop undoes the given number of Push marks, retracting every literal
	// asserted since.
	Pop(levels int)

	// Holds reports whether lit is true in the theory's current model:
	// the values its model gives the relevant variables nothing has
	// asserted yet, consistent with every asserted literal. The solver
	// asks only about literals whose variable is unassigned, and counts a
	// frontier clause with such a literal as justified without deciding
	// it. Holds must return false for a variable that is not relevant.
	// The model may change with every Assert; the solver re-checks the
	// clauses it let the model justify before it answers Sat.
	Holds(lit Lit) bool

	// Check performs the final consistency check on the asserted
	// literals. A nil conflict means the theory accepts them, together
	// with its model's value for every relevant variable left unasserted;
	// since the solver backtracks (and hence pops the theory) before Solve
	// returns, a theory wishing to expose model values should snapshot
	// them during the successful Check call.
	Check() (conflict []Lit)

	// Model reports whether lit is true in the model the latest
	// successful Check accepted. ModelValue asks it, after Solve has
	// returned Sat, about the relevant variables the search left
	// unassigned.
	Model(lit Lit) bool
}

// ErrUnsat is returned by AddClause when the clause set became trivially
// unsatisfiable at the root level.
var ErrUnsat = errors.New("sat: formula is unsatisfiable at root level")

// cref is a clause reference: an index into Solver.hdr.
type cref uint32

const (
	// noClause is the null reference: no reason, no next definition.
	noClause cref = 0
	// theoryConfl is the scratch clause that holds the latest theory
	// conflict (Solver.conflLits) while it is analysed; it is never
	// watched or stored.
	theoryConfl cref = 1
)

// header describes one clause. Its literals are arena[off : off+n]; a
// clause that reduceDB or Checkpoint deleted keeps its header with n == 0,
// so the references of the clauses after it stay valid.
type header struct {
	off, n uint32
	// nextDef links the definitions of one head, newest first, from
	// Solver.firstDef; noClause for root and learned clauses.
	nextDef cref
	learned bool
	act     float64
}

type watcher struct {
	c cref
	// blocker is a literal of c; if true, the clause is satisfied and the
	// watch need not be inspected further.
	blocker Lit
}

// watchList is one literal's watch list: wpool[off : off+n], with room
// for cap watchers before it must move.
type watchList struct{ off, n, cap uint32 }

// Stats aggregates solver counters for benchmarks and diagnostics.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learned      int64
	TheoryProps  int64
	TheoryConfl  int64
	// WatchMoves counts watchers propagation moved to another literal's
	// list; UndoLogEntries counts the watch lists, clause literal orders
	// and definition-index entries the undo log recorded.
	WatchMoves     int64
	UndoLogEntries int64
}

// Add accumulates other into s (used when rolling several solvers' stats
// into one telemetry total).
func (s *Stats) Add(other Stats) {
	s.Decisions += other.Decisions
	s.Propagations += other.Propagations
	s.Conflicts += other.Conflicts
	s.Restarts += other.Restarts
	s.Learned += other.Learned
	s.TheoryProps += other.TheoryProps
	s.TheoryConfl += other.TheoryConfl
	s.WatchMoves += other.WatchMoves
	s.UndoLogEntries += other.UndoLogEntries
}

// AbortCause says why a Solve call returned Aborted.
type AbortCause int8

// Abort causes.
const (
	// AbortNone: the most recent Solve did not abort.
	AbortNone AbortCause = iota
	// AbortDeadline: the wall-clock Deadline passed.
	AbortDeadline
	// AbortCancelled: the Cancel poll reported cooperative cancellation.
	AbortCancelled
)

// Solver is a CDCL SAT solver. The zero value is not usable; construct with
// New. A Solver may be reused for multiple Solve calls with growing clause
// sets (incremental use), but is not safe for concurrent use.
//
// Its state holds no Go pointers per clause, watcher or variable: every
// clause's literals sit in one arena, clauses are referred to by index
// (cref), and the watch lists share one pool. The collector never scans
// it, and the undo log behind Rollback copies flat memory.
type Solver struct {
	arena   []Lit    // the literals of every clause, in creation order
	hdr     []header // indexed by cref; entries 0 and 1 are reserved
	clauses []cref   // problem clauses: root clauses and definitions
	roots   []cref   // the root clauses among them, in order
	learnts []cref   // learned clauses

	// firstDef is the newest definition of each head (AddDef); the rest
	// follow through header.nextDef.
	firstDef []cref

	watches []watchList // indexed by Lit
	wpool   []watcher   // the watch lists' storage
	// watching is set once the lists exist. Until the first propagation
	// (or Checkpoint) needs them, AddClause leaves clauses unwatched, and
	// rebuildWatches then lays every list out in one pass: the lists
	// appends in clause order would have built, without moving any.
	watching bool
	// wbase is the pool length the latest Checkpoint or rebuild left;
	// lists placed or moved since sit above it.
	wbase int

	assign []Value // indexed by Var
	level  []int32 // decision level per var
	reason []cref
	phase  []bool // saved phase per var

	trail    []Lit
	trailLim []int // trail length at each decision level
	qhead    int   // propagation queue head
	thead    int   // theory assertion queue head

	// cur is the justification frontier's scan position; cursors holds
	// its value at the opening of each decision level. held is set once
	// the current Solve call has let the theory's model justify a
	// frontier clause, which the trail does not protect.
	cur     cursor
	cursors []cursor
	held    bool

	clauseInc float64

	// conflLits holds the literals of theoryConfl.
	conflLits []Lit

	// assumps holds the literals assumed for the current Solve call; they
	// are decided first, one per decision level.
	assumps []Lit

	theory Theory

	// Deadline, when non-zero, aborts the search at the first conflict
	// after the given wall-clock instant (the per-COP solving timeout of
	// Section 4).
	Deadline time.Time

	// Cancel, when non-nil, is polled on Solve entry and in the conflict
	// loop (at the same cadence as Deadline); returning true aborts the
	// search with AbortCancelled. It is the cooperative-cancellation hook
	// the detectors wire to a context, so a run can be stopped mid-solve
	// and still return a well-formed partial result.
	Cancel func() bool

	Stats Stats

	abortCause AbortCause
	rootUnsat  bool

	// The latest Sat answer's assignment: the trail it was found with, and
	// per variable the value the trail gave it (Unknown elsewhere).
	// ModelValue completes the rest on demand. modelVars is the number of
	// variables the model covers, 0 when there is none.
	modelTrail []Lit
	model      []Value
	modelVars  int

	// addMark is AddClause's duplicate/complement test: per variable,
	// addGen<<1 | polarity of the literal the current call kept.
	addMark []uint32
	addGen  uint32

	// seen is analyze's per-variable mark. Every mark is cleared before
	// analyze returns, so it is all false between conflicts.
	seen []bool

	// The undo log behind Rollback. Checkpoint and every Rollback start a
	// new epoch; a checkpoint watch list or clause stamped with an older
	// epoch still holds its checkpoint contents and is copied into the log
	// the first time it changes. Lists and clauses created since are never
	// logged: Rollback drops them.
	ck          *Checkpoint // the checkpoint the log is relative to
	epoch       uint32
	watchSaved  []uint32    // per checkpoint Lit: epoch the list was last logged in
	clauseSaved []uint32    // per checkpoint cref: epoch its literal order was last logged in
	undoWatch   []watchSave // logged lists; their watchers follow each other in undoWatchW
	undoWatchW  []watcher
	// Logged clauses; their literals follow each other in undoLits.
	undoClause []cref
	undoLits   []Lit
	// undoDef logs, in order, each checkpoint head's first definition
	// before a later AddDef replaced it.
	undoDef []defSave
	// watchLogStale is set by rebuildWatches: every list was rewritten
	// wholesale, so Rollback must rebuild them instead of replaying.
	watchLogStale bool
}

// watchSave is one logged watch list: its literal and its place in the
// pool.
type watchSave struct {
	lit  Lit
	list watchList
}

// defSave is one logged definition-index entry.
type defSave struct {
	head  Var
	first cref
}

// cursor is a position in the justification frontier, which has two
// parts: for each positive literal on the trail in trail order, the
// definitions of its variable; and the root clauses in order. Every
// frontier clause before the cursor in either part is satisfied, or was
// held by the theory's model when the cursor passed it.
type cursor struct {
	trail int  // next trail position whose definitions to visit
	def   cref // next definition of the head at trail position trail-1
	root  int  // next root clause
}

// New returns an empty solver. If theory is nil the solver is a plain SAT
// solver.
func New(theory Theory) *Solver {
	s := &Solver{clauseInc: 1, theory: theory, hdr: make([]header, 2)}
	s.hdr[theoryConfl].learned = true
	return s
}

// Reset empties the solver into the state New leaves, with the same
// theory, but keeps the capacity of its arrays: the arena, the header
// table, the watch pool and lists, the per-variable arrays, the trail and
// the undo log. A solver reused for a new formula grows none of them
// again until the formula outgrows the previous one. Deadline, Cancel,
// Stats and the checkpoint are cleared too.
func (s *Solver) Reset() {
	s.clearModel()
	*s = Solver{
		arena:       s.arena[:0],
		hdr:         append(s.hdr[:0], header{}, header{learned: true}),
		clauses:     s.clauses[:0],
		roots:       s.roots[:0],
		learnts:     s.learnts[:0],
		firstDef:    s.firstDef[:0],
		watches:     s.watches[:0],
		wpool:       s.wpool[:0],
		assign:      s.assign[:0],
		level:       s.level[:0],
		reason:      s.reason[:0],
		phase:       s.phase[:0],
		trail:       s.trail[:0],
		trailLim:    s.trailLim[:0],
		cursors:     s.cursors[:0],
		clauseInc:   1,
		conflLits:   s.conflLits[:0],
		theory:      s.theory,
		modelTrail:  s.modelTrail,
		model:       s.model,
		addMark:     s.addMark,
		addGen:      s.addGen,
		seen:        s.seen[:0],
		epoch:       s.epoch,
		watchSaved:  s.watchSaved[:0],
		clauseSaved: s.clauseSaved[:0],
		undoWatch:   s.undoWatch[:0],
		undoWatchW:  s.undoWatchW[:0],
		undoClause:  s.undoClause[:0],
		undoLits:    s.undoLits[:0],
		undoDef:     s.undoDef[:0],
	}
}

// NewVar allocates a fresh variable.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assign))
	s.assign = append(grow(s.assign, 1), Unknown)
	s.level = append(grow(s.level, 1), 0)
	s.reason = append(grow(s.reason, 1), noClause)
	s.phase = append(grow(s.phase, 1), false)
	s.firstDef = append(grow(s.firstDef, 1), noClause)
	s.seen = append(grow(s.seen, 1), false)
	s.watches = append(grow(s.watches, 2), watchList{}, watchList{})
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assign) }

// NumClauses returns the number of problem clauses (excluding learned).
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts returns the current learned-clause count.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// SetPhase sets v's initial decision polarity. Phase saving overwrites it
// as the search assigns v; a good initial phase (e.g. from a known
// near-model) steers the first descent.
func (s *Solver) SetPhase(v Var, phase bool) { s.phase[v] = phase }

// value returns the literal's current value.
func (s *Solver) value(l Lit) Value {
	v := s.assign[l.Var()]
	if !l.Positive() {
		v = v.neg()
	}
	return v
}

// lits returns clause c's literals.
func (s *Solver) lits(c cref) []Lit {
	if c == theoryConfl {
		return s.conflLits
	}
	h := &s.hdr[c]
	return s.arena[h.off : h.off+h.n]
}

// newClause stores the literals arena[off:] as a clause.
func (s *Solver) newClause(off int, learned bool) cref {
	c := cref(len(s.hdr))
	s.hdr = append(grow(s.hdr, 1), header{off: uint32(off), n: uint32(len(s.arena) - off), learned: learned})
	return c
}

// AddClause adds a root clause at the root level: a clause every model
// must satisfy, so the search justifies it in every query. Duplicate
// literals are merged and tautologies dropped. Returns ErrUnsat if the
// formula became unsatisfiable at the root level (empty clause, or unit
// propagation from it conflicts immediately).
func (s *Solver) AddClause(lits ...Lit) error { return s.addClause(-1, lits) }

// AddDef adds the clause ¬head ∨ lits at the root level as a definition
// of head: the search justifies it only while head is true, and a model
// leaves head false wherever nothing needed it (see SolveAssuming). head
// must not be theory-relevant. If head is already true at the root, the
// clause is a root clause. Normalisation and errors are AddClause's.
func (s *Solver) AddDef(head Var, lits ...Lit) error { return s.addClause(head, lits) }

// addClause adds ¬head ∨ lits as a definition of head, or lits as a root
// clause when head is negative.
func (s *Solver) addClause(head Var, lits []Lit) error {
	if s.rootUnsat {
		return ErrUnsat
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above root level")
	}
	// Normalise: sort-free dedup and tautology/falsified-literal removal,
	// checked against per-variable marks of the literals kept so far. The
	// kept literals go straight onto the arena's tail.
	s.addGen++
	if s.addGen == 1<<31 {
		clear(s.addMark)
		s.addGen = 1
	}
	if n := len(s.assign) - len(s.addMark); n > 0 {
		s.addMark = append(s.addMark, make([]uint32, n)...)
	}
	mark := s.addGen << 1
	n := len(lits)
	if head >= 0 {
		n++
	}
	off := len(s.arena)
	for i := len(lits) - n; i < len(lits); i++ { // i == -1 is ¬head
		l := MkLit(head, false)
		if i >= 0 {
			l = lits[i]
		}
		v := l.Var()
		if int(v) >= len(s.assign) {
			panic("sat: literal references unallocated variable")
		}
		m := s.addMark[v]
		switch {
		case m == mark|uint32(l&1):
			continue // duplicate
		case m&^1 == mark, s.value(l) == True:
			s.arena = s.arena[:off]
			return nil // tautology, or already satisfied at root
		case s.value(l) == False:
			continue // cannot contribute
		}
		s.addMark[v] = mark | uint32(l&1)
		s.arena = append(grow(s.arena, 1), l)
	}
	switch len(s.arena) - off {
	case 0:
		s.rootUnsat = true
		return ErrUnsat
	case 1:
		l := s.arena[off]
		s.arena = s.arena[:off]
		s.enqueue(l, noClause)
		if s.propagate() != noClause {
			s.rootUnsat = true
			return ErrUnsat
		}
		return nil
	}
	if head >= 0 && s.assign[head] == Unknown && len(s.arena)-off >= 3 {
		// Store ¬head last, so both watches sit on the body and making
		// head true moves no watcher (see the package doc).
		body := s.arena[off:]
		nh := body[0]
		copy(body, body[1:])
		body[len(body)-1] = nh
	}
	c := s.newClause(off, false)
	s.clauses = append(s.clauses, c)
	if head >= 0 && s.assign[head] == Unknown {
		if s.ck != nil && int(head) < s.ck.nVars {
			s.Stats.UndoLogEntries++
			s.undoDef = append(s.undoDef, defSave{head, s.firstDef[head]})
		}
		s.hdr[c].nextDef = s.firstDef[head]
		s.firstDef[head] = c
	} else {
		s.roots = append(s.roots, c)
	}
	if s.watching {
		s.watchClause(c)
	}
	return nil
}

func (s *Solver) watchClause(c cref) {
	// Watch the first two literals.
	lits := s.lits(c)
	s.addWatch(lits[0].Neg(), watcher{c: c, blocker: lits[1]})
	s.addWatch(lits[1].Neg(), watcher{c: c, blocker: lits[0]})
}

// addWatch appends w to watch list l, logging the list first.
func (s *Solver) addWatch(l Lit, w watcher) {
	if s.unsaved(l) {
		s.saveWatches(l)
	}
	wl := &s.watches[l]
	if wl.n == wl.cap {
		s.growWatches(wl)
	}
	s.wpool[wl.off+wl.n] = w
	wl.n++
}

// growWatches doubles a full watch list's room: in place if the list ends
// the pool, else by moving it to the pool's end. The space it leaves is
// reclaimed by the next Rollback, or the next rebuild.
func (s *Solver) growWatches(wl *watchList) {
	room := max(2, 2*wl.cap)
	if int(wl.off+wl.cap) != len(s.wpool) {
		off := uint32(len(s.wpool))
		s.wpool = append(s.wpool, s.wpool[wl.off:wl.off+wl.n]...)
		wl.off, wl.cap = off, wl.n
	}
	s.wpool = append(s.wpool, make([]watcher, room-wl.cap)...)
	wl.cap = room
}

// unsaved reports whether watch list l still holds checkpoint contents
// that the undo log lacks. Lists created since the checkpoint need none.
func (s *Solver) unsaved(l Lit) bool {
	return int(l) < len(s.watchSaved) && s.watchSaved[l] != s.epoch
}

// saveWatches logs watch list l's contents before its first change of the
// epoch; callers test s.unsaved(l) first.
func (s *Solver) saveWatches(l Lit) {
	s.watchSaved[l] = s.epoch
	if s.watchLogStale {
		return
	}
	s.Stats.UndoLogEntries++
	wl := s.watches[l]
	s.undoWatch = append(grow(s.undoWatch, 1), watchSave{lit: l, list: wl})
	s.undoWatchW = append(grow(s.undoWatchW, int(wl.n)), s.wpool[wl.off:wl.off+wl.n]...)
}

// unsavedLits reports whether clause c is a checkpoint clause whose
// literal order the undo log lacks.
func (s *Solver) unsavedLits(c cref) bool {
	return int(c) < len(s.clauseSaved) && s.clauseSaved[c] != s.epoch
}

// saveLits logs c's literal order before its first reordering of the
// epoch; callers test s.unsavedLits(c) first.
func (s *Solver) saveLits(c cref) {
	s.clauseSaved[c] = s.epoch
	s.Stats.UndoLogEntries++
	lits := s.lits(c)
	s.undoClause = append(grow(s.undoClause, 1), c)
	s.undoLits = append(grow(s.undoLits, len(lits)), lits...)
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it must grow. append grows a large slice by a quarter, so
// an array that grows from empty is copied about five times over, and the
// copies it leaves behind drive the collector; every window's solver
// grows its per-variable arrays, header table and arena from empty. The
// undo logs keep their capacity across epochs and grow a little at each
// new high, which append would meet with a reallocation nearly every
// time.
func grow[T any](s []T, n int) []T {
	if n > cap(s)-len(s) {
		return slices.Grow(s, len(s)+n)
	}
	return s
}

// rebuildWatches rebuilds every watch list from scratch: problem clauses
// in order, then learned clauses. With no learned clauses this is the
// canonical layout Checkpoint establishes. The lists are laid out afresh
// from the start of the pool, each with at least its old room, so the
// space moved lists left behind is reclaimed. The rebuild rewrites lists
// wholesale, so it marks the watch log stale.
func (s *Solver) rebuildWatches() {
	s.watching = true
	s.watchLogStale = true
	for i := range s.watches {
		s.watches[i].n = 0
	}
	count := func(c cref) {
		lits := s.lits(c)
		s.watches[lits[0].Neg()].n++
		s.watches[lits[1].Neg()].n++
	}
	for _, c := range s.clauses {
		count(c)
	}
	for _, c := range s.learnts {
		count(c)
	}
	off := uint32(0)
	for i := range s.watches {
		wl := &s.watches[i]
		wl.off, wl.cap, wl.n = off, max(wl.cap, wl.n), 0
		off += wl.cap
	}
	s.wpool = slices.Grow(s.wpool[:0], int(off))[:off]
	s.wbase = int(off)
	fill := func(c cref) {
		lits := s.lits(c)
		for i, l := range lits[:2] {
			wl := &s.watches[l.Neg()]
			s.wpool[wl.off+wl.n] = watcher{c: c, blocker: lits[1-i]}
			wl.n++
		}
	}
	for _, c := range s.clauses {
		fill(c)
	}
	for _, c := range s.learnts {
		fill(c)
	}
}

// compact slides the literals of the clauses still live down over those
// of deleted ones, keeping every clause reference. Deletion only hits
// learned clauses, which sit after every checkpoint clause, so the
// literals of checkpoint clauses never move.
func (s *Solver) compact() {
	end := uint32(0)
	for i := range s.hdr {
		h := &s.hdr[i]
		if h.n == 0 {
			continue
		}
		copy(s.arena[end:], s.arena[h.off:h.off+h.n])
		h.off = end
		end += h.n
	}
	s.arena = s.arena[:end]
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

// enqueue assigns l true with the given reason clause and puts it on the
// propagation queue. The caller must ensure l is currently unassigned.
func (s *Solver) enqueue(l Lit, from cref) {
	v := l.Var()
	if l.Positive() {
		s.assign[v] = True
	} else {
		s.assign[v] = False
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.phase[v] = l.Positive()
	s.trail = append(s.trail, l)
}

// propagate runs unit propagation to fixpoint; it returns the conflicting
// clause, or noClause.
func (s *Solver) propagate() cref {
	if !s.watching {
		s.rebuildWatches()
	}
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true; scan watchers of p (lit.Neg()==p watch list index p)
		s.qhead++
		s.Stats.Propagations++
		// The list is compacted in place: j is where the next kept watcher
		// goes. Until its first change every watcher is rewritten onto
		// itself, so the list still holds its old contents when that
		// change logs it. Moving a watcher to another list may move the
		// pool, but never p's list, so positions are reread through
		// s.wpool.
		wl := s.watches[p]
		logP := s.unsaved(p)
		j, end := wl.off, wl.off+wl.n
		conflict := noClause
		for i := wl.off; i < end; i++ {
			w := s.wpool[i]
			if conflict != noClause {
				j += uint32(copy(s.wpool[j:end], s.wpool[i:end]))
				break
			}
			if s.value(w.blocker) == True {
				s.wpool[j] = w
				j++
				continue
			}
			c := w.c
			h := &s.hdr[c]
			if h.n == 2 {
				// A binary clause's blocker is its other literal: the
				// clause is unit or conflicting as it stands.
				s.wpool[j] = w
				j++
				if s.value(w.blocker) == False {
					conflict = c
					s.qhead = len(s.trail)
				} else {
					s.enqueue(w.blocker, c)
				}
				continue
			}
			lits := s.arena[h.off : h.off+h.n]
			// Ensure the false literal (¬p) is lits[1].
			np := p.Neg()
			if lits[0] == np {
				if s.unsavedLits(c) {
					s.saveLits(c)
				}
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && logP {
				s.saveWatches(p) // the blocker is about to be rewritten
				logP = false
			}
			if first != w.blocker && s.value(first) == True {
				s.wpool[j] = watcher{c: c, blocker: first}
				j++
				continue
			}
			// Look for a new literal to watch.
			moved := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != False {
					if s.unsavedLits(c) {
						s.saveLits(c)
					}
					if logP {
						s.saveWatches(p) // the watcher leaves p's list
						logP = false
					}
					lits[1], lits[k] = lits[k], lits[1]
					s.Stats.WatchMoves++
					s.addWatch(lits[1].Neg(), watcher{c: c, blocker: first})
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Clause is unit or conflicting.
			s.wpool[j] = watcher{c: c, blocker: first}
			j++
			if s.value(first) == False {
				conflict = c
				s.qhead = len(s.trail)
			} else {
				s.enqueue(first, c)
			}
		}
		s.watches[p].n = j - wl.off
		if conflict != noClause {
			return conflict
		}
	}
	return noClause
}

// assertTheory forwards newly assigned theory-relevant literals to the
// theory. It returns a theory conflict as a clause of negated asserted
// literals, or noClause.
func (s *Solver) assertTheory() cref {
	if s.theory == nil {
		s.thead = len(s.trail)
		return noClause
	}
	for s.thead < len(s.trail) {
		l := s.trail[s.thead]
		s.thead++
		if !s.theory.Relevant(l.Var()) {
			continue
		}
		s.Stats.TheoryProps++
		if confl := s.theory.Assert(l); confl != nil {
			s.Stats.TheoryConfl++
			return s.conflictClause(confl)
		}
	}
	return noClause
}

// conflictClause converts a theory conflict (a set of true literals) into
// the scratch clause theoryConfl, asserting their negation. Like a fresh
// learned clause, it starts with no activity.
func (s *Solver) conflictClause(confl []Lit) cref {
	s.conflLits = s.conflLits[:0]
	for _, l := range confl {
		if s.value(l) != True {
			panic("sat: theory conflict contains non-asserted literal " + l.String())
		}
		s.conflLits = append(s.conflLits, l.Neg())
	}
	s.hdr[theoryConfl].act = 0
	return theoryConfl
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (with the asserting literal first) and the backjump level.
func (s *Solver) analyze(confl cref) ([]Lit, int32) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	seen := s.seen
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	c := confl
	for {
		if s.hdr[c].learned {
			s.bumpClause(c)
		}
		// A reason clause holds the literal it implied, p, anywhere.
		for _, q := range s.lits(c) {
			v := q.Var()
			if q == p || seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next trail literal at the current decision level that is
		// marked seen.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		c = s.reason[p.Var()]
		if c == noClause {
			panic("sat: decision literal reached before first UIP")
		}
	}
	learnt[0] = p.Neg()
	// The marks left are exactly the variables of learnt[1:]: every mark
	// at the current level was cleared when its literal was resolved.
	for _, q := range learnt[1:] {
		seen[q.Var()] = false
	}

	// Conflict clause minimisation: drop literals whose negations are
	// implied by the remainder of the clause through their reasons.
	minimised := learnt[:1]
	for _, q := range learnt[1:] {
		if !s.redundant(q, learnt) {
			minimised = append(minimised, q)
		}
	}
	learnt = minimised

	// Compute backjump level: highest level among learnt[1:].
	var back int32
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		back = s.level[learnt[1].Var()]
	}
	return learnt, back
}

// redundant reports whether literal q of a learned clause is implied by the
// other literals, by checking that its reason's literals are all already in
// the clause (one-step self-subsumption).
func (s *Solver) redundant(q Lit, learnt []Lit) bool {
	c := s.reason[q.Var()]
	if c == noClause {
		return false
	}
	inClause := func(v Var) bool {
		for _, l := range learnt {
			if l.Var() == v {
				return true
			}
		}
		return false
	}
	for _, l := range s.lits(c) {
		if l.Var() == q.Var() {
			continue
		}
		if s.level[l.Var()] == 0 {
			continue
		}
		if !inClause(l.Var()) {
			return false
		}
	}
	return true
}

func (s *Solver) bumpClause(c cref) {
	h := &s.hdr[c]
	h.act += s.clauseInc
	if h.act > 1e20 {
		for _, l := range s.learnts {
			s.hdr[l].act *= 1e-20
		}
		s.clauseInc *= 1e-20
	}
}

func (s *Solver) decayClauseActivity() { s.clauseInc /= 0.999 }

// maxLearnts bounds the learned-clause database for long-lived solvers
// (one window's solver serves many conflicting-pair queries).
const maxLearnts = 20000

// reduceDB removes the lower-activity half of the learned clauses,
// keeping binary clauses and clauses currently locked as reasons.
func (s *Solver) reduceDB() {
	if len(s.learnts) < maxLearnts {
		return
	}
	locked := make(map[cref]bool, len(s.trail))
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != noClause {
			locked[r] = true
		}
	}
	sorted := slices.Clone(s.learnts)
	sort.Slice(sorted, func(i, j int) bool { return s.hdr[sorted[i]].act > s.hdr[sorted[j]].act })
	keep := make(map[cref]bool, len(sorted)/2)
	for i, c := range sorted {
		if i < len(sorted)/2 || s.hdr[c].n == 2 || locked[c] {
			keep[c] = true
		}
	}
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if keep[c] {
			kept = append(kept, c)
		} else {
			s.hdr[c].n = 0
		}
	}
	s.learnts = kept
	s.compact()
	// Rebuild all watch lists (simpler than surgical removal and amortised
	// over maxLearnts conflicts). This is the one change the undo log does
	// not record; the next Rollback rebuilds the lists instead.
	s.rebuildWatches()
}

// backtrack undoes assignments above the given level.
func (s *Solver) backtrack(level int32) {
	if s.decisionLevel() <= level {
		return
	}
	if s.theory != nil {
		s.theory.Pop(int(s.decisionLevel() - level))
	}
	limit := s.trailLim[level]
	for i := len(s.trail) - 1; i >= limit; i-- {
		v := s.trail[i].Var()
		s.assign[v] = Unknown
		s.level[v] = 0
		s.reason[v] = noClause
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:level]
	s.cur = s.cursors[level]
	s.cursors = s.cursors[:level]
	s.qhead = limit
	if s.thead > limit {
		s.thead = limit
	}
}

// newLevel opens a decision level.
func (s *Solver) newLevel() {
	s.trailLim = append(s.trailLim, len(s.trail))
	s.cursors = append(s.cursors, s.cur)
	if s.theory != nil {
		s.theory.Push()
	}
}

// pickBranch returns the decision literal for the first unsatisfied
// clause of the justification frontier, advancing the cursor past the
// satisfied ones; ok is false when the whole frontier is satisfied. The
// definitions come first: they hold the query's own cone, where its
// conflicts are.
func (s *Solver) pickBranch() (l Lit, ok bool) {
	cur := &s.cur
	for {
		for ; cur.def != noClause; cur.def = s.hdr[cur.def].nextDef {
			if l, ok := s.branchLit(cur.def); ok {
				return l, true
			}
		}
		if cur.trail == len(s.trail) {
			break
		}
		if t := s.trail[cur.trail]; t.Positive() {
			cur.def = s.firstDef[t.Var()]
		}
		cur.trail++
	}
	for ; cur.root < len(s.roots); cur.root++ {
		if l, ok := s.branchLit(s.roots[cur.root]); ok {
			return l, true
		}
	}
	return 0, false
}

// branchLit returns c's first unassigned literal that agrees with its
// variable's saved phase, else its first unassigned literal; ok is false
// when c is satisfied, or when one of its unassigned literals holds in
// the theory's model. After propagation an unsatisfied clause has at
// least two unassigned literals.
func (s *Solver) branchLit(c cref) (l Lit, ok bool) {
	first, agreed := Lit(-1), Lit(-1)
	held := false
	for _, q := range s.lits(c) {
		switch s.value(q) {
		case True:
			return 0, false
		case Unknown:
			if first < 0 {
				first = q
			}
			if agreed < 0 && s.phase[q.Var()] == q.Positive() {
				agreed = q
			}
			held = held || s.theory != nil && s.theory.Holds(q)
		}
	}
	switch {
	case held:
		s.held = true
		return 0, false
	case agreed >= 0:
		return agreed, true
	case first >= 0:
		return first, true
	}
	panic("sat: frontier clause falsified after propagation")
}

// luby computes the Luby restart sequence element for index i (1-based).
func luby(i int64) int64 {
	// Find the finite subsequence containing index i.
	var k int64 = 1
	for (1<<uint(k))-1 < i {
		k++
	}
	for (1<<uint(k))-1 != i {
		i -= (1 << uint(k-1)) - 1
		k = 1
		for (1<<uint(k))-1 < i {
			k++
		}
	}
	return 1 << uint(k-1)
}

// Result is the outcome of a Solve call.
type Result int8

// Solve outcomes.
const (
	// Unsat means the formula (with the theory) has no model.
	Unsat Result = iota
	// Sat means a model was found; read it with ModelValue.
	Sat
	// Aborted means the conflict budget was exhausted.
	Aborted
)

func (r Result) String() string {
	switch r {
	case Unsat:
		return "unsat"
	case Sat:
		return "sat"
	}
	return "aborted"
}

// Solve runs the CDCL search and returns Sat, Unsat or (if the Deadline
// passed or Cancel fired) Aborted.
func (s *Solver) Solve() Result { return s.SolveAssuming(nil) }

// SolveAssuming runs the search with the given literals assumed true for
// this call only. Assumptions are decided first, one per decision level;
// clauses learned during the call remain valid for future calls, which is
// what makes one long-lived solver per analysis window efficient across
// many queries. An Unsat result under assumptions does not poison the
// solver: later calls with different assumptions may succeed.
//
// Decisions justify a frontier instead of assigning every variable. The
// frontier is the definitions (AddDef) of every head that is currently
// true, in trail order, then every root clause; each decision picks the
// first frontier clause that is not justified and makes one of its
// literals true, preferring the saved phase. A clause is justified when
// a true literal satisfies it, or when one of its unassigned theory
// literals holds in the theory's current model (Theory.Holds): the
// theory already satisfies that order constraint, so deciding it would
// only repeat the theory's work. The model moves as the search asserts
// more literals, so a clause the model justified may lose that later.
// Hence, before answering Sat, the search walks the whole frontier again
// against the final model, decides the first clause that is no longer
// justified, and carries on; it answers Sat only once a full walk finds
// every frontier clause justified and the theory's Check accepts the
// asserted literals, with variables nothing needed left unassigned.
//
// That is sound: complete the assignment by making every unassigned head
// false and every unassigned theory variable take its value in the
// theory's final model. Root clauses and the definitions of true heads
// hold, through a true literal or a model-held theory literal that the
// completion makes true; the definitions of the other heads hold through
// their false heads; the theory accepts the completion (see Theory); and
// the learned clauses follow from the problem clauses and the theory, so
// they hold too. ModelValue reports that completion, with the saved
// phase for every other unassigned variable.
func (s *Solver) SolveAssuming(assumptions []Lit) Result {
	s.assumps = assumptions
	s.abortCause = AbortNone
	defer func() { s.assumps = nil }()
	s.clearModel()
	if s.rootUnsat {
		return Unsat
	}
	if s.Cancel != nil && s.Cancel() {
		s.abortCause = AbortCancelled
		return Aborted
	}
	if c := s.propagate(); c != noClause {
		s.rootUnsat = true
		return Unsat
	}
	if c := s.assertTheory(); c != noClause {
		// A theory conflict at root level over root-level assignments.
		s.rootUnsat = true
		return Unsat
	}
	s.cur = cursor{}
	s.held = false

	var conflicts int64
	restartBase := int64(100)
	restartNum := int64(1)
	budget := restartBase * luby(restartNum)

	for {
		confl := s.propagate()
		if confl == noClause {
			confl = s.assertTheory()
		}
		if confl == noClause {
			if dl := int(s.decisionLevel()); dl < len(s.assumps) {
				// Establish the next assumption as a decision.
				p := s.assumps[dl]
				switch s.value(p) {
				case True:
					// Already implied: open a dummy level to keep the
					// assumption-index/decision-level correspondence.
					s.newLevel()
				case False:
					// The assumptions are jointly inconsistent with the
					// clause set: unsat under these assumptions only.
					s.backtrack(0)
					return Unsat
				default:
					s.Stats.Decisions++
					s.newLevel()
					s.enqueue(p, noClause)
				}
				continue
			}
			l, ok := s.pickBranch()
			if !ok && s.held {
				// The model justified clauses the cursor passed; walk the
				// whole frontier again against the final model.
				s.cur = cursor{}
				l, ok = s.pickBranch()
			}
			if ok {
				s.Stats.Decisions++
				s.newLevel()
				s.enqueue(l, noClause)
				continue
			}
			// The frontier holds; ask the theory for a final verdict.
			if s.theory != nil {
				if tc := s.theory.Check(); tc != nil {
					s.Stats.TheoryConfl++
					confl = s.conflictClause(tc)
				}
			}
			if confl == noClause {
				s.saveModel()
				s.backtrack(0)
				return Sat
			}
		}

		// Conflict handling. Theory conflicts need not involve the current
		// decision level; back off to the highest level present in the
		// clause so analyze always finds a current-level literal.
		conflicts++
		s.Stats.Conflicts++
		var top int32
		for _, l := range s.lits(confl) {
			if s.level[l.Var()] > top {
				top = s.level[l.Var()]
			}
		}
		if top == 0 {
			s.rootUnsat = true
			return Unsat
		}
		s.backtrack(top)
		learnt, back := s.analyze(confl)
		s.backtrack(back)
		s.learn(learnt)
		s.decayClauseActivity()
		if conflicts%64 == 1 {
			if !s.Deadline.IsZero() && time.Now().After(s.Deadline) {
				s.abortCause = AbortDeadline
				s.backtrack(0)
				return Aborted
			}
			if s.Cancel != nil && s.Cancel() {
				s.abortCause = AbortCancelled
				s.backtrack(0)
				return Aborted
			}
		}
		if conflicts >= budget {
			s.Stats.Restarts++
			restartNum++
			budget = conflicts + restartBase*luby(restartNum)
			s.backtrack(0)
			// Restarts return to level 0, where the watch lists can be
			// rebuilt safely; trim the learned-clause database if needed.
			s.reduceDB()
		}
	}
}

// learn records a learned clause (asserting literal first) and enqueues its
// asserting literal.
func (s *Solver) learn(lits []Lit) {
	s.Stats.Learned++
	if len(lits) == 1 {
		s.enqueue(lits[0], noClause)
		return
	}
	off := len(s.arena)
	s.arena = append(grow(s.arena, len(lits)), lits...)
	c := s.newClause(off, true)
	s.learnts = append(s.learnts, c)
	s.watchClause(c)
	s.enqueue(lits[0], c)
}

// LastAbortCause reports why the most recent Solve call returned Aborted
// (AbortNone if it returned Sat or Unsat). The telemetry layer uses it to
// split the paper's single "gave up" bucket into timeout versus
// cancellation.
func (s *Solver) LastAbortCause() AbortCause { return s.abortCause }

// Checkpoint is the root-level state of a solver, taken with
// Solver.Checkpoint and restored with Solver.Rollback. It exists for the
// replica-solver architecture of the race detector's pair scheduler: one
// base formula is asserted once, checkpointed, and every query group is
// solved from the exact same canonical state, so the models found — and
// hence the extracted witnesses — are bit-identical no matter which worker
// solves which group in which order.
//
// A Checkpoint copies the phases, which any search rewrites wholesale.
// The rest needs no copy. Clauses and watch lists created since sit at
// the tails of the arena, the header table and the watch pool, so
// Rollback truncates them. Checkpoint watch lists and clause literal
// orders go to the solver's undo log the first time they change, and so
// does a checkpoint head's definition index when a later AddDef extends
// it. Root clauses and the root trail only ever grow, and at the root
// level a variable is assigned, and has a reason, exactly when it is on
// the trail, with level 0 either way (backtracking resets levels); so
// undoing the trail entries added since restores assignments, reasons
// and levels.
type Checkpoint struct {
	nVars     int
	nClauses  int
	nRoots    int
	nHdr      int
	nArena    int
	nTrail    int
	qhead     int
	thead     int
	phase     []bool
	clauseInc float64
	rootUnsat bool
}

// Checkpoint snapshots the solver's state. It must be taken at the root
// level (decision level 0), i.e. outside any Solve call — the normal state
// between AddClause batches. Taking a checkpoint first propagates the
// root facts, to the theory as well, so no query repeats that work; a
// conflict leaves the checkpoint root-unsat. It also canonicalises the
// live state: learned clauses are deleted and the watch lists rebuilt in
// clause order. That is exactly the state Rollback reproduces, so the
// first query after Checkpoint starts from the same state as every query
// after a Rollback. A new Checkpoint supersedes the solver's previous one.
func (s *Solver) Checkpoint() *Checkpoint {
	if s.decisionLevel() != 0 {
		panic("sat: Checkpoint above root level")
	}
	if !s.rootUnsat && (s.propagate() != noClause || s.assertTheory() != noClause) {
		s.rootUnsat = true
	}
	if len(s.learnts) > 0 {
		for _, c := range s.learnts {
			s.hdr[c].n = 0
		}
		s.learnts = s.learnts[:0]
		s.compact()
	}
	s.rebuildWatches()
	s.clearModel()
	s.abortCause = AbortNone
	s.watchSaved = append(s.watchSaved[:0], make([]uint32, len(s.watches))...)
	s.clauseSaved = append(s.clauseSaved[:0], make([]uint32, len(s.hdr))...)
	s.ck = &Checkpoint{
		nVars:     len(s.assign),
		nClauses:  len(s.clauses),
		nRoots:    len(s.roots),
		nHdr:      len(s.hdr),
		nArena:    len(s.arena),
		nTrail:    len(s.trail),
		qhead:     s.qhead,
		thead:     s.thead,
		phase:     append([]bool(nil), s.phase...),
		clauseInc: s.clauseInc,
		rootUnsat: s.rootUnsat,
	}
	s.newEpoch()
	return s.ck
}

// Rollback restores the state captured by ck, which must be the solver's
// latest Checkpoint: variables and clauses added since are discarded,
// learned clauses dropped, and everything else put back — watch lists
// with their order and blockers, clause literal orders, the definition
// index, assignments, phases and the trail. It must be called at the
// root level. The restored state is byte-for-byte the state Checkpoint
// left behind, so repeated Rollback/solve cycles are deterministic.
//
// The cost is what the solver changed since the last restore — the logged
// watch lists, clauses and definition heads and the root trail's growth —
// plus a flat copy of ck's phases. Only if a learned-clause reduction
// rewrote every watch list since does Rollback rebuild the lists, exactly
// as Checkpoint did.
func (s *Solver) Rollback(ck *Checkpoint) {
	if s.decisionLevel() != 0 {
		panic("sat: Rollback above root level")
	}
	if ck != s.ck {
		panic("sat: Rollback to a checkpoint other than the latest")
	}
	// Clauses: restore the logged literal orders, then cut the clauses
	// added since, learned ones included (they may mention discarded
	// variables, and a canonical restart state must not depend on earlier
	// searches), off the arena and the header table.
	off := 0
	for _, c := range s.undoClause {
		off += copy(s.lits(c), s.undoLits[off:])
	}
	s.arena = s.arena[:ck.nArena]
	s.hdr = s.hdr[:ck.nHdr]
	s.clauses = s.clauses[:ck.nClauses]
	s.roots = s.roots[:ck.nRoots]
	s.learnts = s.learnts[:0]
	// Definitions: unlink the ones added to checkpoint heads, newest
	// first, and drop the discarded variables' chains.
	for i := len(s.undoDef) - 1; i >= 0; i-- {
		s.firstDef[s.undoDef[i].head] = s.undoDef[i].first
	}
	s.firstDef = s.firstDef[:ck.nVars]
	// Watch lists: drop the discarded variables' lists, then put back the
	// logged ones where they were and cut the pool to its checkpoint
	// length (or rebuild every list if the log went stale).
	s.watches = s.watches[:2*ck.nVars]
	if s.watchLogStale {
		s.rebuildWatches()
	} else {
		off = 0
		for _, w := range s.undoWatch {
			s.watches[w.lit] = w.list
			off += copy(s.wpool[w.list.off:w.list.off+w.list.n], s.undoWatchW[off:])
		}
		s.wpool = s.wpool[:s.wbase]
	}
	// Variables: unassign what the root trail gained, then truncate.
	for _, l := range s.trail[ck.nTrail:] {
		if v := l.Var(); int(v) < ck.nVars {
			s.assign[v] = Unknown
			s.reason[v] = noClause
		}
	}
	s.trail = s.trail[:ck.nTrail]
	s.trailLim = s.trailLim[:0]
	s.qhead, s.thead = ck.qhead, ck.thead
	s.assign = s.assign[:ck.nVars]
	s.level = s.level[:ck.nVars]
	s.reason = s.reason[:ck.nVars]
	s.seen = s.seen[:ck.nVars]
	s.phase = append(s.phase[:0], ck.phase...)
	s.clauseInc = ck.clauseInc
	s.rootUnsat = ck.rootUnsat
	s.clearModel()
	s.abortCause = AbortNone
	s.newEpoch()
}

// newEpoch empties the undo log and starts a new epoch, so every
// checkpoint watch list and clause counts as unlogged.
func (s *Solver) newEpoch() {
	s.undoWatch = s.undoWatch[:0]
	s.undoWatchW = s.undoWatchW[:0]
	s.undoClause = s.undoClause[:0]
	s.undoLits = s.undoLits[:0]
	s.undoDef = s.undoDef[:0]
	s.watchLogStale = false
	s.epoch++
	if s.epoch == 0 { // wrapped: clear the stamps so none looks current
		clear(s.watchSaved)
		clear(s.clauseSaved)
		s.epoch = 1
	}
}

// saveModel records the assignment of a Sat answer for ModelValue. The
// cost is the trail's length, not the number of variables: only the
// entries the previous answer set are reset.
func (s *Solver) saveModel() {
	s.clearModel()
	if n := len(s.assign) - len(s.model); n > 0 {
		s.model = append(s.model, make([]Value, n)...)
	}
	s.modelTrail = append(s.modelTrail, s.trail...)
	for _, l := range s.trail {
		s.model[l.Var()] = s.assign[l.Var()]
	}
	s.modelVars = len(s.assign)
}

// clearModel forgets the latest Sat answer's assignment.
func (s *Solver) clearModel() {
	for _, l := range s.modelTrail {
		s.model[l.Var()] = Unknown
	}
	s.modelTrail = s.modelTrail[:0]
	s.modelVars = 0
}

// ModelValue returns the value of v in the model of the latest Solve
// call, if it answered Sat; Unknown otherwise, and for variables
// allocated since. A variable the search left unassigned reads False if
// it heads a definition, its value in the theory's model (Theory.Model)
// if it is theory-relevant, and its saved phase otherwise. The model
// lasts until the next Solve, Checkpoint or Rollback.
func (s *Solver) ModelValue(v Var) Value {
	if int(v) >= s.modelVars {
		return Unknown
	}
	switch {
	case s.model[v] != Unknown:
		return s.model[v]
	case s.firstDef[v] != noClause:
		return False
	case s.theory != nil && s.theory.Relevant(v):
		if s.theory.Model(MkLit(v, true)) {
			return True
		}
		return False
	case s.phase[v]:
		return True
	}
	return False
}
