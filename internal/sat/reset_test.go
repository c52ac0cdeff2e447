package sat

import (
	"fmt"
	"slices"
	"testing"
)

// TestTrueHeadMovesNoWatcher checks that making a head true leaves its
// definitions of three or more literals where they are watched: no
// watcher moves and nothing reaches the undo log. The same clauses added
// as root clauses, watched on ¬h, move a watcher each.
func TestTrueHeadMovesNoWatcher(t *testing.T) {
	for _, asDef := range []bool{true, false} {
		s := New(nil)
		h := s.NewVar()
		var body []Lit
		for range 6 {
			body = append(body, MkLit(s.NewVar(), true))
		}
		defs := [][]Lit{body[0:3], body[2:6], {body[5], body[1], body[3]}}
		for _, d := range defs {
			var err error
			if asDef {
				err = s.AddDef(h, d...)
			} else {
				err = s.AddClause(append([]Lit{MkLit(h, false)}, d...)...)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		s.Checkpoint()
		// Make h true without deciding anything else: an assumption, then
		// propagation, and nothing forces a body literal.
		s.newLevel()
		s.enqueue(MkLit(h, true), noClause)
		if c := s.propagate(); c != noClause {
			t.Fatal("conflict")
		}
		moves, logged := s.Stats.WatchMoves, s.Stats.UndoLogEntries
		s.backtrack(0)
		switch {
		case asDef && (moves != 0 || logged != 0):
			t.Errorf("definitions: head true moved %d watchers and logged %d entries, want none", moves, logged)
		case !asDef && moves != int64(len(defs)):
			t.Errorf("root clauses: head true moved %d watchers, want %d", moves, len(defs))
		}
	}
}

// TestResetMatchesFresh checks that a Reset solver is a new one: fed the
// same formula, checkpoint and queries after deciding a larger formula,
// it lays the watch lists out the same way (headers, pool length and
// contents) and gives the same verdicts, models and Stats as a solver
// built with New.
func TestResetMatchesFresh(t *testing.T) {
	for _, theory := range []bool{false, true} {
		t.Run(fmt.Sprintf("theory=%v", theory), func(t *testing.T) {
			const seed, nVars, nClauses = 5, 60, 250
			fresh := newRollbackFixture(seed, nVars, nClauses, theory)
			reused := newRollbackFixture(9, 90, 380, theory)
			for range 3 {
				reused.run(reused.newQuery(30))
				reused.rollback(t, "warm-up query")
			}
			reused.s.Reset()
			if theory {
				*reused.th = amoTheory{nRel: Var(min(nVars, 8))}
			}
			reused.build(seed, nVars, nClauses)

			compare := func(what string) {
				t.Helper()
				if d := stateDiff(captureState(fresh.s), captureState(reused.s)); d != "" {
					t.Fatalf("%s: %s", what, d)
				}
				if !slices.Equal(fresh.s.watches, reused.s.watches) || len(fresh.s.wpool) != len(reused.s.wpool) {
					t.Fatalf("%s: watch-list layout differs", what)
				}
				if fresh.s.Stats != reused.s.Stats {
					t.Fatalf("%s: stats %+v, want %+v", what, reused.s.Stats, fresh.s.Stats)
				}
			}
			compare("checkpoint")
			for i := range 8 {
				q := fresh.newQuery(12 + 4*i)
				reused.newQuery(12 + 4*i) // keep the generators in step
				r1, m1 := fresh.run(q)
				r2, m2 := reused.run(q)
				if r1 != r2 || !slices.Equal(m1, m2) {
					t.Fatalf("query %d: reused solver gives %v %v, new one %v %v", i, r2, m2, r1, m1)
				}
				fresh.rollback(t, "query")
				reused.rollback(t, "query")
				compare(fmt.Sprintf("after query %d", i))
			}
		})
	}
}
