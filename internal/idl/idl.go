// Package idl implements an incremental Integer Difference Logic (IDL)
// theory solver: conjunctions of constraints of the form x − y ≤ c over
// integer variables, with backtracking and minimal conflict extraction.
//
// This is the theory the paper solves its race constraints in ("all
// constraints become simple ordering comparisons over integer variables,
// which can be solved efficiently using the Integer Difference Logic
// provided in both Z3 and Yices", Section 4). Combined with the CDCL core
// in internal/sat it forms a DPLL(T) solver for the boolean combinations of
// order literals produced by the constraint encoder.
//
// The solver maintains a feasible potential function π over the constraint
// graph (an edge y→x with weight c per constraint x − y ≤ c, feasibility
// being π(x) − π(y) ≤ c for every edge). Asserting a constraint repairs π
// with a Dijkstra-like relaxation in the style of Cotton & Maler ("Fast and
// flexible difference constraint propagation", SAT 2006); a repair that
// propagates back to the new edge's source certifies a negative cycle,
// which is returned as the set of tags of the constraints on the cycle —
// exactly the minimal explanation DPLL(T) needs.
package idl

// VarID identifies an integer variable of the difference logic.
type VarID int32

// Tag identifies an asserted constraint in conflicts; the SMT layer uses
// SAT literals as tags.
type Tag int32

// Fact is the tag reserved for constraints that hold unconditionally, such
// as the SMT layer's root facts. A conflict cycle carries it like any other
// tag; the caller drops it from the explanation, since a fact needs no
// justification, and a cycle of facts alone makes the constraints
// unsatisfiable outright.
const Fact Tag = -1

type edge struct {
	from, to VarID
	weight   int64
	tag      Tag
}

// Stats aggregates theory-solver counters, mirroring sat.Stats one layer
// down: how many atom constraints were asserted, how many assertions
// certified a negative cycle (theory conflicts), and how many node
// settlements the Cotton–Maler potential repair performed — the theory
// solver's unit of work, the counter that grows when the search strays far
// from the seeded trace order.
type Stats struct {
	Asserts        int64 // constraints asserted (including conflicting ones)
	NegativeCycles int64 // assertions rejected with a negative-cycle conflict
	RepairSteps    int64 // nodes settled during potential repair
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Asserts += other.Asserts
	s.NegativeCycles += other.NegativeCycles
	s.RepairSteps += other.RepairSteps
}

// Solver is an incremental IDL solver. The zero value is not usable;
// construct with New.
type Solver struct {
	pot   []int64   // potential function, indexed by VarID
	edges []edge    // assertion trail, in assertion order
	out   [][]int32 // adjacency: outgoing edge indices per variable
	marks []int     // Push marks: length of edges at each push

	// scratch state for relaxation
	gamma  []int64
	parent []int32 // edge index that last improved a node
	heap   gammaHeap
	dirty  []VarID // nodes with touched gamma/parent, reset per relaxation

	// rollback log of potential changes during a failed relaxation
	undo []potChange

	// Stats counts assertions, conflicts and repair work (see Stats).
	Stats Stats
}

type potChange struct {
	v   VarID
	old int64
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{}
	s.heap.gamma = &s.gamma
	return s
}

// NewVar allocates a fresh integer variable, initially assigned 0.
func (s *Solver) NewVar() VarID { return s.NewVarAt(0) }

// NewVarAt allocates a fresh integer variable with the given initial
// value. A well-chosen hint makes assertions that the hint already
// satisfies O(1): the race encoders seed each event's order variable with
// its position in the observed trace, so the bulk of Φ_mhb, Φ_lock and the
// read-consistency atoms — all satisfied by the original order — never
// trigger potential repair.
func (s *Solver) NewVarAt(hint int64) VarID {
	v := VarID(len(s.pot))
	s.pot = append(s.pot, hint)
	if len(s.out) < cap(s.out) {
		// Reuse the adjacency list a rolled-back or reset variable left.
		s.out = s.out[:v+1]
		s.out[v] = s.out[v][:0]
	} else {
		s.out = append(s.out, nil)
	}
	s.gamma = append(s.gamma, 0)
	s.parent = append(s.parent, -1)
	return v
}

// Reset empties the solver into the state New leaves but keeps the
// capacity of its arrays, the adjacency lists of its variables included,
// so a solver reused for a new constraint system grows none of them again
// until the system outgrows the previous one. Stats are cleared too.
func (s *Solver) Reset() {
	s.pot = s.pot[:0]
	s.edges = s.edges[:0]
	s.out = s.out[:0]
	s.marks = s.marks[:0]
	s.gamma = s.gamma[:0]
	s.parent = s.parent[:0]
	s.heap.reset()
	s.dirty = s.dirty[:0]
	s.undo = s.undo[:0]
	s.Stats = Stats{}
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.pot) }

// Value returns x's value in the current feasible assignment. Values are
// meaningful whenever the solver is in a consistent state (every Assert
// since the last Pop returned nil).
func (s *Solver) Value(x VarID) int64 { return s.pot[x] }

// Push marks a backtracking point.
func (s *Solver) Push() { s.marks = append(s.marks, len(s.edges)) }

// Pop undoes the most recent n Push marks, retracting every constraint
// asserted since. The potential function remains feasible (it satisfies a
// superset of the remaining constraints).
func (s *Solver) Pop(n int) {
	if n <= 0 {
		return
	}
	target := s.marks[len(s.marks)-n]
	s.marks = s.marks[:len(s.marks)-n]
	// Edges were appended to each adjacency list in trail order, so
	// removing them in reverse trail order always removes list tails.
	for i := len(s.edges) - 1; i >= target; i-- {
		e := s.edges[i]
		lst := s.out[e.from]
		s.out[e.from] = lst[:len(lst)-1]
	}
	s.edges = s.edges[:target]
}

// Checkpoint is a snapshot of the solver's state, taken with
// Solver.Checkpoint and restored with Solver.Rollback. Potentials must be
// copied in full: a successful relaxation mutates them permanently (Pop
// only retracts edges), so two solves from "the same" constraint set can
// otherwise start from different feasible assignments and find different
// models. The race detector's pair scheduler rolls the theory back
// between query groups so every group sees the seeded trace-order
// potentials, making models — and witnesses — canonical.
//
// Rollback cuts only the edges added since off the adjacency-list tails,
// and copies every variable's potential back from the checkpoint.
type Checkpoint struct {
	nVars  int
	nEdges int
	nMarks int
	pot    []int64
}

// Checkpoint snapshots the solver's state.
func (s *Solver) Checkpoint() *Checkpoint {
	return &Checkpoint{
		nVars:  len(s.pot),
		nEdges: len(s.edges),
		nMarks: len(s.marks),
		pot:    append([]int64(nil), s.pot...),
	}
}

// Rollback restores the state captured by ck: variables and constraints
// added since are discarded and the potential function is restored
// exactly, so subsequent assertions replay deterministically.
func (s *Solver) Rollback(ck *Checkpoint) {
	// Edges were appended to adjacency lists in trail order; remove in
	// reverse so only list tails are cut (same invariant Pop relies on).
	for i := len(s.edges) - 1; i >= ck.nEdges; i-- {
		e := s.edges[i]
		lst := s.out[e.from]
		s.out[e.from] = lst[:len(lst)-1]
	}
	s.edges = s.edges[:ck.nEdges]
	s.marks = s.marks[:ck.nMarks]
	s.pot = append(s.pot[:0], ck.pot...)
	s.out = s.out[:ck.nVars]
	s.gamma = s.gamma[:ck.nVars]
	s.parent = s.parent[:ck.nVars]
}

// Assert adds the constraint x − y ≤ c with the given tag. It returns nil
// if the constraint system remains satisfiable, and otherwise the tags of a
// negative cycle — an inconsistent subset of asserted constraints including
// this one. On conflict the constraint is not retained and the solver state
// is unchanged.
func (s *Solver) Assert(x, y VarID, c int64, tag Tag) []Tag {
	s.Stats.Asserts++
	// Edge y→x with weight c; feasibility requires pot[x] − pot[y] ≤ c.
	if s.pot[x]-s.pot[y] <= c {
		s.addEdge(edge{from: y, to: x, weight: c, tag: tag})
		return nil
	}
	tags := s.relax(edge{from: y, to: x, weight: c, tag: tag})
	if tags != nil {
		s.Stats.NegativeCycles++
	}
	return tags
}

func (s *Solver) addEdge(e edge) {
	idx := int32(len(s.edges))
	s.edges = append(s.edges, e)
	s.out[e.from] = append(s.out[e.from], idx)
}

// relax repairs the potential function after adding edge ne (whose
// constraint is currently violated). It either succeeds — potentials
// updated, edge recorded, returns nil — or finds a negative cycle, rolls
// back all potential changes, and returns the cycle's tags.
func (s *Solver) relax(ne edge) []Tag {
	u, v := ne.from, ne.to
	if u == v {
		// A violated self-constraint x − x ≤ c (c < 0) is a negative cycle
		// of length one.
		return []Tag{ne.tag}
	}
	s.undo = s.undo[:0]
	s.heap.reset()

	// The new edge is violated: pot[v] must drop to pot[u] + w.
	s.gamma[v] = s.pot[u] + ne.weight - s.pot[v] // < 0
	s.parent[v] = -2                             // improved by the new edge
	s.heap.push(v)

	// The touched-node work list is reused across relaxations (it is dead
	// between calls), so steady-state asserts allocate nothing.
	s.dirty = append(s.dirty[:0], v)
	cleanup := func() {
		for _, t := range s.dirty {
			s.gamma[t] = 0
			s.parent[t] = -1
		}
	}

	for {
		t, ok := s.heap.popMin()
		if !ok {
			break
		}
		if s.gamma[t] >= 0 {
			continue
		}
		// Settle t: apply its improvement.
		s.Stats.RepairSteps++
		s.undo = append(s.undo, potChange{v: t, old: s.pot[t]})
		s.pot[t] += s.gamma[t]
		s.gamma[t] = 0
		for _, ei := range s.out[t] {
			e := s.edges[ei]
			slack := s.pot[t] + e.weight - s.pot[e.to]
			if slack < s.gamma[e.to] {
				if e.to == u {
					// Improving the new edge's source closes a negative
					// cycle: u →(new edge) v →* t →(e) u.
					tags := s.extractCycle(ne, ei)
					s.rollback()
					cleanup()
					return tags
				}
				if s.gamma[e.to] == 0 {
					s.dirty = append(s.dirty, e.to)
				}
				s.gamma[e.to] = slack
				s.parent[e.to] = ei
				s.heap.push(e.to)
			}
		}
	}
	cleanup()
	s.undo = s.undo[:0]
	s.addEdge(ne)
	return nil
}

// rollback restores potentials changed during a failed relaxation.
func (s *Solver) rollback() {
	for i := len(s.undo) - 1; i >= 0; i-- {
		s.pot[s.undo[i].v] = s.undo[i].old
	}
	s.undo = s.undo[:0]
}

// extractCycle reconstructs the negative cycle closed by lastEdge (an edge
// into the new edge's source) and the parent chain back to the new edge.
func (s *Solver) extractCycle(ne edge, lastEdge int32) []Tag {
	tags := []Tag{ne.tag, s.edges[lastEdge].tag}
	n := s.edges[lastEdge].from // walk parents from here back to ne.to
	for n != ne.to {
		pi := s.parent[n]
		if pi < 0 {
			// n == ne.to is the only node improved by the new edge
			// (parent -2); reaching any other parentless node would be a
			// bug in the relaxation bookkeeping.
			panic("idl: broken parent chain during cycle extraction")
		}
		e := s.edges[pi]
		tags = append(tags, e.tag)
		n = e.from
	}
	return tags
}

// gammaHeap is a min-heap over variables keyed by gamma, with lazy
// duplicate entries (stale entries are skipped at pop).
type gammaHeap struct {
	data  []heapEntry
	gamma *[]int64
}

type heapEntry struct {
	v   VarID
	key int64
}

func (h *gammaHeap) reset() { h.data = h.data[:0] }

func (h *gammaHeap) push(v VarID) {
	h.data = append(h.data, heapEntry{v: v, key: (*h.gamma)[v]})
	i := len(h.data) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.data[p].key <= h.data[i].key {
			break
		}
		h.data[p], h.data[i] = h.data[i], h.data[p]
		i = p
	}
}

func (h *gammaHeap) popMin() (VarID, bool) {
	for len(h.data) > 0 {
		top := h.data[0]
		last := len(h.data) - 1
		h.data[0] = h.data[last]
		h.data = h.data[:last]
		// sift down
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h.data) && h.data[l].key < h.data[m].key {
				m = l
			}
			if r < len(h.data) && h.data[r].key < h.data[m].key {
				m = r
			}
			if m == i {
				break
			}
			h.data[i], h.data[m] = h.data[m], h.data[i]
			i = m
		}
		// Skip stale entries (gamma has been improved since push, or the
		// node was already settled, resetting gamma to 0).
		if (*h.gamma)[top.v] == top.key && top.key < 0 {
			return top.v, true
		}
	}
	return 0, false
}
