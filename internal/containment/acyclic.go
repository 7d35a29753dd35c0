package containment

import (
	"slices"

	"repro/internal/logic"
)

// This file implements the acyclic fast path the paper points to in
// Section 5.1: Chekuri & Rajaraman (ICDT 1997) show containment in an
// acyclic CQ is decidable in polynomial time, and "by the nature of the
// algorithm in [WL03], these gains … will also improve the test for
// containment of CQ¬ and UCQ¬". When a disjunct Qᵢ of the right-hand
// query is negation-free and acyclic, the checker replaces the
// backtracking containment-mapping search by a Yannakakis-style
// semijoin program over Qᵢ's join tree.

// Acyclic reports whether the hypergraph of q's positive literals is
// α-acyclic, using GYO ear removal. Queries with no positive literals
// are trivially acyclic.
func Acyclic(q logic.CQ) bool {
	var s symbols
	q.Body = q.Positive()
	ints, lits := make([]int32, 0, intsFor(q)), make([]clit, 0, len(q.Body))
	return s.compileRule(q, &ints, &lits).tree != nil
}

// semijoinProgram is the GYO join tree of a disjunct's positive
// literals, laid out as the semijoins to run.
type semijoinProgram struct {
	vars  [][]int32 // by positive literal (index in pos): its distinct variable slots
	edges []treeEdge
}

// treeEdge is one semijoin of the program: parent ⋉ child, on the
// variables they share. Edges are in GYO removal order of their parent,
// so a child's own children come before it.
type treeEdge struct {
	parent, child int32
	shared        [][2]int32 // the shared variables' positions in vars[parent] and vars[child]
}

// buildSemijoin runs GYO reduction on d's positive literals and returns
// their join tree, or nil when the hypergraph is cyclic.
func buildSemijoin(d *disjunct) *semijoinProgram {
	n := len(d.pos)
	t := &semijoinProgram{vars: make([][]int32, n)}
	for i, li := range d.pos {
		for _, a := range d.body[li].args {
			if a >= 0 && !slices.Contains(t.vars[i], a) {
				t.vars[i] = append(t.vars[i], a)
			}
		}
	}
	if n <= 1 {
		return t
	}
	parent := make([]int32, n)
	alive := make([]bool, n)
	for i := range alive {
		parent[i], alive[i] = -1, true
	}
	order := make([]int32, 0, n)
	var shared []int32
	for remaining := n; remaining > 1; {
		removed := false
		for e := 0; e < n && remaining > 1; e++ {
			if !alive[e] {
				continue
			}
			// Shared vertices of e: those appearing in another live edge.
			shared = shared[:0]
			for _, v := range t.vars[e] {
				for w := 0; w < n; w++ {
					if w != e && alive[w] && slices.Contains(t.vars[w], v) {
						shared = append(shared, v)
						break
					}
				}
			}
			// e is an ear if some other live edge w covers shared(e).
			for w := 0; w < n; w++ {
				if w == e || !alive[w] || !containsAll(t.vars[w], shared) {
					continue
				}
				alive[e], parent[e] = false, int32(w)
				order = append(order, int32(e))
				remaining--
				removed = true
				break
			}
		}
		if !removed {
			return nil
		}
	}
	for _, node := range append(order, int32(slices.Index(alive, true))) {
		for child, p := range parent {
			if p != node {
				continue
			}
			e := treeEdge{parent: node, child: int32(child)}
			for i, v := range t.vars[node] {
				if j := slices.Index(t.vars[child], v); j >= 0 {
					e.shared = append(e.shared, [2]int32{int32(i), int32(j)})
				}
			}
			t.edges = append(t.edges, e)
		}
	}
	return t
}

func containsAll(set, vs []int32) bool {
	for _, v := range vs {
		if !slices.Contains(set, v) {
			return false
		}
	}
	return true
}

// semijoin is the scratch of acyclicMapping: each positive literal's
// candidate local assignments (σ restricted to the literal's variables,
// as term-ID tuples), whether each is still alive, and the set of one
// child's projections.
type semijoin struct {
	data  []int32 // the tuples, node after node
	first []int32 // by node: index of its first tuple; one more entry ends the last
	at    []int32 // by tuple: its offset in data
	alive []bool  // by tuple
	proj  tupleSet
	key   []int32
}

func (s *semijoin) tuple(k int32, width int) []int32 {
	return s.data[s.at[k] : int(s.at[k])+width]
}

// acyclicMapping reports whether a containment mapping from the
// negation-free acyclic disjunct d into P exists, by a bottom-up
// semijoin over d's join tree. f's σ holds the head alignment while the
// candidates are built.
func (c *Checker) acyclicMapping(d *disjunct, f *frame) bool {
	if !c.align(d, f) {
		return false
	}
	t, s := d.tree, &c.semi
	s.data, s.first, s.at, s.alive = s.data[:0], s.first[:0], s.at[:0], s.alive[:0]
	// Candidate assignments per node, restricted to the node's variables.
	for i, li := range d.pos {
		ql := &d.body[li]
		s.first = append(s.first, int32(len(s.at)))
		for k := c.p.chains[chainOf(ql.pred, false)].first; k >= 0; k = c.p.lits[k].next {
			mark := len(f.trail)
			if f.bind(ql.args, c.p.lits[k].args) {
				s.at, s.alive = append(s.at, int32(len(s.data))), append(s.alive, true)
				for _, v := range t.vars[i] {
					s.data = append(s.data, f.sigma[v])
				}
			}
			f.undo(mark)
		}
		if int(s.first[i]) == len(s.at) {
			return false
		}
	}
	s.first = append(s.first, int32(len(s.at)))
	// Children come before their parents, so each parent is semijoined
	// with fully reduced children: index the child's surviving
	// projections on the shared variables, then drop the parent's
	// candidates whose projection is not among them.
	for _, e := range t.edges {
		s.proj.reset(len(e.shared))
		for k := s.first[e.child]; k < s.first[e.child+1]; k++ {
			if s.alive[k] {
				s.proj.add(s.project(s.tuple(k, len(t.vars[e.child])), e.shared, 1))
			}
		}
		left := false
		for k := s.first[e.parent]; k < s.first[e.parent+1]; k++ {
			if s.alive[k] {
				s.alive[k] = s.proj.has(s.project(s.tuple(k, len(t.vars[e.parent])), e.shared, 0))
				left = left || s.alive[k]
			}
		}
		if !left {
			return false
		}
	}
	return true
}

// project returns a tuple's values at the shared positions of one side
// (0 = parent, 1 = child), in a buffer the next call reuses.
func (s *semijoin) project(tuple []int32, shared [][2]int32, side int) []int32 {
	s.key = s.key[:0]
	for _, p := range shared {
		s.key = append(s.key, tuple[p[side]])
	}
	return s.key
}
