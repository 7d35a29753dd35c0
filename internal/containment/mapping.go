package containment

import (
	"cmp"
	"slices"
)

// A containment mapping from Q to P (witnessing P ⊑ Q for positive
// queries) is a substitution σ on the variables of Q such that σ maps the
// head of Q onto the head of P and every positive literal R(ȳ) of Q onto
// a positive literal R(σȳ) of P. Wei–Lausen containment additionally
// needs σ to be total on all variables of Q, including variables that
// occur only in negative literals; those range over the terms of P.

// frame is the state of one mapping search. A search yields to a
// callback that may start child problems, each with a search of its
// own, so the checker keeps one frame per recursion depth.
type frame struct {
	sigma  []int32 // by slot of the disjunct; −1 = unbound
	trail  []int32 // slots bound by bind, for undo
	order  []int32 // positive literals (by index in pos), most constrained first
	ncand  []int32 // candidate count per positive literal
	images []int32 // σ of the negative literals' arguments
	tried  tupleSet
}

// frame returns the frame of the current depth.
func (c *Checker) frame() *frame {
	for len(c.frames) <= c.depth {
		c.frames = append(c.frames, new(frame))
	}
	return c.frames[c.depth]
}

// bind extends σ so that it maps the compiled arguments qs onto P's
// terms ps: a bound slot must agree, a free one binds and goes on the
// trail, a constant must be the same term.
func (f *frame) bind(qs, ps []int32) bool {
	for j, a := range qs {
		t := ps[j]
		switch {
		case a < 0:
			if ^a != t {
				return false
			}
		case f.sigma[a] < 0:
			f.sigma[a] = t
			f.trail = append(f.trail, a)
		case f.sigma[a] != t:
			return false
		}
	}
	return true
}

// undo unbinds the slots bound since the trail had length mark.
func (f *frame) undo(mark int) {
	for _, a := range f.trail[mark:] {
		f.sigma[a] = -1
	}
	f.trail = f.trail[:mark]
}

// apply appends σ(args) to out.
func (f *frame) apply(out []int32, args []int32) []int32 {
	for _, a := range args {
		if a < 0 {
			out = append(out, ^a)
		} else {
			out = append(out, f.sigma[a])
		}
	}
	return out
}

// align starts σ for d: empty, then aligned with P's head (q's head
// argument j maps to P's head argument j). It reports false when the
// heads cannot be unified.
func (c *Checker) align(d *disjunct, f *frame) bool {
	f.sigma = slices.Grow(f.sigma[:0], len(d.vars))[:len(d.vars)]
	for i := range f.sigma {
		f.sigma[i] = -1
	}
	f.trail = f.trail[:0]
	return d.headPred == c.p.headPred && f.bind(d.head, c.p.head)
}

// findMapping reports whether some containment mapping σ from d into P
// exists for which yield returns true; yield reads σ from f. The order
// in which mappings are tried is fixed: positive literals with fewer
// candidates first (a stable sort, ties in body order), each literal's
// candidates in P's body order, then the variables of d's negative
// literals alone over P's terms in first-occurrence order.
func (c *Checker) findMapping(d *disjunct, f *frame, yield func() bool) bool {
	if !c.align(d, f) {
		return false
	}
	f.order, f.ncand = f.order[:0], f.ncand[:0]
	for i, li := range d.pos {
		n := c.p.chains[chainOf(d.body[li].pred, false)].n
		if n == 0 {
			return false
		}
		f.order, f.ncand = append(f.order, int32(i)), append(f.ncand, n)
	}
	slices.SortStableFunc(f.order, func(a, b int32) int { return cmp.Compare(f.ncand[a], f.ncand[b]) })
	return c.match(d, f, 0, yield)
}

// match extends σ literal by literal, then enumerates values for the
// variables left unbound. A child problem run from yield pushes onto
// P and pops before returning, so every chain this walks is as it was
// when the search began.
func (c *Checker) match(d *disjunct, f *frame, k int, yield func() bool) bool {
	if k == len(f.order) {
		return c.assignExtra(d, f, 0, yield)
	}
	ql := &d.body[d.pos[f.order[k]]]
	for i := c.p.chains[chainOf(ql.pred, false)].first; i >= 0; i = c.p.lits[i].next {
		mark := len(f.trail)
		if f.bind(ql.args, c.p.lits[i].args) && c.match(d, f, k+1, yield) {
			return true
		}
		f.undo(mark)
	}
	return false
}

// assignExtra enumerates assignments of P's terms to the slots of d
// that occur only in negative literals.
func (c *Checker) assignExtra(d *disjunct, f *frame, k int, yield func() bool) bool {
	if k == len(d.extra) {
		return yield()
	}
	v := d.extra[k]
	for _, t := range c.p.terms {
		f.sigma[v] = t
		if c.assignExtra(d, f, k+1, yield) {
			return true
		}
	}
	f.sigma[v] = -1
	return false
}

// tupleSet is a hashed set of int32 tuples of one width. reset empties
// it in time proportional to its members, so a pooled one is reused
// without allocating.
type tupleSet struct {
	width int
	data  []int32 // the members, width values each
	slots []int32 // open addressing: member number + 1, 0 = free
	at    []int32 // the slot of each member
}

// reset empties the set and sets its width.
func (s *tupleSet) reset(width int) {
	for _, i := range s.at {
		s.slots[i] = 0
	}
	s.width, s.data, s.at = width, s.data[:0], s.at[:0]
}

func (s *tupleSet) member(m int) []int32 { return s.data[m*s.width : (m+1)*s.width] }

// has reports whether t is a member.
func (s *tupleSet) has(t []int32) bool {
	_, found := s.find(t)
	return found
}

// add inserts t and reports whether it was not yet a member.
func (s *tupleSet) add(t []int32) bool {
	if 2*(len(s.at)+1) > len(s.slots) {
		s.grow()
	}
	i, found := s.find(t)
	if found {
		return false
	}
	s.slots[i] = int32(len(s.at) + 1)
	s.at = append(s.at, i)
	s.data = append(s.data, t...)
	return true
}

// find returns t's slot, or the free slot where it would go.
func (s *tupleSet) find(t []int32) (int32, bool) {
	if len(s.slots) == 0 {
		return 0, false
	}
	h := uint64(14695981039346656037) // FNV-1a
	for _, v := range t {
		h = (h ^ uint64(uint32(v))) * 1099511628211
	}
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		m := s.slots[i]
		if m == 0 {
			return int32(i), false
		}
		if slices.Equal(s.member(int(m-1)), t) {
			return int32(i), true
		}
	}
}

// grow doubles the table (16 slots at first) and re-indexes the members.
func (s *tupleSet) grow() {
	s.slots = make([]int32, max(16, 2*len(s.slots)))
	for m := range s.at {
		i, _ := s.find(s.member(m))
		s.slots[i] = int32(m + 1)
		s.at[m] = i
	}
}
