package containment

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sync"

	"repro/internal/logic"
)

// The checker searches for containment mappings on compiled queries. Every
// term (variable, constant or null) gets one ID in the checker's table,
// keyed by kind and name, and every predicate one ID keyed by name and
// arity. A disjunct of Q numbers its variables 0..k−1 in first-occurrence
// order, so σ is a slot array indexed by that number (−1 = unbound) and
// a trail of the slots bound since a mark undoes a failed extension. P
// is compiled into scratch buffers the checker reuses across calls; its
// variables are terms like its constants, since a containment mapping
// treats them as fixed values. A Theorem 13 child problem P ∧ R(σȳ)
// pushes one literal onto P's scratch body and pops it on return.

// A compiled argument of a disjunct of Q is a variable's slot (≥ 0) or
// the complement ^id of a constant's or null's term ID (< 0). P's
// arguments are term IDs.

// clit is a compiled literal.
type clit struct {
	pred int32 // predicate ID; it fixes the arity
	neg  bool
	args []int32
	next int32 // P only: the next literal of the same predicate and sign, −1 at the end
}

// disjunct is one rule of Q, compiled.
type disjunct struct {
	headPred int32
	head     []int32
	body     []clit  // in body order
	pos      []int32 // indices in body of the positive literals
	negs     []int32 // indices in body of the negative literals
	vars     []int32 // by slot: the variable's term ID, for its name
	extra    []int32 // slots occurring only in negative literals, in first-occurrence order
	imgWidth int     // total arity of the negative literals
	isFalse  bool
	live     bool             // neither false nor unsatisfiable
	tree     *semijoinProgram // non-nil for a negation-free acyclic disjunct
}

type predSym struct {
	name  string
	arity int
}

// symbols is the checker's term and predicate table. A query has few
// terms and fewer predicates, so both are slices searched in order.
type symbols struct {
	terms []logic.Term
	preds []predSym
}

// term returns the ID of t.
func (s *symbols) term(t logic.Term) int32 {
	if i := slices.Index(s.terms, t); i >= 0 {
		return int32(i)
	}
	s.terms = append(s.terms, t)
	return int32(len(s.terms) - 1)
}

// pred returns the ID of name/arity.
func (s *symbols) pred(name string, arity int) int32 {
	for i, p := range s.preds {
		if p.name == name && p.arity == arity {
			return int32(i)
		}
	}
	s.preds = append(s.preds, predSym{name, arity})
	return int32(len(s.preds) - 1)
}

// compileRule compiles one disjunct of Q. Its integers are cut from
// *ints and its literals from *lits, both sized by the caller.
func (s *symbols) compileRule(r logic.CQ, ints *[]int32, lits *[]clit) disjunct {
	d := disjunct{
		headPred: s.pred(r.HeadPred, len(r.HeadArgs)),
		isFalse:  r.False,
		live:     Satisfiable(r),
	}
	cut := func(start int) []int32 { return (*ints)[start:len(*ints):len(*ints)] }
	// Slots in first-occurrence order, the order of r.Vars().
	start := len(*ints)
	vars := func(ts []logic.Term) {
		for _, t := range ts {
			if id := s.term(t); t.IsVar() && !slices.Contains((*ints)[start:], id) {
				*ints = append(*ints, id)
			}
		}
	}
	vars(r.HeadArgs)
	for _, l := range r.Body {
		vars(l.Atom.Args)
	}
	d.vars = cut(start)
	args := func(ts []logic.Term) []int32 {
		start := len(*ints)
		for _, t := range ts {
			if id := s.term(t); t.IsVar() {
				*ints = append(*ints, int32(slices.Index(d.vars, id)))
			} else {
				*ints = append(*ints, ^id)
			}
		}
		return cut(start)
	}
	d.head = args(r.HeadArgs)
	start = len(*lits)
	for _, l := range r.Body {
		*lits = append(*lits, clit{pred: s.pred(l.Atom.Pred, len(l.Atom.Args)), neg: l.Negated, args: args(l.Atom.Args)})
	}
	d.body = (*lits)[start:len(*lits):len(*lits)]
	for _, neg := range []bool{false, true} {
		start := len(*ints)
		for i, l := range d.body {
			if l.neg == neg {
				*ints = append(*ints, int32(i))
			}
		}
		if neg {
			d.negs = cut(start)
		} else {
			d.pos = cut(start)
		}
	}
	start = len(*ints)
	for v := range d.vars {
		if !d.bindsPositively(int32(v)) {
			*ints = append(*ints, int32(v))
		}
	}
	d.extra = cut(start)
	for _, i := range d.negs {
		d.imgWidth += len(d.body[i].args)
	}
	if len(d.negs) == 0 {
		// Mapping existence decides, so the semijoin program can.
		d.tree = buildSemijoin(&d)
	}
	return d
}

// bindsPositively reports whether slot v occurs in d's head or in a
// positive literal, so that aligning the heads and matching the
// positive literals binds it.
func (d *disjunct) bindsPositively(v int32) bool {
	if slices.Contains(d.head, v) {
		return true
	}
	for _, i := range d.pos {
		if slices.Contains(d.body[i].args, v) {
			return true
		}
	}
	return false
}

// intsFor bounds the integers compileRule cuts for r.
func intsFor(r logic.CQ) int {
	n := 3*len(r.HeadArgs) + len(r.Body)
	for _, l := range r.Body {
		n += 3 * len(l.Atom.Args)
	}
	return n
}

// term returns the logic term of a compiled argument of d.
func (d *disjunct) term(s *symbols, a int32) logic.Term {
	if a >= 0 {
		return s.terms[d.vars[a]]
	}
	return s.terms[^a]
}

// atom returns the logic atom of a compiled literal of d.
func (d *disjunct) atom(s *symbols, l *clit) logic.Atom {
	args := make([]logic.Term, len(l.args))
	for i, a := range l.args {
		args[i] = d.term(s, a)
	}
	return logic.Atom{Pred: s.preds[l.pred].name, Args: args}
}

// rule rebuilds the logic form of d.
func (d *disjunct) rule(s *symbols) logic.CQ {
	r := logic.CQ{HeadPred: s.preds[d.headPred].name, HeadArgs: make([]logic.Term, len(d.head)), False: d.isFalse}
	for i, a := range d.head {
		r.HeadArgs[i] = d.term(s, a)
	}
	for i := range d.body {
		r.Body = append(r.Body, logic.Literal{Atom: d.atom(s, &d.body[i]), Negated: d.body[i].neg})
	}
	return r
}

// probe is the compiled P under test, in scratch buffers the checker
// reuses: its head, its literals (P's body, then the atoms the
// recursion conjoined), their arguments, one chain of literals per
// predicate and sign, and P's distinct terms in first-occurrence order.
type probe struct {
	headPred int32
	head     []int32
	lits     []clit
	args     []int32
	chains   []chain // by 2·predicate ID + sign
	terms    []int32
	inTerms  []bool // by term ID
	sat      bool
}

// chain links the literals of one predicate and sign in body order.
type chain struct{ first, last, n int32 }

// pushed undoes one push.
type pushed struct {
	terms int   // P's term count before
	last  int32 // the chain's last literal before
	sat   bool
}

// scratch is the working memory of one call: P under test, one frame
// per recursion depth, the semijoin's candidates and the memo key. A
// call takes one from scratchPool and puts it back, so the checkers a
// plan miss builds one after another (minimization builds one per
// removal) share it. Nothing in it outlives the call: load resets it,
// after a budget abort too.
type scratch struct {
	p      probe
	frames []*frame
	depth  int
	semi   semijoin
	keyIdx []int32
	key    []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// begin takes a scratch and loads p into it; c.mu must be held, and
// end puts the scratch back.
func (c *Checker) begin(p logic.CQ) {
	c.scratch = scratchPool.Get().(*scratch)
	c.load(p)
}

func (c *Checker) end() {
	scratchPool.Put(c.scratch)
	c.scratch = nil
}

// load compiles p into the probe.
func (c *Checker) load(p logic.CQ) {
	pr := &c.p
	for _, t := range pr.terms {
		pr.inTerms[t] = false
	}
	pr.lits, pr.args, pr.terms, pr.head = pr.lits[:0], pr.args[:0], pr.terms[:0], pr.head[:0]
	pr.headPred = c.sym.pred(p.HeadPred, len(p.HeadArgs))
	for _, t := range p.HeadArgs {
		pr.head = append(pr.head, c.addTerm(c.sym.term(t)))
	}
	for _, l := range p.Body {
		start := len(pr.args)
		for _, t := range l.Atom.Args {
			pr.args = append(pr.args, c.sym.term(t))
		}
		pr.lits = append(pr.lits, clit{pred: c.sym.pred(l.Atom.Pred, len(l.Atom.Args)), neg: l.Negated, args: pr.args[start:len(pr.args):len(pr.args)]})
	}
	pr.chains = slices.Grow(pr.chains[:0], 2*len(c.sym.preds))[:2*len(c.sym.preds)]
	for i := range pr.chains {
		pr.chains[i] = chain{-1, -1, 0}
	}
	for i := range pr.lits {
		c.link(int32(i))
	}
	pr.sat = !p.False
	for i := range pr.lits {
		if l := &pr.lits[i]; l.neg && pr.has(l.pred, false, l.args) {
			pr.sat = false
		}
	}
	c.depth = 0
}

// addTerm records term id as one of P's and returns it.
func (c *Checker) addTerm(id int32) int32 {
	pr := &c.p
	if int(id) >= len(pr.inTerms) {
		pr.inTerms = append(pr.inTerms, make([]bool, int(id)+1-len(pr.inTerms))...)
	}
	if !pr.inTerms[id] {
		pr.inTerms[id] = true
		pr.terms = append(pr.terms, id)
	}
	return id
}

// link appends literal i to its chain and records its terms.
func (c *Checker) link(i int32) {
	pr := &c.p
	l := &pr.lits[i]
	for _, t := range l.args {
		c.addTerm(t)
	}
	l.next = -1
	ch := &pr.chains[chainOf(l.pred, l.neg)]
	if ch.last < 0 {
		ch.first = i
	} else {
		pr.lits[ch.last].next = i
	}
	ch.last = i
	ch.n++
}

func chainOf(pred int32, neg bool) int {
	if neg {
		return 2*int(pred) + 1
	}
	return 2 * int(pred)
}

// has reports whether P has the literal (pred, neg, args).
func (pr *probe) has(pred int32, neg bool, args []int32) bool {
	for i := pr.chains[chainOf(pred, neg)].first; i >= 0; i = pr.lits[i].next {
		if slices.Equal(pr.lits[i].args, args) {
			return true
		}
	}
	return false
}

// push conjoins the positive atom pred(args) to P: the probe becomes the
// child problem of Theorem 13 until pop. args are terms of P or
// constants of Q, so their IDs exist.
func (c *Checker) push(pred int32, args []int32) pushed {
	pr := &c.p
	undo := pushed{terms: len(pr.terms), last: pr.chains[chainOf(pred, false)].last, sat: pr.sat}
	if pr.has(pred, true, args) {
		pr.sat = false
	}
	start := len(pr.args)
	pr.args = append(pr.args, args...)
	pr.lits = append(pr.lits, clit{pred: pred, args: pr.args[start:len(pr.args):len(pr.args)]})
	c.link(int32(len(pr.lits) - 1))
	return undo
}

// pop undoes the last push.
func (c *Checker) pop(undo pushed) {
	pr := &c.p
	l := &pr.lits[len(pr.lits)-1]
	ch := &pr.chains[chainOf(l.pred, false)]
	if ch.last = undo.last; undo.last < 0 {
		ch.first = -1
	} else {
		pr.lits[undo.last].next = -1
	}
	ch.n--
	pr.args = pr.args[:len(pr.args)-len(l.args)]
	pr.lits = pr.lits[:len(pr.lits)-1]
	for _, t := range pr.terms[undo.terms:] {
		pr.inTerms[t] = false
	}
	pr.terms, pr.sat = pr.terms[:undo.terms], undo.sat
}

// memoKey renders P as the memo's key: the head, then P's distinct
// literals in sorted order, each ID a varint. Since a predicate ID
// fixes its arity the encoding is unambiguous, so two problems share a
// key exactly when they have the same head and the same set of literals.
func (c *Checker) memoKey() []byte {
	pr := &c.p
	idx := c.keyIdx[:0]
	for i := range pr.lits {
		idx = append(idx, int32(i))
	}
	slices.SortFunc(idx, func(a, b int32) int { return cmpLit(&pr.lits[a], &pr.lits[b]) })
	key := binary.AppendUvarint(c.key[:0], uint64(pr.headPred))
	for _, t := range pr.head {
		key = binary.AppendUvarint(key, uint64(t))
	}
	for k, i := range idx {
		l := &pr.lits[i]
		if k > 0 && cmpLit(&pr.lits[idx[k-1]], l) == 0 {
			continue
		}
		key = binary.AppendUvarint(key, uint64(chainOf(l.pred, l.neg)))
		for _, t := range l.args {
			key = binary.AppendUvarint(key, uint64(t))
		}
	}
	c.keyIdx, c.key = idx, key
	return key
}

func cmpLit(a, b *clit) int {
	if r := cmp.Compare(chainOf(a.pred, a.neg), chainOf(b.pred, b.neg)); r != 0 {
		return r
	}
	return slices.Compare(a.args, b.args)
}
