package containment

import (
	"errors"
	"sync"

	"repro/internal/logic"
)

// Checker decides containment of CQ¬ queries in a fixed UCQ¬ query Q,
// memoizing subproblems across calls. It implements Theorem 13 of the
// paper (Wei & Lausen, Theorem 5): P ⊑ Q iff P is unsatisfiable, or some
// disjunct Qᵢ admits a containment mapping σ witnessing P⁺ ⊑ Qᵢ⁺ such
// that for every negative literal ¬R(ȳ) of Qᵢ, R(σȳ) is not in P and
// P ∧ R(σȳ) ⊑ Q. The recursion terminates because each step conjoins to
// P a new atom over P's own terms, of which there are finitely many.
//
// Checker also counts the work done (recursion nodes and containment
// mappings tried), which the benchmark harness reports.
//
// A Checker is safe for concurrent use: Contains, ContainsLimited, and
// Explain serialize on an internal mutex (the memo table and the
// Nodes/limit counters are shared mutable state). The exported counters
// are only meaningful when read with no call in flight.
type Checker struct {
	mu    sync.Mutex
	sym   symbols
	rules []disjunct // Q, compiled: the checker's own copy
	memo  map[string]bool
	limit int

	// The working memory of the call in progress, nil between calls.
	*scratch

	// DisableAcyclic turns off the Chekuri–Rajaraman acyclic fast path
	// (Section 5.1 of the paper); for ablation benchmarks.
	DisableAcyclic bool

	// Nodes is the number of (sub)containment problems examined,
	// including memo hits.
	Nodes int
	// MemoHits is the number of subproblems answered from the memo table.
	MemoHits int
	// AcyclicHits counts disjunct checks answered by the acyclic
	// semijoin program instead of backtracking search.
	AcyclicHits int
}

// ErrBudget is returned by ContainsLimited when the node budget is
// exhausted before the search concludes.
var ErrBudget = errors.New("containment: node budget exhausted")

// NewChecker returns a checker for containment in q. It compiles q once;
// the checker keeps no reference to q.
func NewChecker(q logic.UCQ) *Checker {
	nints, nlits, nterms := 0, 0, 0
	for _, r := range q.Rules {
		nints += intsFor(r)
		nlits += len(r.Body)
		nterms += len(r.HeadArgs)
		for _, l := range r.Body {
			nterms += len(l.Atom.Args)
		}
	}
	c := &Checker{
		sym: symbols{
			terms: make([]logic.Term, 0, nterms),
			preds: make([]predSym, 0, len(q.Rules)+nlits),
		},
		rules: make([]disjunct, len(q.Rules)),
		memo:  map[string]bool{},
	}
	ints, lits := make([]int32, 0, nints), make([]clit, 0, nlits)
	for i, r := range q.Rules {
		c.rules[i] = c.sym.compileRule(r, &ints, &lits)
	}
	return c
}

// ContainsLimited is Contains with a bound on the number of containment
// subproblems examined; it returns ErrBudget when the bound is hit. Use
// it when feeding adversarial or randomly generated queries to the
// Π₂ᴾ-complete test.
func (c *Checker) ContainsLimited(p logic.CQ, maxNodes int) (result bool, err error) {
	if maxNodes <= 0 {
		return false, ErrBudget
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = c.Nodes + maxNodes
	defer func() {
		c.limit = 0
		if r := recover(); r != nil {
			if r == errBudgetSentinel {
				err = ErrBudget
				return
			}
			panic(r)
		}
	}()
	c.begin(p)
	defer c.end()
	return c.contains(), nil
}

var errBudgetSentinel = new(int)

// Contains reports whether p ⊑ q for the checker's query q.
func (c *Checker) Contains(p logic.CQ) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.begin(p)
	defer c.end()
	return c.contains()
}

// contains is the recursive body of Contains, on the loaded P; c.mu
// must be held.
func (c *Checker) contains() bool {
	c.Nodes++
	if c.limit > 0 && c.Nodes > c.limit {
		panic(errBudgetSentinel)
	}
	if !c.p.sat {
		return true
	}
	k := c.memoKey()
	if v, ok := c.memo[string(k)]; ok {
		c.MemoHits++
		return v
	}
	key := string(k)
	f := c.frame()
	c.depth++
	result := false
	for i := range c.rules {
		d := &c.rules[i]
		if !d.live {
			continue
		}
		if !c.DisableAcyclic && d.tree != nil {
			// Negation-free acyclic disjunct: mapping existence decides,
			// via the polynomial semijoin program (CR97, Section 5.1).
			c.AcyclicHits++
			if c.acyclicMapping(d, f) {
				result = true
				break
			}
			continue
		}
		if c.viaDisjunct(d, f) {
			result = true
			break
		}
	}
	c.depth--
	c.memo[key] = result
	return result
}

// viaDisjunct reports whether containment of P in the union is
// witnessed through disjunct d.
func (c *Checker) viaDisjunct(d *disjunct, f *frame) bool {
	// Distinct mappings often induce the same images of d's negative
	// literals; each image set needs to be explored only once.
	f.tried.reset(d.imgWidth)
	return c.findMapping(d, f, func() bool {
		// Condition of Theorem 12/13: R(σȳ) must not occur positively
		// in P for any negative literal ¬R(ȳ) of Qᵢ.
		f.images = f.images[:0]
		for _, i := range d.negs {
			nl := &d.body[i]
			at := len(f.images)
			f.images = f.apply(f.images, nl.args)
			if c.p.has(nl.pred, false, f.images[at:]) {
				return false
			}
		}
		if !f.tried.add(f.images) {
			return false // equivalent mapping already failed (or this one is redundant)
		}
		// Recursive step: P ∧ R(σȳ) ⊑ Q for every negative literal.
		at := 0
		for _, i := range d.negs {
			nl := &d.body[i]
			ra := f.images[at : at+len(nl.args)]
			at += len(nl.args)
			if c.p.has(nl.pred, true, ra) {
				// ¬R(σȳ) is already in P, so P ∧ R(σȳ) is unsatisfiable
				// and the child containment holds trivially.
				continue
			}
			undo := c.push(nl.pred, ra)
			ok := c.contains()
			c.pop(undo)
			if !ok {
				return false
			}
		}
		return true
	})
}

// Contained reports whether the CQ¬ query p is contained in the UCQ¬
// query q (Theorem 13 of the paper).
func Contained(p logic.CQ, q logic.UCQ) bool {
	return NewChecker(q).Contains(p)
}

// ContainedCQ reports whether p ⊑ q for CQ¬ queries p and q
// (Theorem 12 of the paper; plain Chandra–Merlin when negation-free).
func ContainedCQ(p, q logic.CQ) bool {
	return Contained(p, logic.UCQ{Rules: []logic.CQ{q}})
}

// ContainedUCQ reports whether p ⊑ q for UCQ¬ queries: every rule of p
// must be contained in q.
func ContainedUCQ(p, q logic.UCQ) bool {
	c := NewChecker(q)
	for _, r := range p.Rules {
		if !c.Contains(r) {
			return false
		}
	}
	return true
}

// Equivalent reports whether p and q are logically equivalent.
func Equivalent(p, q logic.UCQ) bool {
	return ContainedUCQ(p, q) && ContainedUCQ(q, p)
}
