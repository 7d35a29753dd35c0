package containment

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/logic"
)

// This file is the reference the compiled checker is held to: the
// map-based containment search as it was before the checker compiled its
// queries, kept verbatim apart from the type's name (Checker became
// refChecker, NewChecker newRefChecker). Every mapping is a logic.Subst
// cloned per extension, every child problem a cloned CQ, the memo key
// and the tried images rendered strings, the acyclic semijoin keyed by
// rendered substitutions. TestCheckerAgreesWithOracle and
// FuzzCheckerAgreesWithOracle compare the two on verdicts, on Nodes,
// MemoHits and AcyclicHits, on the budgets at which ContainsLimited
// gives up, and on Explain's witnesses.

// refChecker decides containment of CQ¬ queries in a fixed UCQ¬ query Q,
// memoizing subproblems across calls. It implements Theorem 13 of the
// paper (Wei & Lausen, Theorem 5): P ⊑ Q iff P is unsatisfiable, or some
// disjunct Qᵢ admits a containment mapping σ witnessing P⁺ ⊑ Qᵢ⁺ such
// that for every negative literal ¬R(ȳ) of Qᵢ, R(σȳ) is not in P and
// P ∧ R(σȳ) ⊑ Q. The recursion terminates because each step conjoins to
// P a new atom over P's own terms, of which there are finitely many.
//
// refChecker also counts the work done (recursion nodes and containment
// mappings tried), which the benchmark harness reports.
//
// A refChecker is safe for concurrent use: Contains, ContainsLimited, and
// Explain serialize on an internal mutex (the memo table and the
// Nodes/limit counters are shared mutable state). The exported counters
// are only meaningful when read with no call in flight.
type refChecker struct {
	mu    sync.Mutex
	q     logic.UCQ
	memo  map[string]bool
	limit int
	trees []*joinTreeInfo // per-disjunct join tree (nil = cyclic or has negation)

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

// newRefChecker returns a checker for containment in q.
func newRefChecker(q logic.UCQ) *refChecker {
	c := &refChecker{q: q.Clone(), memo: map[string]bool{}}
	c.trees = make([]*joinTreeInfo, len(c.q.Rules))
	for i, qi := range c.q.Rules {
		if len(qi.Negative()) > 0 {
			continue // enumeration needed; fast path does existence only
		}
		if tree, ok := joinTree(qi.Positive()); ok {
			t := tree
			c.trees[i] = &t
		}
	}
	return c
}

// ContainsLimited is Contains with a bound on the number of containment
// subproblems examined; it returns ErrBudget when the bound is hit. Use
// it when feeding adversarial or randomly generated queries to the
// Π₂ᴾ-complete test.
func (c *refChecker) ContainsLimited(p logic.CQ, maxNodes int) (result bool, err error) {
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
	return c.contains(p), nil
}

// Contains reports whether p ⊑ q for the checker's query q.
func (c *refChecker) Contains(p logic.CQ) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.contains(p)
}

// contains is the recursive body of Contains; c.mu must be held.
func (c *refChecker) contains(p logic.CQ) bool {
	c.Nodes++
	if c.limit > 0 && c.Nodes > c.limit {
		panic(errBudgetSentinel)
	}
	if !Satisfiable(p) {
		return true
	}
	key := canonKey(p)
	if v, ok := c.memo[key]; ok {
		c.MemoHits++
		return v
	}
	result := false
	for i, qi := range c.q.Rules {
		if qi.False || !Satisfiable(qi) {
			continue
		}
		if !c.DisableAcyclic && c.trees[i] != nil {
			// Negation-free acyclic disjunct: mapping existence decides,
			// via the polynomial semijoin program (CR97, Section 5.1).
			c.AcyclicHits++
			if acyclicMappingExists(p, qi, *c.trees[i]) {
				result = true
				break
			}
			continue
		}
		if c.viaDisjunct(p, qi) {
			result = true
			break
		}
	}
	c.memo[key] = result
	return result
}

// viaDisjunct reports whether containment of p in the union is witnessed
// through disjunct qi.
func (c *refChecker) viaDisjunct(p, qi logic.CQ) bool {
	// Distinct mappings often induce the same images of qi's negative
	// literals; each image set needs to be explored only once.
	triedImages := map[string]bool{}
	return findMapping(p, qi, func(sigma logic.Subst) bool {
		negs := qi.Negative()
		// Condition of Theorem 12/13: R(σȳ) must not occur positively
		// in P for any negative literal ¬R(ȳ) of Qᵢ.
		images := make([]logic.Atom, len(negs))
		var key strings.Builder
		for i, nl := range negs {
			ra := sigma.Atom(nl.Atom)
			if p.HasAtom(ra, false) {
				return false
			}
			images[i] = ra
			key.WriteString(ra.Key())
			key.WriteByte(';')
		}
		if k := key.String(); triedImages[k] {
			return false // equivalent mapping already failed (or this one is redundant)
		} else {
			triedImages[k] = true
		}
		// Recursive step: P ∧ R(σȳ) ⊑ Q for every negative literal.
		for _, ra := range images {
			if p.HasAtom(ra, true) {
				// ¬R(σȳ) is already in P, so P ∧ R(σȳ) is unsatisfiable
				// and the child containment holds trivially.
				continue
			}
			ext := p.Clone()
			ext.Body = append(ext.Body, logic.Pos(ra))
			if !c.contains(ext) {
				return false
			}
		}
		return true
	})
}

// canonKey renders p's head and body as an order-insensitive,
// duplicate-insensitive key for memoization.
func canonKey(p logic.CQ) string {
	keys := make([]string, 0, len(p.Body))
	seen := map[string]bool{}
	for _, l := range p.Body {
		k := l.Key()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return p.Head().String() + " :- " + strings.Join(keys, ", ")
}

// A containment mapping from Q to P (witnessing P ⊑ Q for positive
// queries) is a substitution σ on the variables of Q such that σ maps the
// head of Q onto the head of P and every positive literal R(ȳ) of Q onto
// a positive literal R(σȳ) of P. Wei–Lausen containment additionally
// needs σ to be total on all variables of Q, including variables that
// occur only in negative literals; those range over the terms of P.

// mappingSearch enumerates containment mappings from q's positive part
// into p's positive part, extended to be total on totalVars (variables of
// q not determined by the positive match range over p's terms). It calls
// yield for each mapping found and stops early when yield returns true.
// The overall return value is true iff some yield returned true.
type mappingSearch struct {
	pPos   []logic.Literal // positive literals of P (match targets)
	pTerms []logic.Term    // candidate values for unconstrained variables
	yield  func(logic.Subst) bool
}

// findMapping reports whether some containment mapping σ from q into p
// exists for which yield returns true. The heads are aligned positionally:
// q's head argument j must map to p's head argument j.
func findMapping(p, q logic.CQ, yield func(logic.Subst) bool) bool {
	// Align heads: σ is the identity on free variables in the paper's
	// setting (same head variable tuple); positional unification
	// generalizes this to heads with constants.
	sigma, ok := headAlignment(p, q)
	if !ok {
		return false
	}

	qPos := q.Positive()
	// Candidate target literals per source literal, by predicate and arity.
	cands := make([][]logic.Literal, len(qPos))
	pPos := p.Positive()
	for i, ql := range qPos {
		for _, pl := range pPos {
			if pl.Atom.Pred == ql.Atom.Pred && pl.Atom.Arity() == ql.Atom.Arity() {
				cands[i] = append(cands[i], pl)
			}
		}
		if len(cands[i]) == 0 {
			return false
		}
	}
	// Most-constrained-first: match literals with few candidates early.
	order := make([]int, len(qPos))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(cands[order[a]]) < len(cands[order[b]])
	})

	ms := &mappingSearch{pPos: pPos, pTerms: termsOf(p), yield: yield}
	extra := unconstrainedVars(q, qPos)
	return ms.match(sigma, qPos, cands, order, 0, extra)
}

// match extends sigma literal by literal, then enumerates values for the
// remaining unconstrained variables.
func (ms *mappingSearch) match(sigma logic.Subst, qPos []logic.Literal, cands [][]logic.Literal, order []int, k int, extra []string) bool {
	if k == len(order) {
		return ms.assignExtra(sigma, extra, 0)
	}
	i := order[k]
	ql := qPos[i]
	for _, pl := range cands[i] {
		next, ok := extend(sigma, ql.Atom, pl.Atom)
		if !ok {
			continue
		}
		if ms.match(next, qPos, cands, order, k+1, extra) {
			return true
		}
	}
	return false
}

// assignExtra enumerates assignments of p's terms to variables of q that
// the positive match left unbound (they occur only in negative literals).
func (ms *mappingSearch) assignExtra(sigma logic.Subst, extra []string, k int) bool {
	for k < len(extra) {
		if _, ok := sigma[extra[k]]; ok {
			k++
			continue
		}
		break
	}
	if k == len(extra) {
		return ms.yield(sigma)
	}
	for _, t := range ms.pTerms {
		if ms.assignExtra(sigma.Bind(extra[k], t), extra, k+1) {
			return true
		}
	}
	return false
}

// extend unifies source atom qa with target atom pa under sigma,
// returning the extended substitution. Constants and null must match
// exactly; variables of q bind to the corresponding term of p.
func extend(sigma logic.Subst, qa, pa logic.Atom) (logic.Subst, bool) {
	next := sigma
	copied := false
	for j, qt := range qa.Args {
		pt := pa.Args[j]
		if qt.IsVar() {
			if bound, ok := next[qt.Name]; ok {
				if bound != pt {
					return nil, false
				}
				continue
			}
			if !copied {
				next = next.Clone()
				copied = true
			}
			next[qt.Name] = pt
			continue
		}
		if qt != pt {
			return nil, false
		}
	}
	return next, true
}

// termsOf returns the distinct terms (variables and constants) occurring
// in p's head and body, in first-occurrence order.
func termsOf(p logic.CQ) []logic.Term {
	var out []logic.Term
	seen := map[logic.Term]bool{}
	add := func(ts []logic.Term) {
		for _, t := range ts {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	add(p.HeadArgs)
	for _, l := range p.Body {
		add(l.Atom.Args)
	}
	return out
}

// unconstrainedVars lists variables of q that do not occur in its head or
// positive part, in deterministic order. These occur only in negative
// literals (the paper's Example 3 has such variables); a total containment
// mapping must still assign them.
func unconstrainedVars(q logic.CQ, qPos []logic.Literal) []string {
	bound := map[string]bool{}
	for _, t := range q.HeadArgs {
		if t.IsVar() {
			bound[t.Name] = true
		}
	}
	for _, l := range qPos {
		for _, v := range l.Vars() {
			bound[v.Name] = true
		}
	}
	var out []string
	for _, v := range q.Vars() {
		if !bound[v.Name] {
			out = append(out, v.Name)
		}
	}
	return out
}

// This file implements the acyclic fast path the paper points to in
// Section 5.1: Chekuri & Rajaraman (ICDT 1997) show containment in an
// acyclic CQ is decidable in polynomial time, and "by the nature of the
// algorithm in [WL03], these gains … will also improve the test for
// containment of CQ¬ and UCQ¬". When a disjunct Qᵢ of the right-hand
// query is negation-free and acyclic, the checker replaces the
// backtracking containment-mapping search by a Yannakakis-style
// semijoin program over Qᵢ's join tree.

// joinTree runs GYO reduction and returns, for each literal index, the
// parent literal index it was absorbed into (-1 for the root/last
// remaining edges), together with the removal order. ok is false when
// the hypergraph is cyclic.
func joinTree(pos []logic.Literal) (tree joinTreeInfo, ok bool) {
	n := len(pos)
	tree.parent = make([]int, n)
	for i := range tree.parent {
		tree.parent[i] = -1
	}
	if n <= 1 {
		return tree, true
	}
	vars := make([]map[string]bool, n)
	for i, l := range pos {
		vars[i] = map[string]bool{}
		for _, v := range l.Vars() {
			vars[i][v.Name] = true
		}
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	remaining := n
	for remaining > 1 {
		removed := false
		for e := 0; e < n && remaining > 1; e++ {
			if !alive[e] {
				continue
			}
			// Shared vertices of e: those appearing in another live edge.
			shared := map[string]bool{}
			for v := range vars[e] {
				for w := 0; w < n; w++ {
					if w != e && alive[w] && vars[w][v] {
						shared[v] = true
						break
					}
				}
			}
			// e is an ear if some other live edge w covers shared(e).
			for w := 0; w < n; w++ {
				if w == e || !alive[w] {
					continue
				}
				covered := true
				for v := range shared {
					if !vars[w][v] {
						covered = false
						break
					}
				}
				if covered {
					alive[e] = false
					tree.parent[e] = w
					tree.order = append(tree.order, e)
					remaining--
					removed = true
					break
				}
			}
		}
		if !removed {
			return tree, false
		}
	}
	for i := 0; i < n; i++ {
		if alive[i] {
			tree.root = i
			tree.order = append(tree.order, i)
		}
	}
	return tree, true
}

type joinTreeInfo struct {
	parent []int // parent[i] = literal index i was absorbed into, -1 for root
	order  []int // removal order; root last
	root   int
}

// acyclicMappingExists reports whether a containment mapping from the
// negation-free acyclic query q into p exists, by a bottom-up semijoin
// over q's join tree. sigma0 is the head-alignment binding. It must
// only be called when q has no negative literals (and hence no
// unconstrained variables to enumerate).
func acyclicMappingExists(p, q logic.CQ, tree joinTreeInfo) bool {
	qPos := q.Positive()
	if len(qPos) == 0 {
		return true
	}
	sigma0, ok := headAlignment(p, q)
	if !ok {
		return false
	}
	pPos := p.Positive()

	// Candidate assignments per node, restricted to the node's variables.
	cands := make([]map[string]logic.Subst, len(qPos))
	for i, ql := range qPos {
		cands[i] = map[string]logic.Subst{}
		for _, pl := range pPos {
			if pl.Atom.Pred != ql.Atom.Pred || pl.Atom.Arity() != ql.Atom.Arity() {
				continue
			}
			if a, ok := extend(sigma0, ql.Atom, pl.Atom); ok {
				local := restrict(a, ql)
				cands[i][substKey(local)] = local
			}
		}
		if len(cands[i]) == 0 {
			return false
		}
	}

	// children[w] = ears absorbed into w.
	children := make(map[int][]int)
	for e, w := range tree.parent {
		if w >= 0 {
			children[w] = append(children[w], e)
		}
	}
	// Process in removal order (children always precede parents), hash
	// semijoin on the shared variables so each pass is linear in the
	// candidate sets.
	for _, node := range tree.order {
		for _, c := range children[node] {
			shared := sharedVars(qPos[node], qPos[c])
			// Index the child's candidates by their shared-variable
			// projection.
			index := map[string]bool{}
			for _, b := range cands[c] {
				index[projKey(b, shared)] = true
			}
			for key, a := range cands[node] {
				if !index[projKey(a, shared)] {
					delete(cands[node], key)
				}
			}
			if len(cands[node]) == 0 {
				return false
			}
		}
	}
	return true
}

// sharedVars lists the variable names common to two literals, sorted.
func sharedVars(a, b logic.Literal) []string {
	inA := map[string]bool{}
	for _, v := range a.Vars() {
		inA[v.Name] = true
	}
	var out []string
	for _, v := range b.Vars() {
		if inA[v.Name] {
			out = append(out, v.Name)
		}
	}
	sort.Strings(out)
	return out
}

// projKey encodes an assignment's values on the given variables.
func projKey(a logic.Subst, vars []string) string {
	var b strings.Builder
	for _, v := range vars {
		b.WriteString(a[v].String())
		b.WriteByte(';')
	}
	return b.String()
}

// restrict keeps only the bindings for variables of literal ql.
func restrict(a logic.Subst, ql logic.Literal) logic.Subst {
	out := logic.NewSubst()
	for _, v := range ql.Vars() {
		if t, ok := a[v.Name]; ok {
			out[v.Name] = t
		}
	}
	return out
}

func substKey(s logic.Subst) string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s[k].String())
		b.WriteByte(';')
	}
	return b.String()
}

// headAlignment computes the initial binding unifying q's head with p's
// head (the σ-is-identity-on-free-variables requirement).
func headAlignment(p, q logic.CQ) (logic.Subst, bool) {
	if len(p.HeadArgs) != len(q.HeadArgs) || p.HeadPred != q.HeadPred {
		return nil, false
	}
	sigma := logic.NewSubst()
	for j, qa := range q.HeadArgs {
		pa := p.HeadArgs[j]
		if qa.IsVar() {
			if bound, ok := sigma[qa.Name]; ok {
				if bound != pa {
					return nil, false
				}
				continue
			}
			sigma[qa.Name] = pa
			continue
		}
		if qa != pa {
			return nil, false
		}
	}
	return sigma, true
}

// Explain returns a witness for p ⊑ q (the checker's query), or nil and
// false when the containment does not hold. It mirrors Contains but
// records the successful branch; its memo only caches failures, since
// successes must be rebuilt per branch to capture their subtrees.
func (c *refChecker) Explain(p logic.CQ) (*Witness, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.explain(p)
}

// explain is the recursive body of Explain; c.mu must be held.
func (c *refChecker) explain(p logic.CQ) (*Witness, bool) {
	c.Nodes++
	if !Satisfiable(p) {
		return &Witness{Unsat: true}, true
	}
	key := canonKey(p)
	if v, ok := c.memo[key]; ok && !v {
		c.MemoHits++
		return nil, false
	}
	for i, qi := range c.q.Rules {
		if qi.False || !Satisfiable(qi) {
			continue
		}
		if w, ok := c.explainDisjunct(p, qi, i); ok {
			c.memo[key] = true
			return w, true
		}
	}
	c.memo[key] = false
	return nil, false
}

func (c *refChecker) explainDisjunct(p, qi logic.CQ, index int) (*Witness, bool) {
	var found *Witness
	findMapping(p, qi, func(sigma logic.Subst) bool {
		negs := qi.Negative()
		w := &Witness{Disjunct: index, Mapping: sigma.Clone()}
		for _, nl := range negs {
			ra := sigma.Atom(nl.Atom)
			if p.HasAtom(ra, false) {
				return false
			}
			ext := p.Clone()
			ext.Body = append(ext.Body, logic.Pos(ra))
			sub, ok := c.explain(ext)
			if !ok {
				return false
			}
			w.Children = append(w.Children, ChildWitness{Negative: nl.Clone(), Added: ra, Sub: sub})
		}
		found = w
		return true
	})
	return found, found != nil
}
