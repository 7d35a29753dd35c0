// Package minimize implements query minimization: computing the core of
// a conjunctive query (the unique minimal equivalent subquery, up to
// isomorphism) and removing redundant disjuncts from unions. The
// Li–Chang baseline algorithms CQstable and UCQstable (Section 5.3–5.4 of
// the paper) minimize before testing orderability; this package supplies
// that step. Minimization is sound for CQ¬/UCQ¬ as well, because every
// removal is verified by a containment check (Theorems 12/13).
//
// One pass and one direction suffice. Dropping a conjunct only widens a
// query, so cur ⊑ cur∖l holds by construction and a removal needs only
// cur∖l ⊑ cur. And a literal that cannot go now can never go later: if
// cur∖j ⋢ cur and a later removal leaves cur′ ≡ cur, then
// cur∖j ⊑ cur′∖j, so cur′∖j ⊑ cur′ would give cur∖j ⊑ cur. The same
// holds one level up for disjuncts: a rule not contained in the union of
// the others is not contained in the union of fewer of them. Restarting
// the scan after a removal would re-prove the same failures and remove
// the same literals in the same order.
package minimize

import (
	"slices"

	"repro/internal/containment"
	"repro/internal/logic"
)

// CQ returns a minimal query equivalent to q: no body literal can be
// removed without changing the query's meaning. For negation-free q this
// is the core of q. Removal candidates that would leave a head variable
// uncovered are skipped (the result must stay range-restricted).
func CQ(q logic.CQ) logic.CQ { return minimizeCQ(q, nil) }

// minimizeCQ is CQ drawing its containment nodes from *budget (nil =
// unbounded). Once the budget is spent the remaining literals are kept:
// the result is still equivalent to q, merely less minimal.
func minimizeCQ(q logic.CQ, budget *int) logic.CQ {
	if q.False || !containment.Satisfiable(q) {
		return logic.FalseQuery(q.HeadPred, q.HeadArgs)
	}
	// Only the body slice is the result's own: its literals and head
	// are q's, shared as without shares them, since nothing here writes
	// to one.
	cur := logic.CQ{HeadPred: q.HeadPred, HeadArgs: q.HeadArgs, Body: slices.Clone(q.Body)}
	// ck decides containment in cur; its memo is shared by every
	// candidate tested against the same cur, and it is rebuilt only
	// after a removal changed cur.
	var ck *containment.Checker
	redundant := func(i int) bool {
		if duplicated(cur, i) {
			// The same literal occurs again: dropping this occurrence
			// leaves the same set of conjuncts.
			return true
		}
		if !couldFold(cur, i) || (budget != nil && *budget <= 0) {
			return false
		}
		cand := without(cur, i)
		if !cand.HeadSafe() || (len(cand.Body) == 0 && len(cand.HeadArgs) > 0) {
			return false
		}
		if ck == nil {
			ck = containment.NewChecker(logic.UCQ{Rules: []logic.CQ{cur}})
		}
		if budget == nil {
			return ck.Contains(cand)
		}
		before := ck.Nodes
		ok, err := ck.ContainsLimited(cand, *budget)
		*budget -= ck.Nodes - before
		return ok && err == nil
	}
	for i := 0; i < len(cur.Body); {
		if redundant(i) {
			cur, ck = without(cur, i), nil
		} else {
			i++
		}
	}
	return cur
}

// without returns cur with body literal i removed. The literals are
// shared with cur, not copied: nothing here writes to one.
func without(cur logic.CQ, i int) logic.CQ {
	body := make([]logic.Literal, 0, len(cur.Body)-1)
	body = append(append(body, cur.Body[:i]...), cur.Body[i+1:]...)
	return logic.CQ{HeadPred: cur.HeadPred, HeadArgs: cur.HeadArgs, Body: body}
}

// duplicated reports whether body literal i of cur occurs at another
// position as well.
func duplicated(cur logic.CQ, i int) bool {
	for j, l := range cur.Body {
		if j != i && l.Equal(cur.Body[i]) {
			return true
		}
	}
	return false
}

// couldFold reports whether cur∖i ⊑ cur is possible at all for body
// literal i. By Theorem 12 the containment needs a mapping from cur into
// cur∖i that fixes the head and sends a positive literal to a positive
// literal of cur∖i, and for a negated literal ¬R(ȳ) it needs, at the end
// of the theorem's recursion, a negated R-literal of cur∖i as the image
// under such a mapping. Either way the image has the same sign,
// predicate and arity, the same constants, and the same head variables
// in the same places; with no such literal there is no test to run.
func couldFold(cur logic.CQ, i int) bool {
	l := cur.Body[i]
next:
	for j, m := range cur.Body {
		if j == i || m.Negated != l.Negated || m.Atom.Pred != l.Atom.Pred || len(m.Atom.Args) != len(l.Atom.Args) {
			continue
		}
		for k, t := range l.Atom.Args {
			if (!t.IsVar() || slices.Contains(cur.HeadArgs, t)) && m.Atom.Args[k] != t {
				continue next
			}
		}
		return true
	}
	return false
}

// Cores minimizes each rule of u independently, preserving positions:
// result[i] is the core of u.Rules[i] (or the query "false" when the
// rule is unsatisfiable). Unlike UCQ it never drops or reorders
// disjuncts, so callers can correlate cores with the original rules
// (core.PlanUnion drops the unsatisfiable and contained ones itself).
//
// It runs on a request path, so all its containment tests together
// examine at most *budget nodes (containment is Π₂ᴾ-complete), and it
// leaves in *budget the nodes not spent (zero or less once it ran out).
// When the budget runs out the literals not yet tested stay: every
// result is equivalent to its rule, the later ones possibly not minimal.
func Cores(u logic.UCQ, budget *int) []logic.CQ {
	out := make([]logic.CQ, len(u.Rules))
	for i, r := range u.Rules {
		out[i] = minimizeCQ(r, budget)
	}
	return out
}

// UCQ returns a minimal union equivalent to u: each rule is minimized,
// then rules contained in the union of the others are removed (so the
// result has no redundant disjunct).
func UCQ(u logic.UCQ) logic.UCQ {
	rules := make([]logic.CQ, 0, len(u.Rules))
	for _, r := range u.Rules {
		m := CQ(r)
		if m.False {
			continue
		}
		rules = append(rules, m)
	}
	// Drop duplicate and redundant disjuncts in one greedy scan.
	for i := 0; i < len(rules) && len(rules) > 1; {
		rest := logic.UCQ{Rules: append(append([]logic.CQ(nil), rules[:i]...), rules[i+1:]...)}
		if containment.Contained(rules[i], rest) {
			rules = rest.Rules
			continue
		}
		i++
	}
	return logic.UCQ{Rules: rules}
}
