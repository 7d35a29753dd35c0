// Package containment implements query containment for the four classes
// CQ, UCQ, CQ¬, and UCQ¬, following the algorithms the paper builds on:
//
//   - CQ/UCQ containment via containment mappings (Chandra & Merlin 1977;
//     Sagiv & Yannakakis 1980),
//   - CQ¬/UCQ¬ containment via Wei & Lausen (ICDT 2003) Theorems 2 and 5,
//     as restated in Theorems 12 and 13 of Nash & Ludäscher (EDBT 2004),
//   - CQ¬ satisfiability (Proposition 8),
//   - the two many-one reductions between containment and feasibility
//     (Theorem 18 and Proposition 20).
//
// The containment test is Π₂ᴾ-complete for CQ¬/UCQ¬, so worst-case
// exponential time is expected; the implementation memoizes subproblems
// and prunes the containment-mapping search.
package containment

import "repro/internal/logic"

// Satisfiable reports whether a CQ¬ query is satisfiable. By
// Proposition 8 of the paper, Q is unsatisfiable iff some atom appears
// both positively and negatively in the body (or Q is the query false).
// Each negated atom is compared with the positive ones in place, so the
// check allocates nothing.
func Satisfiable(q logic.CQ) bool {
	if q.False {
		return false
	}
	for _, n := range q.Body {
		if !n.Negated {
			continue
		}
		for _, p := range q.Body {
			if !p.Negated && p.Atom.Equal(n.Atom) {
				return false
			}
		}
	}
	return true
}

// SatisfiableUCQ reports whether some rule of u is satisfiable.
func SatisfiableUCQ(u logic.UCQ) bool {
	for _, r := range u.Rules {
		if Satisfiable(r) {
			return true
		}
	}
	return false
}
