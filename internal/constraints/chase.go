package constraints

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/logic"
)

// Chase extends the rule body with the positive atoms the inclusion
// dependencies imply: for every dependency From[c̄] ⊆ To[d̄] and every
// positive From-literal whose projection has no matching To-literal, a
// To-atom is added with the projected terms at d̄ and fresh existential
// variables elsewhere. On instances satisfying the dependencies the
// chased rule is equivalent to the original; syntactic tests (notably
// Proposition 8 unsatisfiability) then see consequences the bare rule
// hides — e.g. with R[1] ⊆ S[0], chasing R(x,z) ∧ ¬S(z) adds S(z) and
// exposes the complementary pair.
//
// Cyclic dependency sets can chase forever; maxRounds caps the
// iteration, and the second return value reports whether a fixpoint was
// reached within the cap (the result is sound either way — every added
// atom is implied).
func (s Set) Chase(q logic.CQ, maxRounds int) (logic.CQ, bool) {
	if q.False {
		return q.Clone(), true
	}
	out := q.Clone()
	fresh := 0
	for round := 0; round < maxRounds; round++ {
		added := false
		for _, d := range s {
			var toAdd []logic.Literal
			for _, pos := range out.Body {
				if pos.Negated || pos.Atom.Pred != d.From {
					continue
				}
				if maxCol(d.FromCols) >= pos.Atom.Arity() {
					continue
				}
				if s.hasMatchingTo(out, d, pos.Atom) || hasMatchingIn(toAdd, d, pos.Atom) {
					continue
				}
				toArity := d.toArity(out)
				if toArity < 0 {
					// Arity of To is unknown (no To-literal in the rule);
					// infer the minimal arity covering ToCols.
					toArity = maxCol(d.ToCols) + 1
				}
				args := make([]logic.Term, toArity)
				for i := range args {
					args[i] = logic.Var(fmt.Sprintf("χ%d", fresh))
					fresh++
				}
				for i := range d.FromCols {
					args[d.ToCols[i]] = pos.Atom.Args[d.FromCols[i]]
				}
				toAdd = append(toAdd, logic.Pos(logic.NewAtom(d.To, args...)))
			}
			if len(toAdd) > 0 {
				out.Body = append(out.Body, toAdd...)
				added = true
			}
		}
		if !added {
			return out, true
		}
	}
	return out, false
}

// toArity returns the arity the rule already uses for relation d.To, or
// -1 when the relation does not occur.
func (d IND) toArity(q logic.CQ) int {
	for _, l := range q.Body {
		if l.Atom.Pred == d.To {
			return l.Atom.Arity()
		}
	}
	return -1
}

// hasMatchingTo reports whether the rule has a positive To-literal whose
// d̄-projection equals the From-atom's c̄-projection.
func (s Set) hasMatchingTo(q logic.CQ, d IND, from logic.Atom) bool {
	for _, l := range q.Body {
		if l.Negated || l.Atom.Pred != d.To {
			continue
		}
		if matchesProjection(l.Atom, d, from) {
			return true
		}
	}
	return false
}

func hasMatchingIn(lits []logic.Literal, d IND, from logic.Atom) bool {
	for _, l := range lits {
		if l.Atom.Pred == d.To && matchesProjection(l.Atom, d, from) {
			return true
		}
	}
	return false
}

func matchesProjection(to logic.Atom, d IND, from logic.Atom) bool {
	if maxCol(d.ToCols) >= to.Arity() {
		return false
	}
	for i := range d.FromCols {
		if to.Args[d.ToCols[i]] != from.Args[d.FromCols[i]] {
			return false
		}
	}
	return true
}

// DefaultChaseRounds bounds the chase for the convenience wrappers.
const DefaultChaseRounds = 16

// SatisfiableUnder reports whether the rule is satisfiable on some
// instance satisfying the dependencies: the chased rule must pass the
// Proposition 8 check. False answers are definite; true answers are
// sound for the syntactic criterion (as in the paper, which only uses
// complementary-pair unsatisfiability).
func (s Set) SatisfiableUnder(q logic.CQ) bool {
	chased, _ := s.Chase(q, DefaultChaseRounds)
	return containment.Satisfiable(chased)
}

// OptimizeChase drops rules whose chase is unsatisfiable — a strictly
// stronger compile-time semantic optimizer than Optimize/RefutesRule,
// since the chase follows dependency chains (R ⊆ S ⊆ T) and partial
// column covers that the direct pattern match misses.
func (s Set) OptimizeChase(u logic.UCQ) logic.UCQ {
	var rules []logic.CQ
	for _, r := range u.Rules {
		if !s.SatisfiableUnder(r) {
			continue
		}
		rules = append(rules, r.Clone())
	}
	return logic.UCQ{Rules: rules}
}

// FeasibleUnder decides feasibility modulo the dependencies: rules
// refuted by the chase are dropped first (they are empty on every legal
// instance), then the paper's FEASIBLE runs on the remainder. A query
// infeasible in general may be feasible under constraints (Example 6).
func FeasibleUnder(u logic.UCQ, ps *access.Set, s Set) core.FeasibleResult {
	return core.Feasible(s.OptimizeChase(u), ps)
}
