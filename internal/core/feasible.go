package core

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/containment"
	"repro/internal/logic"
)

// Verdict says how FEASIBLE reached its answer, in increasing order of
// cost. The first two are decided by the quadratic-time PLAN* output
// alone; only the last requires the Π₂ᴾ-complete containment check.
type Verdict int

const (
	// VerdictUnderEqualsOver: Qᵘ = Qᵒ, so Q is orderable and hence
	// feasible (cheap positive certificate).
	VerdictUnderEqualsOver Verdict = iota
	// VerdictNullInOverestimate: the overestimate binds a head variable
	// to null, so ans(Q) is unsafe and Q cannot be feasible (cheap
	// negative certificate; justified by Theorem 16).
	VerdictNullInOverestimate
	// VerdictContainment: feasibility was decided by the containment
	// check ans(Q) ⊑ Q (Corollary 17).
	VerdictContainment
)

func (v Verdict) String() string {
	switch v {
	case VerdictUnderEqualsOver:
		return "underestimate equals overestimate"
	case VerdictNullInOverestimate:
		return "null in overestimate"
	case VerdictContainment:
		return "containment test ans(Q) ⊑ Q"
	}
	return "unknown"
}

// FeasibleResult is the outcome of the FEASIBLE algorithm with its
// explanation and the work accounting of the containment checker (zero
// when a fast path decided).
type FeasibleResult struct {
	Feasible bool
	Verdict  Verdict
	Plans    PlanStar
	// Nodes is the number of containment subproblems examined (0 when a
	// fast path decided feasibility).
	Nodes int
}

func (r FeasibleResult) String() string {
	status := "infeasible"
	if r.Feasible {
		status = "feasible"
	}
	return fmt.Sprintf("%s (by %s)", status, r.Verdict)
}

// Feasible implements algorithm FEASIBLE (Figure 3 of the paper): it runs
// PLAN*, returns true if Qᵘ = Qᵒ, false if the overestimate contains a
// null, and otherwise decides by the containment test Qᵒ ⊑ Q (at that
// point Qᵒ is exactly ans(Q), and by Corollary 17 Q is feasible iff
// ans(Q) ⊑ Q). Deciding feasibility of UCQ¬ queries is Π₂ᴾ-complete
// (Corollary 19), and all the cost is in the containment check.
func Feasible(u logic.UCQ, ps *access.Set) FeasibleResult {
	res, _ := feasible(u, ps, func(ck *containment.Checker, r logic.CQ) (bool, error) { return ck.Contains(r), nil })
	return res
}

// FeasibleCQ is Feasible on a single CQ¬ query.
func FeasibleCQ(q logic.CQ, ps *access.Set) FeasibleResult {
	return Feasible(logic.AsUnion(q), ps)
}

// Explanation augments a FEASIBLE result with checkable evidence: when
// feasibility was decided by the containment test, Witnesses holds one
// containment witness per overestimate rule (ans(Q) ⊑ Q), each
// re-verifiable with containment.Checker.Verify.
type Explanation struct {
	Result FeasibleResult
	// Witnesses[i] justifies containment of the i-th overestimate rule
	// in Q; nil (and empty) for fast-path verdicts.
	Witnesses []*containment.Witness
}

// ExplainFeasible is Feasible with witness construction for the
// containment path, so "why is this feasible?" has an auditable answer.
func ExplainFeasible(u logic.UCQ, ps *access.Set) Explanation {
	var witnesses []*containment.Witness
	res, _ := feasible(u, ps, func(ck *containment.Checker, r logic.CQ) (bool, error) {
		w, ok := ck.Explain(r)
		witnesses = append(witnesses, w)
		return ok, nil
	})
	if !res.Feasible {
		witnesses = nil
	}
	return Explanation{Result: res, Witnesses: witnesses}
}

// FeasibleLimited is Feasible with a bound on the containment search
// (the feasibility problem is Π₂ᴾ-complete, so adversarial inputs can be
// astronomically expensive). It returns containment.ErrBudget when the
// budget is exhausted before the test concludes; the fast paths of
// FEASIBLE are unaffected by the budget.
func FeasibleLimited(u logic.UCQ, ps *access.Set, maxNodes int) (FeasibleResult, error) {
	return feasible(u, ps, func(ck *containment.Checker, r logic.CQ) (bool, error) {
		return ck.ContainsLimited(r, maxNodes-ck.Nodes)
	})
}

// feasible is FEASIBLE with contains deciding, on one checker for u,
// whether each rule of the overestimate is contained in u.
func feasible(u logic.UCQ, ps *access.Set, contains func(*containment.Checker, logic.CQ) (bool, error)) (FeasibleResult, error) {
	res := FeasibleResult{Plans: ComputePlans(u, ps)}
	switch {
	case res.Plans.UnderEqualsOver():
		res.Feasible, res.Verdict = true, VerdictUnderEqualsOver
		return res, nil
	case res.Plans.HasNull():
		res.Verdict = VerdictNullInOverestimate
		return res, nil
	}
	checker := containment.NewChecker(u)
	res.Verdict, res.Feasible = VerdictContainment, true
	var err error
	for _, r := range res.Plans.Over.Rules {
		var ok bool
		if ok, err = contains(checker, r); err != nil || !ok {
			res.Feasible = false
			break
		}
	}
	res.Nodes = checker.Nodes
	return res, err
}
