package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/access"
	"repro/internal/logic"
)

// RuleAnalysis is the per-rule outcome of PLAN* (Figure 2 of the paper).
type RuleAnalysis struct {
	// Rule is the original CQ¬ rule Qᵢ.
	Rule logic.CQ
	// Ans is ans(Qᵢ): the answerable part Aᵢ in executable order
	// (false when Qᵢ is unsatisfiable). Its head is the original head,
	// so it may be unsafe; see Over for the null-patched version.
	Ans logic.CQ
	// Unanswerable is Uᵢ = Qᵢ \ Aᵢ, the literals no plan can execute.
	Unanswerable []logic.Literal
	// Under is Qᵢᵘ: Aᵢ when Uᵢ is empty, otherwise false
	// ("dismiss Qᵢ altogether for the underestimate").
	Under logic.CQ
	// Over is Qᵢᵒ: Aᵢ with head variables that do not occur in Aᵢ
	// replaced by null ("benefit of the doubt" for Uᵢ); false when Qᵢ is
	// unsatisfiable.
	Over logic.CQ
}

// Complete reports whether the rule was fully answerable (Uᵢ empty).
func (ra RuleAnalysis) Complete() bool { return len(ra.Unanswerable) == 0 }

// PlanStar is the result of the PLAN* algorithm on a UCQ¬ query: the
// underestimate plan Qᵘ and overestimate plan Qᵒ, with per-rule detail.
// Both plans are executable: Qᵘ ⊑ Q ⊑ Qᵒ (the latter up to the careful
// interpretation of null tuples described in Section 4.2 of the paper).
type PlanStar struct {
	Query logic.UCQ
	Rules []RuleAnalysis
	// Under is Qᵘ with false rules dropped (an empty union is the query
	// false, which returns no tuples).
	Under logic.UCQ
	// Over is Qᵒ with false rules dropped. Rules may carry null head
	// arguments.
	Over logic.UCQ
}

// UnderEqualsOver reports whether Qᵘ = Qᵒ, rule by rule, which is the
// fast feasibility certificate of FEASIBLE (Figure 3): it holds exactly
// when every satisfiable rule was fully answerable.
func (p PlanStar) UnderEqualsOver() bool {
	for _, ra := range p.Rules {
		if !ra.Under.Equal(ra.Over) {
			return false
		}
	}
	return true
}

// HasNull reports whether the overestimate contains a null head binding.
func (p PlanStar) HasNull() bool { return p.Over.HasNull() }

// String renders the two plans for human consumption.
func (p PlanStar) String() string {
	var b strings.Builder
	b.WriteString("underestimate Q^u:\n")
	if len(p.Under.Rules) == 0 {
		b.WriteString("  (false)\n")
	}
	for _, r := range p.Under.Rules {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	b.WriteString("overestimate Q^o:\n")
	if len(p.Over.Rules) == 0 {
		b.WriteString("  (false)\n")
	}
	for _, r := range p.Over.Rules {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	return strings.TrimRight(b.String(), "\n")
}

// ComputePlans runs PLAN* (Figure 2): for every rule Qᵢ it computes the
// answerable part Aᵢ and unanswerable part Uᵢ, the underestimate rule
// (Aᵢ if Uᵢ = ∅, else false) and the overestimate rule (Aᵢ with missing
// head variables bound to null). It runs in quadratic time.
func ComputePlans(u logic.UCQ, ps *access.Set) PlanStar {
	out := PlanStar{Query: u.Clone(), Rules: make([]RuleAnalysis, len(u.Rules))}
	for i, q := range u.Rules {
		out.Rules[i] = analyzeRule(q, ps)
	}
	var under, over []logic.CQ
	for _, ra := range out.Rules {
		if !ra.Under.False {
			under = append(under, ra.Under.Clone())
		}
		if !ra.Over.False {
			over = append(over, ra.Over.Clone())
		}
	}
	out.Under = logic.UCQ{Rules: under}
	out.Over = logic.UCQ{Rules: over}
	return out
}

func analyzeRule(q logic.CQ, ps *access.Set) RuleAnalysis {
	ra := RuleAnalysis{Rule: q.Clone(), Ans: AnswerablePart(q, ps)}
	if ra.Ans.False {
		// Unsatisfiable rule: both estimates are false.
		ra.Under = logic.FalseQuery(q.HeadPred, q.HeadArgs)
		ra.Over = logic.FalseQuery(q.HeadPred, q.HeadArgs)
		return ra
	}
	inAns := map[string]bool{}
	for _, l := range ra.Ans.Body {
		inAns[l.Key()] = true
	}
	for _, l := range q.Body {
		if !inAns[l.Key()] {
			ra.Unanswerable = append(ra.Unanswerable, l.Clone())
		}
	}
	if len(ra.Unanswerable) == 0 {
		ra.Under = ra.Ans.Clone()
	} else {
		ra.Under = logic.FalseQuery(q.HeadPred, q.HeadArgs)
	}
	ra.Over = overestimateRule(ra.Ans)
	return ra
}

// overestimateRule returns Aᵢ with head variables not occurring in the
// answerable body replaced by null (Figure 2's "x := null" step).
func overestimateRule(ans logic.CQ) logic.CQ {
	bodyVars := map[string]bool{}
	for _, l := range ans.Body {
		for _, v := range l.Vars() {
			bodyVars[v.Name] = true
		}
	}
	out := ans.Clone()
	for j, t := range out.HeadArgs {
		if t.IsVar() && !bodyVars[t.Name] {
			out.HeadArgs[j] = logic.Null
		}
	}
	return out
}

// ErrNotOrderable is the planning failure every layer reports, wrapped,
// for a query the declared access patterns cannot run: no ordering of
// some rule's literals binds every input slot (an unknown relation or a
// wrong arity has no pattern to call at all), or a rule handed over as
// executable is not. It is the querier's error, not the mediator's.
var ErrNotOrderable = errors.New("query is not orderable under the declared access patterns")

// ExecutionOrder returns the adorned execution steps for an executable
// rule (one access pattern chosen per literal), or an error if the rule
// is not executable as written. PLAN* emits rules in executable order, so
// this succeeds on every rule of Under and Over.
func ExecutionOrder(q logic.CQ, ps *access.Set) ([]access.AdornedLiteral, error) {
	if q.False {
		return nil, nil
	}
	steps, ok := access.AdornInOrder(q.Body, ps)
	if !ok {
		return nil, fmt.Errorf("core: rule is not executable as written: %s", q)
	}
	return steps, nil
}
