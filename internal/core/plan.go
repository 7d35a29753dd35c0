package core

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/access"
	"repro/internal/containment"
	"repro/internal/logic"
	"repro/internal/minimize"
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
// for a literal over a relation with no declared pattern, or with an
// arity no pattern has. It is the querier's error, not the mediator's.
// A rule with no executable order is no error (NewPlan).
var ErrNotOrderable = errors.New("query is not orderable under the declared access patterns")

// Plan is the one planned form of a union that every execution runs:
// Exec is the union the driver evaluates and Steps[i] the adorned steps
// of Exec.Rules[i] (nil for a False rule), both positional with the
// planned union. A Plan is immutable: a cached one is shared by
// concurrent executions, which read its rules and steps and never write
// them.
type Plan struct {
	Exec  logic.UCQ
	Steps [][]access.AdornedLiteral
	// Dismissed[i] is PLAN*'s analysis of rule i when no order of it is
	// executable: Exec.Rules[i] is then its overestimate Qᵢᵒ and the
	// analysis's Unanswerable the literals Uᵢ the plan dismissed, so the
	// rule's rows are no certain answers. It is nil for a certain rule,
	// and Dismissed is nil when every rule is certain.
	Dismissed []*RuleAnalysis
}

// Certain reports whether rule i of the plan is run in full, so that
// its rows are certain answers.
func (p Plan) Certain(i int) bool { return p.Dismissed == nil || p.Dismissed[i] == nil }

// NewPlan plans u under ps, rule by rule, in one of three ways: a rule
// executable as written keeps its literal order and that order's
// adornment; any other orderable rule (Definition 4) takes the order
// ANSWERABLE chooses (Reorder), and an unsatisfiable one becomes False;
// any other rule runs as PLAN*'s overestimate Qᵢᵒ (Figure 2), recorded
// in Dismissed — an empty answerable part is a rule with no steps, which
// yields the one empty binding. False rules keep their place with nil
// steps. NewPlan fails, wrapping ErrNotOrderable and naming the rule,
// only for a literal over an undeclared relation or with a wrong arity.
func NewPlan(u logic.UCQ, ps *access.Set) (Plan, error) {
	p := Plan{Exec: logic.UCQ{Rules: make([]logic.CQ, len(u.Rules))}, Steps: make([][]access.AdornedLiteral, len(u.Rules))}
	for i, rule := range u.Rules {
		if err := declared(i, rule, ps); err != nil {
			return Plan{}, err
		}
		if rule.False {
			p.Exec.Rules[i] = rule
			continue
		}
		rule, steps, ok := certainOrder(rule, ps)
		if !ok {
			ra := analyzeRule(u.Rules[i], ps)
			rule = ra.Over
			steps, _ = access.AdornInOrder(rule.Body, ps) // ANSWERABLE's order; none for an empty body
			if !ra.Under.Equal(ra.Over) {
				if p.Dismissed == nil {
					p.Dismissed = make([]*RuleAnalysis, len(u.Rules))
				}
				p.Dismissed[i] = &ra
			}
		}
		p.Exec.Rules[i], p.Steps[i] = rule, steps
	}
	return p, nil
}

// declared fails, wrapping ErrNotOrderable, when a literal of rule i
// has no declared pattern of its relation and arity. The message quotes
// the relation and the rule cut to maxQuoted bytes each.
func declared(i int, rule logic.CQ, ps *access.Set) error {
	for _, l := range rule.Body {
		if ps.Arity(l.Atom.Pred) != l.Atom.Arity() {
			return fmt.Errorf("core: %w: rule %d: no pattern of %s/%d: %s", ErrNotOrderable, i+1, quoted(l.Atom.Pred), l.Atom.Arity(), quoted(rule.String()))
		}
	}
	return nil
}

// maxQuoted bounds, in bytes, what a planning error quotes of a query —
// a relation name, a rule's rendering — so that an error, which the plan
// cache keeps for a failing text, holds nothing request-sized.
const maxQuoted = 512

// quoted returns s when it fits maxQuoted, and else its first maxQuoted
// bytes, cut at a rune boundary and marked with the length cut from.
func quoted(s string) string {
	if len(s) <= maxQuoted {
		return s
	}
	n := maxQuoted
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n] + "… (cut from " + strconv.Itoa(len(s)) + " bytes)"
}

// certainOrder is the order NewPlan runs a rule in full: as written when
// that order is executable, else ANSWERABLE's (False when the rule is
// unsatisfiable); ok is false when the rule is not orderable.
func certainOrder(rule logic.CQ, ps *access.Set) (logic.CQ, []access.AdornedLiteral, bool) {
	steps, ok := access.AdornInOrder(rule.Body, ps)
	if !ok {
		if rule, ok = Reorder(rule, ps); ok && !rule.False {
			steps, ok = access.AdornInOrder(rule.Body, ps)
		}
	}
	return rule, steps, ok
}

// PlanBudget is the default planning budget of one union: the
// containment nodes PlanUnion's minimization and disjunct scan may
// examine together.
const PlanBudget = 20000

// PlanUnion is the planner every execution runs, cached or not. It
// minimizes each rule of q to its core (minimize.Cores) and drops
// the unsatisfiable ones; plans the rest with NewPlan, except that a
// core NewPlan dismisses runs as written when the rule as written is
// orderable (minimization the budget stopped partway can leave a
// non-orderable core); and drops every rule whose core is contained in
// the core of a certain rule kept beside it (Sagiv–Yannakakis: j ⊑ i
// makes i ∨ j ≡ i). A rule contained only in dismissed rules stays:
// their rows are no certain answers. Minimization keeps literal order,
// so a rule executable as written still runs in its written order.
//
// Containment is Π₂ᴾ-complete and this runs on a request path, so the
// minimization and the scan together examine at most budget nodes; the
// scan charges at least one per pair it looks at, and once the budget
// is spent every rule not yet dropped stays. Either way the plan is
// equivalent to q, merely less minimal.
//
// It returns the plan and, positional with its rules, the cores of the
// rules of q they stand for: a certain rule is equivalent to its core,
// and a dismissed rule runs as its overestimate Qᵢᵒ, which contains it.
// Like NewPlan it fails, wrapping ErrNotOrderable, only for a literal
// of q with no declared pattern.
func PlanUnion(q logic.UCQ, ps *access.Set, budget int) (Plan, []logic.CQ, error) {
	for i, rule := range q.Rules {
		if err := declared(i, rule, ps); err != nil {
			return Plan{}, nil, err
		}
	}
	cores := minimize.Cores(q, &budget)
	p, err := NewPlan(logic.UCQ{Rules: cores}, ps)
	if err != nil {
		return Plan{}, nil, err
	}
	for i, ra := range p.Dismissed {
		if ra == nil {
			continue
		}
		if rule, steps, ok := certainOrder(q.Rules[i], ps); ok {
			p.Exec.Rules[i], p.Steps[i], p.Dismissed[i] = rule, steps, nil
		}
	}
	drop := containedRules(p, cores, budget)
	n := 0
	for i, c := range cores {
		if c.False || (drop != nil && drop[i]) {
			continue
		}
		p.Exec.Rules[n], p.Steps[n], cores[n] = p.Exec.Rules[i], p.Steps[i], c
		if p.Dismissed != nil {
			p.Dismissed[n] = p.Dismissed[i]
		}
		n++
	}
	p.Exec.Rules, p.Steps, cores = p.Exec.Rules[:n], p.Steps[:n], cores[:n]
	if p.Dismissed != nil {
		if p.Dismissed = p.Dismissed[:n]; !slices.ContainsFunc(p.Dismissed, func(ra *RuleAnalysis) bool { return ra != nil }) {
			p.Dismissed = nil
		}
	}
	return p, cores, nil
}

// containedRules marks, within budget, each satisfiable rule j of p
// whose core is contained in the core of a certain, satisfiable rule i
// not marked. It scans j in order and, for each, the rules after it
// before those before it, so a rule equivalent to a later one goes and
// the later one stays, and the marked rules, all before j, come last.
// Every pair it looks at costs a node. It returns nil when it marks
// none.
func containedRules(p Plan, cores []logic.CQ, budget int) []bool {
	var drop []bool
	var cks []*containment.Checker // cks[i] decides containment in cores[i]
	n := len(cores)
	for j := range cores {
		for d := 1; d < n && !cores[j].False; d++ {
			if budget--; budget < 0 {
				return drop
			}
			i := (j + d) % n
			if cores[i].False || !p.Certain(i) || (drop != nil && drop[i]) || !mayContain(cores[i], cores[j]) {
				continue
			}
			if cks == nil {
				cks = make([]*containment.Checker, len(cores))
			}
			if cks[i] == nil {
				cks[i] = containment.NewChecker(logic.AsUnion(cores[i]))
			}
			before := cks[i].Nodes
			ok, err := cks[i].ContainsLimited(cores[j], budget)
			budget -= cks[i].Nodes - before
			if ok && err == nil {
				if drop == nil {
					drop = make([]bool, len(cores))
				}
				drop[j] = true
				break
			}
		}
	}
	return drop
}

// mayContain reports whether c ⊑ d is possible at all for satisfiable
// cores c and d. By Theorem 12 it needs a mapping σ from d into c that
// fixes the head positionally and every constant: each positive literal
// of d has its image in c, and each negated literal ¬R(ȳ) of d finds,
// at the end of the theorem's recursion, a negated ¬R(σ′ȳ) in c. Either
// way each literal of d has one in c of the same sign, predicate and
// arity with d's constants at the same positions, and each head
// constant of d is c's head term at its position. A pair that fails
// this needs no containment test; the check allocates nothing.
func mayContain(d, c logic.CQ) bool {
	if !sameConstants(d.HeadArgs, c.HeadArgs) {
		return false
	}
next:
	for _, l := range d.Body {
		for _, m := range c.Body {
			if m.Negated == l.Negated && m.Atom.Pred == l.Atom.Pred && sameConstants(l.Atom.Args, m.Atom.Args) {
				continue next
			}
		}
		return false
	}
	return true
}

// sameConstants reports whether args has the same length as pattern
// and pattern's constants at the same positions.
func sameConstants(pattern, args []logic.Term) bool {
	if len(args) != len(pattern) {
		return false
	}
	for k, t := range pattern {
		if !t.IsVar() && args[k] != t {
			return false
		}
	}
	return true
}

// ExecutionOrder returns the adorned execution steps for an executable
// rule (one access pattern chosen per literal), or an error if the rule
// is not executable as written. PLAN* emits rules in executable order, so
// this succeeds on every rule of Under and Over with a nonempty body.
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
