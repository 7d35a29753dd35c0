// Package ucqn processes unions of conjunctive queries with negation
// (UCQ¬) over sources with limited access patterns, implementing
// Nash & Ludäscher, "Processing Unions of Conjunctive Queries with
// Negation under Limited Access Patterns" (EDBT 2004).
//
// A source with access pattern R^α (α a word over {i, o}) can only be
// called by supplying values for every 'i' slot — the model of a web
// service operation. The package answers the questions the paper poses:
//
//   - Is a query executable as written, orderable, or feasible
//     (equivalent to some executable plan)? Feasibility is decided by
//     FEASIBLE (Π₂ᴾ-complete in general, with cheap certificates for the
//     common cases).
//   - If the query is not feasible, what are the best executable
//     under- and overestimate plans (PLAN*)?
//   - At runtime, is the answer complete anyway, and if not, how
//     complete is it at least (ANSWER*)?
//
// The surface syntax is Datalog-style:
//
//	q, err := ucqn.ParseQuery(`Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).`)
//	ps, err := ucqn.ParsePatterns(`B^ioo B^oio C^oo L^o`)
//	res := ucqn.Feasible(q, ps)     // feasible via reordering
//
// See the examples/ directory for end-to-end usage including plan
// execution against simulated limited-access sources.
package ucqn

import (
	"repro/internal/access"
	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lichang"
	"repro/internal/logic"
	"repro/internal/minimize"
	"repro/internal/parser"
	"repro/internal/sources"
)

// Core representation types.
type (
	// Term is a variable, constant, or the distinguished null.
	Term = logic.Term
	// Atom is a predicate applied to terms.
	Atom = logic.Atom
	// Literal is an atom or its negation.
	Literal = logic.Literal
	// Rule is a conjunctive query with negation (CQ¬) in rule form.
	Rule = logic.CQ
	// Query is a union of CQ¬ rules sharing a head (UCQ¬).
	Query = logic.UCQ
	// Subst is a substitution from variable names to terms.
	Subst = logic.Subst
)

// Access-pattern types.
type (
	// Pattern is a word over {i, o}, e.g. "oio" in B^oio.
	Pattern = access.Pattern
	// PatternSet maps relations to their declared access patterns.
	PatternSet = access.Set
	// AdornedLiteral is a literal with its chosen access pattern — one
	// step of an execution plan.
	AdornedLiteral = access.AdornedLiteral
)

// Planning and feasibility types.
type (
	// PlanStar is the PLAN* output: underestimate and overestimate plans.
	PlanStar = core.PlanStar
	// RuleAnalysis is PLAN*'s per-rule decomposition into answerable and
	// unanswerable parts.
	RuleAnalysis = core.RuleAnalysis
	// FeasibleResult is FEASIBLE's verdict with its explanation.
	FeasibleResult = core.FeasibleResult
	// Verdict says which certificate decided feasibility.
	Verdict = core.Verdict
)

// Verdict values.
const (
	VerdictUnderEqualsOver    = core.VerdictUnderEqualsOver
	VerdictNullInOverestimate = core.VerdictNullInOverestimate
	VerdictContainment        = core.VerdictContainment
)

// Runtime types.
type (
	// Instance is an in-memory database instance.
	Instance = engine.Instance
	// Catalog is a set of callable limited-access sources.
	Catalog = sources.Catalog
	// Source is a callable relation with limited access patterns.
	Source = sources.Source
	// Table is an in-memory metered source.
	Table = sources.Table
	// Tuple is a row of constants as returned by sources.
	Tuple = sources.Tuple
	// SourceStats is a source's traffic accounting.
	SourceStats = sources.Stats
	// Rel is a set of answer rows.
	Rel = engine.Rel
	// Row is one answer tuple (values or nulls).
	Row = engine.Row
	// Value is a constant answer value or null.
	Value = engine.Value
	// AnswerStar is the ANSWER* runtime report.
	AnswerStar = engine.AnswerStar
	// DomResult is the outcome of domain enumeration.
	DomResult = engine.DomResult
)

// Var returns a variable term.
func Var(name string) Term { return logic.Var(name) }

// Const returns a constant term.
func Const(name string) Term { return logic.Const(name) }

// Null is the distinguished null term.
var Null = logic.Null

// ParseQuery parses one or more Datalog-style rules into a UCQ¬ query.
func ParseQuery(src string) (Query, error) { return parser.ParseUCQ(src) }

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(src string) Query { return parser.MustUCQ(src) }

// ParseRule parses exactly one rule into a CQ¬.
func ParseRule(src string) (Rule, error) { return parser.ParseCQ(src) }

// MustParseRule is ParseRule that panics on error.
func MustParseRule(src string) Rule { return parser.MustCQ(src) }

// ParsePatterns parses access-pattern declarations like "B^ioo C^oo".
func ParsePatterns(src string) (*PatternSet, error) { return parser.ParsePatterns(src) }

// MustParsePatterns is ParsePatterns that panics on error.
func MustParsePatterns(src string) *PatternSet { return parser.MustPatterns(src) }

// NewPatternSet returns an empty pattern set.
func NewPatternSet() *PatternSet { return access.NewSet() }

// Executable reports whether the query is executable as written
// (Definition 3 of the paper).
func Executable(q Query, ps *PatternSet) bool { return core.Executable(q, ps) }

// Orderable reports whether each rule admits an executable reordering
// (Definition 4); quadratic time.
func Orderable(q Query, ps *PatternSet) bool { return core.OrderableUCQ(q, ps) }

// Reorder returns the executable reordering chosen by ANSWERABLE, and
// whether all rules were orderable.
func Reorder(q Query, ps *PatternSet) (Query, bool) { return core.ReorderUCQ(q, ps) }

// AnswerablePart computes ans(Q), the paper's Figure 1 algorithm applied
// rule-wise.
func AnswerablePart(q Query, ps *PatternSet) Query { return core.AnswerableUCQ(q, ps) }

// Plan runs PLAN* (Figure 2): executable underestimate and overestimate
// plans with per-rule analysis; quadratic time.
func Plan(q Query, ps *PatternSet) PlanStar { return core.ComputePlans(q, ps) }

// Feasible runs FEASIBLE (Figure 3): exact feasibility, deciding by
// cheap certificates when possible and by the Π₂ᴾ-complete containment
// test otherwise.
func Feasible(q Query, ps *PatternSet) FeasibleResult { return core.Feasible(q, ps) }

// FeasibleLimited is Feasible with a bound on containment search nodes;
// it returns ErrBudget if the bound is hit.
func FeasibleLimited(q Query, ps *PatternSet, maxNodes int) (FeasibleResult, error) {
	return core.FeasibleLimited(q, ps, maxNodes)
}

// ErrBudget is returned by the *Limited functions when the search budget
// is exhausted.
var ErrBudget = containment.ErrBudget

// ErrNotOrderable is wrapped by every error Exec returns for a query the
// declared patterns cannot run — no executable ordering (with or without
// a query cache, under WithStats too), an unknown relation, a wrong
// arity, or a rule that is not executable as written. Test with
// errors.Is: it marks the request, not the mediator, as at fault.
var ErrNotOrderable = core.ErrNotOrderable

// ExecutionOrder returns the adorned steps of an executable rule.
func ExecutionOrder(r Rule, ps *PatternSet) ([]AdornedLiteral, error) {
	return core.ExecutionOrder(r, ps)
}

// Contained reports P ⊑ Q for UCQ¬ queries (Theorems 12/13 of the
// paper; Chandra–Merlin / Sagiv–Yannakakis on the negation-free classes).
func Contained(p, q Query) bool { return containment.ContainedUCQ(p, q) }

// Equivalent reports logical equivalence of two queries.
func Equivalent(p, q Query) bool { return containment.Equivalent(p, q) }

// Satisfiable reports whether some rule body is satisfiable
// (Proposition 8).
func Satisfiable(q Query) bool { return containment.SatisfiableUCQ(q) }

// Minimize returns a minimal equivalent of the rule (its core when
// negation-free).
func Minimize(r Rule) Rule { return minimize.CQ(r) }

// MinimizeUnion returns a minimal equivalent union: minimized rules with
// redundant disjuncts removed.
func MinimizeUnion(q Query) Query { return minimize.UCQ(q) }

// Li–Chang baseline algorithms (Sections 5.3–5.4 of the paper). They are
// defined for the negation-free classes and return an error on CQ¬ input.
var (
	CQStable      = lichang.CQStable
	CQStableStar  = lichang.CQStableStar
	UCQStable     = lichang.UCQStable
	UCQStableStar = lichang.UCQStableStar
)

// NewInstance returns an empty database instance.
func NewInstance() *Instance { return engine.NewInstance() }

// NewRel returns an empty answer relation.
func NewRel() *Rel { return engine.NewRel() }

// RowOf builds an answer row of constant values.
func RowOf(vals ...string) Row { return engine.RowOf(vals...) }

// NewTable builds an in-memory metered source.
func NewTable(name string, arity int, patterns []Pattern, rows []Tuple) (*Table, error) {
	return sources.NewTable(name, arity, patterns, rows)
}

// NewCatalog builds a catalog from sources.
func NewCatalog(srcs ...Source) (*Catalog, error) { return sources.NewCatalog(srcs...) }

// EnumerateDomain computes the reachable-domain view dom(x) by calling
// sources to a fixpoint ([DL97]; Example 8).
func EnumerateDomain(cat *Catalog, seeds []string, maxCalls int) DomResult {
	return engine.EnumerateDomain(cat, seeds, maxCalls)
}

// ReduceContToFeasible is the Theorem 18 reduction: P ⊑ Q iff the
// returned query is feasible under the returned patterns.
func ReduceContToFeasible(p, q Query) (Query, *PatternSet, error) {
	return containment.ReduceContToFeasible(p, q)
}

// ReduceContCQToFeasible is the Proposition 20 reduction for single
// rules: P ⊑ Q iff the returned rule is feasible under the returned
// patterns.
func ReduceContCQToFeasible(p, q Rule) (Rule, *PatternSet, error) {
	return containment.ReduceContCQToFeasible(p, q)
}
