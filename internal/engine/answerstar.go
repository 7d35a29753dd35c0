package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/sources"
)

// ANSWER* (Figure 4 of the paper) on the one executor. PLAN* makes every
// rule of Qᵘ syntactically a rule of Qᵒ — Qᵢᵘ is Aᵢ exactly when Uᵢ is
// empty, and then Qᵢᵒ is Aᵢ too — so the two estimates come from ONE
// execution of the positional overestimate union (rule i is
// plans.Rules[i].Over; false rules keep their place and are skipped by
// the driver, so the sink's rule index is the index into plans.Rules).
// The sink behind the driver puts every rule's rows into ansₒ and the
// rows of the rules Qᵘ shares into ansᵤ: insertion order is that of
// evaluating plans.Under and plans.Over separately, at the source calls
// of plans.Over alone.

// AnswerStar is the outcome of the ANSWER* algorithm (Figure 4 of the
// paper): the runtime underestimate and overestimate of the answer to Q
// on the current database, their difference Δ, and the completeness
// information ANSWER* reports to the user.
type AnswerStar struct {
	// Plans is the compile-time PLAN* output that was executed.
	Plans core.PlanStar
	// Under is ansᵤ = ANSWER(Qᵘ, D): tuples guaranteed to be answers.
	Under *Rel
	// Over is ansₒ = ANSWER(Qᵒ, D): every answer is subsumed by some
	// overestimate tuple (null means "unknown value", Example 7).
	Over *Rel
	// Delta is Δ = ansₒ \ ansᵤ, the tuples that may be answers.
	Delta *Rel
	// OverCertified is false iff partial-results mode dropped a rule:
	// Under is then still a sound underestimate (the rows of the
	// surviving rules of Qᵘ), but Over and Δ lack the dropped rule's rows
	// and bound nothing, so Complete and RatioValid are false.
	OverCertified bool
	// Complete reports Δ = ∅: the answer is complete even if the query
	// is infeasible (Example 5).
	Complete bool
	// Ratio is the completeness lower bound |ansᵤ|/|ansₒ|, valid only
	// when RatioValid (Δ nonempty and free of nulls; Example 7 explains
	// why nulls forbid a numeric bound).
	Ratio      float64
	RatioValid bool
}

// Report renders the ANSWER* output in the shape of Figure 4.
func (a AnswerStar) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "answer tuples (underestimate, %d):\n", a.Under.Len())
	for _, r := range a.Under.Sorted() {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	if a.Complete {
		b.WriteString("answer is complete\n")
		return strings.TrimRight(b.String(), "\n")
	}
	b.WriteString("answer is not known to be complete\n")
	if !a.OverCertified {
		b.WriteString("the overestimate is not certified: a disjunct failed and was dropped")
		return b.String()
	}
	b.WriteString("these tuples may be part of the answer:\n")
	for _, r := range a.Delta.Sorted() {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	if a.RatioValid {
		fmt.Fprintf(&b, "answer is at least %.2f complete\n", a.Ratio)
	}
	return strings.TrimRight(b.String(), "\n")
}

// starSink is the half of ANSWER* behind the driver.
type starSink struct {
	plans core.PlanStar
	union logic.UCQ // Qᵒ, rule i at position i
	// certain[i]: rule i of Qᵘ is rule i of Qᵒ, so its rows are certain
	// answers. That is RuleAnalysis.Complete for a satisfiable rule with
	// a range-restricted head; a head variable no literal binds is null
	// in Qᵢᵒ only, and such rows are no certain answers.
	certain     []bool
	under, over *Rel
	// mu guards the relations when rule pipelines deliver concurrently
	// (staged and Opts.Parallel); every other run delivers from one
	// goroutine at a time.
	mu     sync.Mutex
	locked bool
}

func newStarSink(plans core.PlanStar, locked bool) *starSink {
	st := &starSink{plans: plans, certain: make([]bool, len(plans.Rules)), under: NewRel(), over: NewRel(), locked: locked}
	st.union.Rules = make([]logic.CQ, len(plans.Rules))
	for i, ra := range plans.Rules {
		st.union.Rules[i] = ra.Over
		st.certain[i] = ra.Under.Equal(ra.Over)
	}
	return st
}

// sink collects the estimates. A stream carries the underestimate — a
// row of a certain rule is an answer the moment the driver delivers it —
// so those rows, and only those, go on to emit (nil on a materialized
// run). The count it reports is the rows new to ansₒ.
func (st *starSink) sink(emit func(context.Context, []Row) bool) Sink {
	return func(ctx context.Context, rule int, rows []Row) (int, bool) {
		if st.locked {
			st.mu.Lock()
		}
		added := st.over.AddRows(rows)
		if st.certain[rule] {
			st.under.AddRows(rows)
		}
		if st.locked {
			st.mu.Unlock()
		}
		if emit == nil || !st.certain[rule] {
			return added, true
		}
		return added, emit(ctx, rows)
	}
}

// report derives Δ and the completeness information once the execution
// has finished; inc is its degradation report (nil in strict mode).
func (st *starSink) report(inc *Incompleteness) AnswerStar {
	out := AnswerStar{Plans: st.plans, Under: st.under, Over: st.over, Delta: st.over.Minus(st.under)}
	out.OverCertified = inc == nil || inc.Complete()
	out.Complete = out.OverCertified && out.Delta.Len() == 0
	if out.OverCertified && !out.Complete && !out.Delta.HasNull() {
		out.Ratio = float64(out.Under.Len()) / float64(out.Over.Len())
		out.RatioValid = true
	}
	return out
}

// RunAnswerStar executes ANSWER*: it computes the PLAN* plans for u,
// evaluates them against the catalog, and derives Δ and the completeness
// report.
func RunAnswerStar(u logic.UCQ, ps *access.Set, cat *sources.Catalog) (AnswerStar, error) {
	star, _, _, err := defaultRuntime.RunAnswerStarWithPlans(context.Background(), core.ComputePlans(u, ps), ps, cat, Opts{})
	return star, err
}

// RunAnswerStarWithPlans is ANSWER* for precomputed plans (so callers
// can reuse a compile-time PLAN* across database states), materialized:
// one Run of Qᵒ under o, whose profile and — in partial-results mode —
// degradation report it returns beside the ANSWER* report.
func (rt *Runtime) RunAnswerStarWithPlans(ctx context.Context, plans core.PlanStar, ps *access.Set, cat *sources.Catalog, o Opts) (AnswerStar, Profile, *Incompleteness, error) {
	st := newStarSink(plans, false)
	prof, inc, err := rt.Run(ctx, st.union, ps, cat, Answered{}, o, st.sink(nil))
	if err != nil {
		return AnswerStar{}, Profile{}, nil, err
	}
	return st.report(inc), prof, inc, nil
}

// StreamAnswerStar is RunAnswerStarWithPlans streamed: the same driver
// on the staged schedule. The stream carries the underestimate — held
// back per rule under o.Partial, as in every stream — and, drained,
// equals the materialized Under, in order unless o.Parallel. Stream.Star
// has the report once the stream has run to its end.
func (rt *Runtime) StreamAnswerStar(ctx context.Context, plans core.PlanStar, ps *access.Set, cat *sources.Catalog, o Opts) (*Stream, error) {
	st := newStarSink(plans, o.Parallel)
	return rt.stream(ctx, st.union, ps, cat, Answered{}, o, st)
}

// ImproveUnder upgrades the underestimate with domain enumeration views
// (the optional last step of Figure 4, detailed in Example 8): rules that
// PLAN* dismissed because of an unanswerable part U are re-admitted as
// ans ∧ dom(v…) ∧ U when every relation of U is callable at all. It
// returns the improved underestimate relation and the improved rules
// used, along with the enumeration metadata.
func ImproveUnder(a AnswerStar, ps *access.Set, cat *sources.Catalog, maxCalls int) (*Rel, logic.UCQ, DomResult, error) {
	return defaultRuntime.ImproveUnder(context.Background(), a, ps, cat, maxCalls)
}

// ImproveUnder is the package-level ImproveUnder on this runtime,
// honoring the context through both the domain enumeration and the
// improved-rule evaluation.
func (rt *Runtime) ImproveUnder(ctx context.Context, a AnswerStar, ps *access.Set, cat *sources.Catalog, maxCalls int) (*Rel, logic.UCQ, DomResult, error) {
	dom, err := EnumerateDomainContext(ctx, cat, nil, maxCalls)
	if err != nil {
		return nil, logic.UCQ{}, dom, err
	}
	cat2, ps2, err := WithDomSource(cat, ps, dom.Values)
	if err != nil {
		return nil, logic.UCQ{}, dom, err
	}
	improved := NewRel()
	improved.AddAll(a.Under)
	var rules []logic.CQ
	for _, ra := range a.Plans.Rules {
		if ra.Complete() || ra.Ans.False {
			continue
		}
		rule, ok := ImprovedUnderRule(ra.Ans, ra.Unanswerable, ps)
		if !ok {
			continue
		}
		rules = append(rules, rule)
	}
	if len(rules) == 0 {
		return improved, logic.UCQ{}, dom, nil
	}
	u := logic.UCQ{Rules: rules}
	extra, err := rt.Answer(ctx, u, ps2, cat2)
	if err != nil {
		return nil, u, dom, fmt.Errorf("engine: evaluating improved underestimate: %w", err)
	}
	improved.AddAll(extra)
	return improved, u, dom, nil
}
