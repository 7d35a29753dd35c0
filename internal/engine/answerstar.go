package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/sources"
)

// ANSWER* (Figure 4 of the paper) on the one executor. The planner
// (core.NewPlan) is PLAN*: a rule it can order runs in full, and a rule
// it cannot runs as its overestimate Qᵢᵒ, recorded in Plan.Dismissed. So
// both estimates come from the one execution of the plan: every rule's
// rows go into ansₒ, and the rows of the certain rules — the rules Qᵘ
// shares with Qᵒ — into ansᵤ. A plan that dismissed nothing has
// ansᵤ = ansₒ, the answer itself, and runs into Into; StarSink is the
// sink of the rest.

// AnswerStar is the outcome of the ANSWER* algorithm (Figure 4 of the
// paper): the runtime underestimate and overestimate of the answer to Q
// on the current database, their difference Δ, and the completeness
// information ANSWER* reports to the user.
type AnswerStar struct {
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

// CertainStar is the ANSWER* report of an execution whose plan
// dismissed no rule: ansᵤ = ansₒ = answer and Δ = ∅, built on demand
// from the answer, so a run pays nothing for its report. inc is the
// execution's degradation report (nil in strict mode).
func CertainStar(answer *Rel, inc *Incompleteness) AnswerStar {
	certified := inc == nil || inc.Complete()
	return AnswerStar{Under: answer, Over: answer, Delta: NewRel(), OverCertified: certified, Complete: certified}
}

// StarSink is the half of ANSWER* behind the driver, for a plan that
// dismissed a rule.
type StarSink struct {
	plan        core.Plan
	under, over *Rel
	// dismissed[i] holds the batches of dismissed rule i, whose rows Δ
	// may hold.
	dismissed [][][]Row
	// mu guards the sink when rule pipelines deliver concurrently
	// (staged and Opts.Parallel); every other run delivers from one
	// goroutine at a time.
	mu     sync.Mutex
	locked bool
}

// NewStarSink returns the sink of a run of p.
func NewStarSink(p core.Plan) *StarSink {
	return &StarSink{plan: p, under: NewRel(), over: NewRel(), dismissed: make([][][]Row, len(p.Exec.Rules))}
}

// Sink collects the estimates of a materialized run.
func (st *StarSink) Sink() Sink { return st.sink(nil) }

// sink collects the estimates. A stream carries the underestimate — a
// row of a certain rule is an answer the moment the driver delivers it —
// so those rows, and only those, go on to emit (nil on a materialized
// run). The count it reports is the rows new to ansₒ.
func (st *StarSink) sink(emit func(context.Context, []Row) bool) Sink {
	return func(ctx context.Context, rule int, rows []Row) (int, bool) {
		certain := st.plan.Certain(rule)
		if st.locked {
			st.mu.Lock()
		}
		// The rows are the sink's: both estimates take them over, and so
		// may share them. A streamed row also goes to the consumer, so
		// ansᵤ keeps a copy of its own there.
		added := st.over.adopt(rows)
		switch {
		case !certain:
			st.dismissed[rule] = append(st.dismissed[rule], rows)
		case emit == nil:
			st.under.adopt(rows)
		default:
			st.under.AddRows(rows)
		}
		if st.locked {
			st.mu.Unlock()
		}
		if emit == nil || !certain {
			return added, true
		}
		return added, emit(ctx, rows)
	}
}

// Report derives Δ and the completeness information once the execution
// has finished; inc is its degradation report (nil in strict mode). In
// partial-results mode every dismissed rule that put a row into Δ joins
// inc's failures, class FailAccessLimited, its step the literals the
// plan dismissed — unless a runtime failure dropped a disjunct, which
// leaves Δ bounding nothing (OverCertified counts runtime failures only).
func (st *StarSink) Report(inc *Incompleteness) AnswerStar {
	out := AnswerStar{Under: st.under, Over: st.over, Delta: st.over.Minus(st.under)}
	out.OverCertified = inc == nil || inc.Complete()
	out.Complete = out.OverCertified && out.Delta.Len() == 0
	if out.OverCertified && !out.Complete && !out.Delta.HasNull() {
		out.Ratio = float64(out.Under.Len()) / float64(out.Over.Len())
		out.RatioValid = true
	}
	if inc == nil || out.Complete || !out.OverCertified {
		return out
	}
	for i, batches := range st.dismissed {
		if slices.ContainsFunc(batches, func(rows []Row) bool { return slices.ContainsFunc(rows, out.Delta.Contains) }) {
			inc.accessLimited(i, st.plan.Dismissed[i])
		}
	}
	return out
}

// ImproveUnder upgrades the underestimate under of a run of p with
// domain enumeration views (the optional last step of Figure 4, detailed
// in Example 8): the rules p dismissed because of an unanswerable part U
// are re-admitted as ans ∧ dom(v…) ∧ U when every relation of U is
// callable at all. It returns the improved underestimate relation and
// the improved rules used, along with the enumeration metadata. The
// enumeration (enumerateDomain, at most maxCalls call attempts) and the strict Run
// of the improved rules both go through rt under o's budget and hedge
// policy; o's other fields are the ANSWER* run's and do not apply.
func (rt *Runtime) ImproveUnder(ctx context.Context, p core.Plan, under *Rel, ps *access.Set, cat *sources.Catalog, maxCalls int, o Opts) (*Rel, logic.UCQ, DomResult, error) {
	dom, err := rt.enumerateDomain(ctx, cat, nil, maxCalls, o)
	if err != nil {
		return nil, logic.UCQ{}, dom, err
	}
	cat2, ps2, err := WithDomSource(cat, ps, dom.Values)
	if err != nil {
		return nil, logic.UCQ{}, dom, err
	}
	improved := NewRel()
	improved.AddAll(under)
	var rules []logic.CQ
	for _, ra := range p.Dismissed {
		if ra == nil {
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
	up, err := core.NewPlan(u, ps2)
	if err == nil {
		_, _, err = rt.Run(ctx, up, cat2, Answered{}, Opts{Budget: o.Budget, Hedge: o.Hedge}, Into(improved))
	}
	if err != nil {
		return nil, u, dom, fmt.Errorf("engine: evaluating improved underestimate: %w", err)
	}
	return improved, u, dom, nil
}
