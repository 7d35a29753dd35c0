package engine

import (
	"context"
	"fmt"
	"slices"
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
// shares with Qᵒ — into ansᵤ. StarSink is the sink of every run, and
// fills in the estimates of the execution's Report once it has finished.

// StarSink is the half of ANSWER* behind the driver. For a plan that
// dismissed no rule ansᵤ = ansₒ, the answer itself, and the sink is
// Into it.
type StarSink struct {
	plan        core.Plan
	under, over *Rel
	// answer holds ansᵤ = ansₒ of a materialized run of a plan that
	// dismissed no rule, so the sink and the answer are one allocation.
	answer Rel
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
	st := &StarSink{plan: p}
	if p.Dismissed != nil {
		st.under, st.over, st.dismissed = NewRel(), NewRel(), make([][][]Row, len(p.Exec.Rules))
	}
	return st
}

// Sink collects the estimates of a materialized run.
func (st *StarSink) Sink() Sink {
	if st.plan.Dismissed == nil {
		st.under, st.over = &st.answer, &st.answer
		return Into(&st.answer)
	}
	return st.sink(nil)
}

// sink collects the estimates of a streamed run. A stream carries the
// underestimate — a row of a certain rule is an answer the moment the
// driver delivers it — so those rows, and only those, go on to emit. The
// count it reports is the rows new to ansₒ. A stream of a plan that
// dismissed no rule carries the whole answer, which the sink does not
// keep: its report's Under and Over stay nil.
func (st *StarSink) sink(emit func(context.Context, []Row) bool) Sink {
	if st.plan.Dismissed == nil {
		return func(ctx context.Context, _ int, rows []Row) (int, bool) {
			return len(rows), emit(ctx, rows)
		}
	}
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

// Fill completes rep, the report of the run that fed the sink, once it
// has finished: Under, Over, Δ and the ratio. A plan that dismissed no
// rule has Under = Over = its answer (nil when a stream carried it) and
// no Δ. Every dismissed rule that put a row into Δ joins rep's failures,
// class FailAccessLimited, its step the literals the plan dismissed —
// unless a runtime failure dropped a disjunct, which leaves Δ bounding
// nothing.
func (st *StarSink) Fill(rep *Report) {
	rep.Under, rep.Over = st.under, st.over
	if st.plan.Dismissed == nil {
		return
	}
	rep.Delta = st.over.Minus(st.under)
	if !rep.Certified || rep.Delta.Len() == 0 {
		return
	}
	if !rep.Delta.HasNull() {
		rep.Ratio = float64(rep.Under.Len()) / float64(rep.Over.Len())
		rep.RatioValid = true
	}
	for i, batches := range st.dismissed {
		if slices.ContainsFunc(batches, func(rows []Row) bool { return slices.ContainsFunc(rows, rep.Delta.Contains) }) {
			rep.accessLimited(i, st.plan.Dismissed[i])
		}
	}
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
