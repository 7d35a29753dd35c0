package ucqn

// Exec is the single context-first entry point for every way this
// package evaluates a query: materialized, parallel, profiled, streamed,
// or naive ground truth. Every execution is ANSWER*.

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/engine"
)

// Stream is a pull-style iterator over answer tuples produced by a
// pipelined streaming execution (Exec with WithStreaming): call Next
// until it returns false, read each tuple with Tuple, then check Err and
// Close (Drain does all of that into a Rel). Next yields a row once per
// rule that derives it; Drain and Result.Rel hold it once.
type Stream = engine.Stream

// execConfig is the option-resolved shape of one Exec call.
type execConfig struct {
	rt        *Runtime
	parallel  bool
	profile   bool
	streaming bool
	partial   bool
	improve   bool
	maxCalls  int
	naive     *Instance
	qc        *QueryCache

	hedge     HedgePolicy
	hasHedge  bool
	budget    Budget
	hasBudget bool
}

// ExecOption configures Exec; build them with the With... constructors.
type ExecOption func(*execConfig)

// WithRuntime makes Exec use rt (deduplication, worker pool, retry,
// batch-size and stage-buffer knobs) instead of the shared default
// runtime.
func WithRuntime(rt *Runtime) ExecOption { return func(c *execConfig) { c.rt = rt } }

// WithParallelRules evaluates the rules of the union concurrently, one
// goroutine per rule. It combines with every execution mode, WithProfile
// included: the profile carries one RuleProfile per rule either way.
func WithParallelRules() ExecOption { return func(c *execConfig) { c.parallel = true } }

// WithProfile records per-step execution accounting; read it with
// Result.Profile. With WithStreaming the profile becomes available once
// the stream finishes.
func WithProfile() ExecOption { return func(c *execConfig) { c.profile = true } }

// WithStreaming executes the plan as a pipeline and exposes the answers
// through Result.Stream: head tuples become available while upstream
// steps are still calling sources. Exec returns as soon as the pipeline
// has started; runtime failures surface through the stream.
func WithStreaming() ExecOption { return func(c *execConfig) { c.streaming = true } }

// WithPartialResults enables graceful degradation: a rule whose
// evaluation fails terminally — circuit breaker open, per-query budget
// exhausted, retries exhausted, or a non-transient source error — is
// dropped and recorded instead of failing the execution. Result.Rel is
// then exactly the answer of the surviving rules: a certified
// underestimate of the full answer, in the spirit of ANSWER*'s ansᵤ;
// Result.Report lists the dropped disjuncts, their failing sources, and
// the disjunct-level completeness ratio. Caller-context cancellation and
// planning errors still abort. It does not combine with WithNaive.
func WithPartialResults() ExecOption { return func(c *execConfig) { c.partial = true } }

// WithImproveUnder follows an execution whose plan dismissed a rule
// with the domain-enumeration improvement of the underestimate (Example
// 8), spending at most maxCalls source call attempts on enumeration, on
// the execution's runtime. Result.Rel is the improved underestimate and
// Result.Improved has the improved rules and enumeration metadata. It
// is a strict, unprofiled step after the execution, which the other
// accessors describe, so it does not combine with WithStreaming.
func WithImproveUnder(maxCalls int) ExecOption {
	return func(c *execConfig) { c.improve, c.maxCalls = true, maxCalls }
}

// WithNaive evaluates the query directly over the instance, ignoring
// access patterns — the ground truth for experiments. ps and cat may be
// nil; no other option combines with it.
func WithNaive(in *Instance) ExecOption { return func(c *execConfig) { c.naive = in } }

// WithHedging enables hedged requests against replicated sources for
// this execution: after the policy's delay (fixed, or an observed
// latency percentile) a backup attempt is launched on the
// next-healthiest replica, and the first success wins. Sources that are
// not replica sets (see ReplicaCatalog) are unaffected. The policy is
// the execution's own (engine.Opts.Hedge): a runtime shared through
// WithRuntime is not touched, and its per-source cap still holds.
func WithHedging(h HedgePolicy) ExecOption {
	return func(c *execConfig) { c.hedge, c.hasHedge = h, true }
}

// WithBudget caps this execution's source traffic with the per-query
// call/time budget b (engine.Opts.Budget), without touching a runtime
// shared through WithRuntime. Exhausting the budget fails the in-flight call
// with ErrCallBudget; under WithPartialResults the affected disjuncts
// degrade instead, yielding a certified underestimate. A negative
// MaxCalls admits no source calls at all — with WithPartialResults and
// a query cache the execution answers purely from cached disjuncts,
// the overload-shedding mode of a serving layer.
func WithBudget(b Budget) ExecOption {
	return func(c *execConfig) { c.budget, c.hasBudget = b, true }
}

// Result is the handle Exec returns. Which accessors are populated
// depends on the options: Rel always yields the materialized answers
// (draining the stream first in streaming mode), Stream is non-nil only
// with WithStreaming, Profile reports ok only with WithProfile,
// Improved only with WithImproveUnder; Report reports for every
// execution. Profile and Report of a stream report ok once it has
// finished.
type Result struct {
	rel    *Rel
	stream *Stream

	profiled bool
	prof     ExecProfile // streaming mode: the cache counters only

	rep     Report // materialized path
	partial bool
	improve bool
	rules   Query
	dom     DomResult
}

// Rel returns the materialized answers. In streaming mode the first call
// drains the stream (subsequent calls reuse the result); a pipeline
// failure is returned as the error.
func (r *Result) Rel() (*Rel, error) {
	if r.rel == nil && r.stream != nil {
		rel, err := r.stream.Drain()
		if err != nil {
			return nil, err
		}
		r.rel = rel
	}
	return r.rel, nil
}

// Stream returns the answer stream, or nil unless the query ran with
// WithStreaming. The caller owns it: iterate with Next/Tuple and Close
// it (or use Drain, or Result.Rel).
func (r *Result) Stream() *Stream { return r.stream }

// Profile returns the execution profile and whether one was recorded
// (requires WithProfile). In streaming mode it is complete only after
// the stream finished — ok is false before that.
func (r *Result) Profile() (ExecProfile, bool) {
	if !r.profiled {
		return ExecProfile{}, false
	}
	if r.stream != nil {
		prof, ok := r.stream.Profile()
		prof.Cache = r.prof.Cache
		return prof, ok
	}
	return r.prof, true
}

// Report returns the completeness report of the execution: ANSWER*'s
// estimates and the rules not answered in full — under
// WithPartialResults each disjunct a runtime failure dropped, and
// otherwise each dismissed rule whose rows reached Δ (class
// access-limited). For a plan that dismissed no rule Under = Over = the
// answer and Δ = ∅. In streaming mode it is available once the stream
// ran to its end, however it was read (Stream.Report) — ok is false
// before that, and for good when it failed or was closed early. The
// stream keeps no copy of its rows, so a streamed plan that dismissed no
// rule has Under and Over once Drain collected them, and nil (not kept)
// after a Next loop.
func (r *Result) Report() (Report, bool) {
	if r.stream != nil {
		return r.stream.Report()
	}
	return r.rep, true
}

// Incompleteness is Report under WithPartialResults: ok is false without
// that option.
func (r *Result) Incompleteness() (Report, bool) {
	rep, ok := r.Report()
	return rep, ok && r.partial
}

// Improved returns the domain-enumeration-improved underestimate rules
// and the enumeration outcome (requires WithImproveUnder).
func (r *Result) Improved() (Query, DomResult, bool) {
	if !r.improve {
		return Query{}, DomResult{}, false
	}
	return r.rules, r.dom, true
}

// Exec evaluates q against the limited-access catalog under the declared
// patterns, honoring ctx through every source call. Every execution is
// ANSWER* (Figure 4): Result.Rel is the certain underestimate — ANSWER(Q,
// D) itself for an orderable query — and Result.Report the completeness
// report. Options select the runtime, rule parallelism, profiling,
// streaming, partial results under failure, or naive ground-truth
// evaluation. Rewriting q before planning — under inclusion
// dependencies (INDSet.OptimizeChase) or into a cost-based order
// (CostOrder) — is the caller's step.
//
//	res, err := ucqn.Exec(ctx, q, ps, cat, ucqn.WithStreaming())
//	if err != nil { ... }
//	s := res.Stream()
//	defer s.Close()
//	for s.Next() { use(s.Tuple()) }
//	if err := s.Err(); err != nil { ... }
//
// One planner (core.PlanUnion) plans every query, cached or not: it
// minimizes each rule to its core, drops the unsatisfiable rules and
// those a certain rule contains, and plans the rest. A rule with no
// executable order runs as PLAN*'s overestimate (Figure 2), whose rows
// go into the overestimate and Δ only. A literal no declared pattern
// can call (an unknown relation or a wrong arity) fails the query with
// an error wrapping ErrNotOrderable before any source call.
//
// Exec returns an error for contradictory option combinations (see each
// option), for such unplannable queries, and — except in streaming
// mode, where runtime failures surface through Stream.Err — for
// execution failures.
func Exec(ctx context.Context, q Query, ps *PatternSet, cat *Catalog, opts ...ExecOption) (*Result, error) {
	var c execConfig
	for _, o := range opts {
		o(&c)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	if c.naive != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rel, err := engine.AnswerNaive(q, c.naive)
		if err != nil {
			return nil, err
		}
		return &Result{rel: rel, rep: Report{Under: rel, Over: rel, Certified: true}}, nil
	}
	rt := c.rt
	if rt == nil {
		rt = engine.DefaultRuntime()
	}
	o := c.engineOpts()
	res := &Result{profiled: c.profile, partial: c.partial, improve: c.improve}

	// The plan comes from the plan cache or from the planner; the rules
	// the answer cache covers enter the driver pre-answered — no calls,
	// rows at their rule position — so a hit inserts, or drains, exactly
	// as an uncached evaluation would, and the sink sorts a dismissed
	// rule's rows into the estimates as it does for a live run.
	var plan core.Plan
	var pre engine.Answered
	var store answerStore
	if c.useQueryCache() {
		entry, info := c.qc.Plan(q, ps)
		if err := entry.Err(); err != nil {
			return nil, err
		}
		hit := c.qc.Answers(entry, cat)
		res.prof = cacheProfile(info, hit)
		if hit.Full != nil && entry.Plan().Dismissed == nil && !c.streaming {
			// A materialized full hit of a plan that dismissed no rule
			// returns the cached answer before any driver state exists.
			res.rel = hit.Full
			res.rep = Report{Under: hit.Full, Over: hit.Full, Certified: true, RulesTotal: hit.CachedRules, RulesSurvived: hit.CachedRules}
			return res, nil
		}
		plan, pre, o.Prepared = entry.Plan(), engine.Answered{Covered: hit.Covered, Rows: hit.Rows}, entry.Prepared()
		if !c.streaming {
			store = answerStore{entry: entry, covered: hit.Covered, rels: make([]*engine.Rel, len(plan.Exec.Rules))}
		}
	} else {
		var err error
		if plan, _, err = core.PlanUnion(q, ps, core.PlanBudget); err != nil {
			return nil, err
		}
	}
	if c.streaming {
		res.stream = rt.StreamEval(ctx, plan, cat, pre, o)
		return res, nil
	}
	star := engine.NewStarSink(plan)
	sink := star.Sink()
	if store.entry != nil {
		sink = store.sink(sink)
	}
	prof, rep, err := rt.Run(ctx, plan, cat, pre, o, sink)
	if err != nil {
		return nil, err
	}
	if store.entry != nil {
		prof.Cache = res.prof.Cache
		prof.Cache.Evictions += c.qc.StoreAnswers(store.entry, cat, store.rels)
	}
	star.Fill(&rep)
	res.rel, res.prof, res.rep = rep.Under, prof, rep
	if plan.Dismissed != nil && c.improve {
		if res.rel, res.rules, res.dom, err = rt.ImproveUnder(ctx, plan, rep.Under, ps, cat, c.maxCalls, o); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// engineOpts is how the engine's driver runs this call's rules.
func (c *execConfig) engineOpts() engine.Opts {
	return engine.Opts{Parallel: c.parallel, Partial: c.partial, Budget: c.budget, Hedge: c.hedge}
}

// validate rejects contradictory option combinations up front.
func (c *execConfig) validate() error {
	if c.naive != nil {
		switch {
		case c.improve, c.streaming, c.profile, c.parallel, c.partial:
			return errors.New("ucqn: WithNaive does not combine with execution options")
		case c.rt != nil:
			return errors.New("ucqn: WithNaive ignores access patterns; a runtime does not apply")
		case c.hasHedge, c.hasBudget:
			return errors.New("ucqn: WithNaive makes no source calls; hedging and budget options do not apply")
		}
		return nil
	}
	if c.improve && c.streaming {
		return errors.New("ucqn: WithImproveUnder does not combine with WithStreaming: the improvement starts from the finished ANSWER* report")
	}
	return nil
}
