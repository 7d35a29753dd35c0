package ucqn

// Exec is the single context-first entry point for every way this
// package evaluates a query: materialized, parallel, profiled, streamed,
// ANSWER*, semantically optimized, cost-ordered, or naive ground truth.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
)

// Stream is a pull-style iterator over answer tuples produced by a
// pipelined streaming execution (Exec with WithStreaming): call Next
// until it returns false, read each tuple with Tuple, then check Err and
// Close (Drain does all of that into a Rel).
type Stream = engine.Stream

// execConfig is the option-resolved shape of one Exec call.
type execConfig struct {
	rt        *Runtime
	parallel  bool
	profile   bool
	streaming bool
	partial   bool
	star      bool
	improve   bool
	maxCalls  int
	naive     *Instance
	inds      INDSet
	hasINDs   bool
	stats     PlanStats
	hasStats  bool
	qc        *QueryCache

	replicas    []*Catalog
	hasReplicas bool
	hedge       HedgePolicy
	hasHedge    bool
	budget      Budget
	hasBudget   bool

	batchSize      int
	hasBatchSize   bool
	stageBuffer    int
	hasStageBuffer bool
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

// WithINDs semantically optimizes the query under the inclusion
// dependencies before planning (rules whose chase is unsatisfiable are
// dropped, Example 6 of the paper). Use only when the sources' data
// satisfies the dependencies.
func WithINDs(inds INDSet) ExecOption {
	return func(c *execConfig) { c.inds, c.hasINDs = inds, true }
}

// WithStats reorders each rule to minimize estimated source calls under
// the given cardinality statistics before executing.
func WithStats(st PlanStats) ExecOption {
	return func(c *execConfig) { c.stats, c.hasStats = st, true }
}

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
// Result.Incompleteness reports the dropped disjuncts, their failing
// sources, and the disjunct-level completeness ratio. Caller-context
// cancellation and planning errors still abort. With WithAnswerStar the
// underestimate stays sound and the report says the overestimate is
// not certified (AnswerStar.OverCertified). It does not combine with
// WithNaive.
func WithPartialResults() ExecOption { return func(c *execConfig) { c.partial = true } }

// WithAnswerStar runs the full ANSWER* algorithm (Figure 4): Result.Rel
// is the certain underestimate and Result.Star carries the completeness
// report. It is one execution of the overestimate plan Qᵒ — the rules
// the underestimate shares with it are not evaluated twice — on the
// driver every Exec runs, so it combines with WithProfile (that
// execution's profile), WithParallelRules, WithPartialResults and
// WithStreaming (the stream carries the underestimate; Result.Star
// reports once it has ended). A query cache is bypassed.
func WithAnswerStar() ExecOption { return func(c *execConfig) { c.star = true } }

// WithImproveUnder is WithAnswerStar followed by the domain-enumeration
// improvement of the underestimate (Example 8), spending at most
// maxCalls source calls on enumeration. Result.Rel is the improved
// underestimate; Result.Improved has the improved rules and enumeration
// metadata. The improvement is a strict, unprofiled step after the
// ANSWER* execution (Result.Profile and Result.Incompleteness describe
// that execution only), so it does not combine with WithStreaming.
func WithImproveUnder(maxCalls int) ExecOption {
	return func(c *execConfig) { c.star, c.improve, c.maxCalls = true, true, maxCalls }
}

// WithNaive evaluates the query directly over the instance, ignoring
// access patterns — the ground truth for experiments. ps and cat may be
// nil; no other option combines with it.
func WithNaive(in *Instance) ExecOption { return func(c *execConfig) { c.naive = in } }

// WithReplicas fronts every relation with a replica set: the primary
// catalog passed to Exec is zipped with the given backup catalogs
// (which must declare the same relations and patterns), and each call
// routes to the healthiest replica, failing over on error. A rule then
// degrades to a partial answer only when every replica of a needed
// source has failed. The replica sets use the default configuration
// (healthiest-first routing, per-replica quarantine breakers); build a
// catalog with ReplicaCatalog yourself for custom routing or breaker
// settings.
func WithReplicas(backups ...*Catalog) ExecOption {
	return func(c *execConfig) {
		c.replicas = append(c.replicas, backups...)
		c.hasReplicas = true
	}
}

// WithHedging enables hedged requests against replicated sources for
// this execution: after the policy's delay (fixed, or an observed
// latency percentile) a backup attempt is launched on the
// next-healthiest replica, and the first success wins. Sources that are
// not replica sets (see WithReplicas or ReplicaCatalog) are unaffected.
// The runtime is cloned for the execution, so a shared runtime passed
// via WithRuntime is not mutated.
func WithHedging(h HedgePolicy) ExecOption {
	return func(c *execConfig) { c.hedge, c.hasHedge = h, true }
}

// WithBudget caps this execution's source traffic with the per-query
// call/time budget b, without mutating a shared runtime (the runtime is
// cloned for the call). Exhausting the budget fails the in-flight call
// with ErrCallBudget; under WithPartialResults the affected disjuncts
// degrade instead, yielding a certified underestimate. A negative
// MaxCalls admits no source calls at all — with WithPartialResults and
// a query cache the execution answers purely from cached disjuncts,
// the overload-shedding mode of a serving layer.
func WithBudget(b Budget) ExecOption {
	return func(c *execConfig) { c.budget, c.hasBudget = b, true }
}

// WithBatchSize sets the number of bindings per columnar batch flowing
// between the pipeline stages of this execution (streaming mode; a
// materialized run evaluates each step over one batch regardless).
// Larger batches amortize per-batch overhead, smaller ones lower the
// latency to the first answer. n must be ≥ 1; 0 — the zero value of an
// unset option — is rejected rather than silently meaning "default".
// The runtime is cloned for the call, so a shared runtime passed via
// WithRuntime is not mutated.
func WithBatchSize(n int) ExecOption {
	return func(c *execConfig) { c.batchSize, c.hasBatchSize = n, true }
}

// WithStageBuffer sets the capacity of the channels between consecutive
// pipeline stages for this execution (streaming mode): how many batches
// a stage may run ahead of its consumer. n must be ≥ 1. The runtime is
// cloned for the call, so a shared runtime passed via WithRuntime is
// not mutated.
func WithStageBuffer(n int) ExecOption {
	return func(c *execConfig) { c.stageBuffer, c.hasStageBuffer = n, true }
}

// Result is the handle Exec returns. Which accessors are populated
// depends on the options: Rel always yields the materialized answers
// (draining the stream first in streaming mode), Stream is non-nil only
// with WithStreaming, Profile reports ok only with WithProfile, Star and
// Improved only with WithAnswerStar / WithImproveUnder. Profile,
// Incompleteness and Star of a stream report ok once it has finished.
type Result struct {
	rel    *Rel
	stream *Stream

	profiled bool
	prof     ExecProfile // streaming mode: the cache counters only

	star    *AnswerStar
	improve bool
	rules   Query
	dom     DomResult

	inc *Incompleteness // partial-results report (materialized path)
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

// Incompleteness returns the degradation report (requires
// WithPartialResults). In streaming mode it is available only after the
// stream finished — ok is false before that. A complete report (no
// failures) still returns ok = true; check Complete() on it.
func (r *Result) Incompleteness() (Incompleteness, bool) {
	if r.stream != nil {
		return r.stream.Incomplete()
	}
	if r.inc == nil {
		return Incompleteness{}, false
	}
	return *r.inc, true
}

// Star returns the ANSWER* report (requires WithAnswerStar or
// WithImproveUnder). In streaming mode it is available only after the
// stream ran to its end — ok is false before that, and for a stream
// that failed or was closed early.
func (r *Result) Star() (AnswerStar, bool) {
	if r.stream != nil {
		return r.stream.Star()
	}
	if r.star == nil {
		return AnswerStar{}, false
	}
	return *r.star, true
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
// patterns, honoring ctx through every source call. With no options it
// is the materialized Answer on the default runtime; options select the
// runtime, rule parallelism, profiling, streaming, ANSWER*, semantic
// optimization, cost-based ordering, partial results under failure, or
// naive ground-truth evaluation.
//
//	res, err := ucqn.Exec(ctx, q, ps, cat, ucqn.WithStreaming())
//	if err != nil { ... }
//	s := res.Stream()
//	defer s.Close()
//	for s.Next() { use(s.Tuple()) }
//	if err := s.Err(); err != nil { ... }
//
// Exec returns an error for contradictory option combinations (see each
// option), for unplannable queries, and — except in streaming mode,
// where runtime failures surface through Stream.Err — for execution
// failures.
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
		return &Result{rel: rel}, nil
	}
	rt := c.rt
	if rt == nil {
		rt = engine.DefaultRuntime()
	}
	if c.hasReplicas {
		if cat == nil {
			return nil, errors.New("ucqn: WithReplicas needs a primary catalog")
		}
		combined, _, err := ReplicaCatalog(ReplicaConfig{}, append([]*Catalog{cat}, c.replicas...)...)
		if err != nil {
			return nil, err
		}
		cat = combined
	}
	if c.hasHedge {
		rt = rt.Clone()
		rt.Hedge = c.hedge
	}
	if c.hasBudget {
		rt = rt.Clone()
		rt.Budget = c.budget
	}
	if c.hasBatchSize {
		rt = rt.Clone()
		rt.BatchSize = c.batchSize
	}
	if c.hasStageBuffer {
		rt = rt.Clone()
		rt.StageBuffer = c.stageBuffer
	}
	if c.hasINDs {
		q = c.inds.OptimizeChase(q)
	}
	if c.hasStats {
		ordered, ok := core.CostOrderUCQ(q, ps, c.stats)
		if !ok {
			return nil, fmt.Errorf("ucqn: %w", ErrNotOrderable)
		}
		q = ordered
	}
	if c.useQueryCache() {
		entry, info := c.qc.Plan(q, ps)
		if err := entry.Err(); err != nil {
			return nil, err
		}
		return execCached(ctx, rt, &c, entry, info, ps, cat)
	}
	o := c.engineOpts()
	if c.streaming {
		var s *Stream
		var err error
		if c.star {
			s, err = rt.StreamAnswerStar(ctx, core.ComputePlans(q, ps), ps, cat, o)
		} else {
			s, err = rt.StreamEval(ctx, q, ps, cat, engine.Answered{}, o)
		}
		if err != nil {
			return nil, err
		}
		return &Result{stream: s, profiled: c.profile}, nil
	}
	if !c.star {
		rel, prof, inc, err := rt.Eval(ctx, q, ps, cat, o)
		if err != nil {
			return nil, err
		}
		return &Result{rel: rel, profiled: c.profile, prof: prof, inc: inc}, nil
	}
	// ANSWER* is PLAN* in front of the same driver call and a sink behind
	// it (engine/answerstar.go), so o means what it means without it.
	star, prof, inc, err := rt.RunAnswerStarWithPlans(ctx, core.ComputePlans(q, ps), ps, cat, o)
	if err != nil {
		return nil, err
	}
	res := &Result{rel: star.Under, star: &star, profiled: c.profile, prof: prof, inc: inc}
	if c.improve {
		improved, rules, dom, err := rt.ImproveUnder(ctx, star, ps, cat, c.maxCalls)
		if err != nil {
			return nil, err
		}
		res.rel, res.improve, res.rules, res.dom = improved, true, rules, dom
	}
	return res, nil
}

// engineOpts is how the engine's driver runs this call's rules.
func (c *execConfig) engineOpts() engine.Opts {
	return engine.Opts{Parallel: c.parallel, Partial: c.partial}
}

// validate rejects contradictory option combinations up front.
func (c *execConfig) validate() error {
	if c.naive != nil {
		switch {
		case c.star, c.streaming, c.profile, c.parallel, c.partial:
			return errors.New("ucqn: WithNaive does not combine with execution options")
		case c.hasINDs, c.hasStats, c.rt != nil:
			return errors.New("ucqn: WithNaive ignores access patterns; planning options do not apply")
		case c.hasReplicas, c.hasHedge, c.hasBudget:
			return errors.New("ucqn: WithNaive makes no source calls; replica and budget options do not apply")
		case c.hasBatchSize, c.hasStageBuffer:
			return errors.New("ucqn: WithNaive runs no pipeline; batch options do not apply")
		}
		return nil
	}
	if c.improve && c.streaming {
		return errors.New("ucqn: WithImproveUnder does not combine with WithStreaming: the improvement starts from the finished ANSWER* report")
	}
	if c.hasBatchSize && c.batchSize < 1 {
		return fmt.Errorf("ucqn: WithBatchSize(%d): batch size must be at least 1", c.batchSize)
	}
	if c.hasStageBuffer && c.stageBuffer < 1 {
		return fmt.Errorf("ucqn: WithStageBuffer(%d): stage buffer must be at least 1", c.stageBuffer)
	}
	return nil
}
