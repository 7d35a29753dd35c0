package engine

// The executor. Section 3 of the paper gives a UCQ¬ plan exactly one
// execution semantics — "execute each rule separately (possibly in
// parallel) from left to right", every literal through its access
// pattern — and this file is its one implementation:
//
//	driver → rule runner → {whole, staged} schedule → sink
//
// The driver (execution.run) compiles the union once, runs the rules in
// order or concurrently, and assembles the Profile and the
// Incompleteness report. The runner (runRule) gives one rule its
// RuleProfile, the one recover, and the hold-back of its rows; under it
// a schedule (schedule.go) applies the rule's steps and produces its
// distinct head rows, which the runner pushes — tagged with the rule's
// index — into the caller's sink. Eval runs the driver inline with a
// sink that fills a Rel; StreamEval runs the same driver in a goroutine
// with a sink that sends on the Stream's channel.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/sources"
)

// errNotExecutable marks compile-time plan failures: a rule that cannot
// be executed as written. Partial-results mode never degrades on it —
// it is a planning error, not a runtime fault — and callers classify it
// as core.ErrNotOrderable.
var errNotExecutable error = notExecutableError{}

type notExecutableError struct{}

func (notExecutableError) Error() string { return "engine: rule is not executable as written" }

func (notExecutableError) Is(target error) bool { return target == core.ErrNotOrderable }

// Opts selects how an execution runs the rules of a union.
type Opts struct {
	// Parallel runs the rules concurrently, one goroutine per rule. A
	// rule failure cancels the rules still in flight, and every distinct
	// rule error is reported (joined, in rule order). Streamed emissions
	// interleave; a materialized answer still inserts in rule order.
	Parallel bool
	// Partial enables partial-results mode (graceful degradation): a
	// rule whose evaluation fails terminally at runtime — circuit
	// breaker open, per-query budget exhausted, retries exhausted, or a
	// non-transient source error — is dropped and recorded in the
	// Incompleteness report instead of failing the execution. The
	// answer is then exactly ANSWER of the surviving rules: a certified
	// underestimate of the full answer. A disjunct's answers are only
	// certain once the whole disjunct succeeded, so a streamed rule's
	// rows are held back until it completes: Partial trades
	// time-to-first-tuple within a rule for that guarantee.
	// Caller-context cancellation and compile-time planning errors
	// still abort.
	Partial bool
}

// Answered marks rules of a union whose answers the caller already
// holds (the semantic query cache's per-disjunct hits). Rule i with
// Covered[i] set is not evaluated: it makes no source calls, gets no
// RuleProfile, counts as survived, and Rows[i] — none for a statically
// unsatisfiable core — enter the sink at its rule position. The zero
// value covers nothing.
type Answered struct {
	Covered []bool
	Rows    [][]Row
}

// Sink receives the head rows of an execution, tagged with the index in
// the executed union of the rule that produced them. Rows are distinct
// within a rule; dropping duplicates across rules is the sink's
// business. It reports how many rows were new to the result
// (RuleProfile.Answers) and whether the consumer still wants rows; a
// sink that can block gives up when ctx is done. The sink owns the rows
// it is handed.
//
// A materialized run (Run, Eval) calls the sink from the caller's
// goroutine, in rule order, exactly once per answered rule — evaluated
// to completion or pre-answered — with all of the rule's rows, possibly
// none; a dropped disjunct gets no call. A streamed run calls it once
// per batch, concurrently under Opts.Parallel.
type Sink func(ctx context.Context, rule int, rows []Row) (added int, ok bool)

// ruleRun is one disjunct taking part in an execution.
type ruleRun struct {
	idx  int // position in the executed union
	rule logic.CQ
	prog *ruleProgram // nil when pre-answered
	rp   RuleProfile  // unused when pre-answered
	held [][]Row      // rows not yet delivered to the sink
	err  error
}

// execution is one run of the driver: the compiled union, the schedule
// and sink the caller's API shape selected, and the accounting all of
// its rules share.
type execution struct {
	rt     *Runtime
	cat    *sources.Catalog
	o      Opts
	staged bool // the staged schedule (streams) instead of the whole one
	sink   Sink
	start  time.Time
	budget *budgetState
	pool   *colPool
	rules  []ruleRun
	// resident gauges the bindings live across the stages of the
	// execution's staged rules (RuleProfile.PeakBindings).
	resident inFlightGauge
}

// newExecution starts an execution's clock and budget.
func (rt *Runtime) newExecution(cat *sources.Catalog, o Opts, staged bool, sink Sink) *execution {
	return &execution{rt: rt, cat: cat, o: o, staged: staged, sink: sink, start: time.Now(), budget: rt.newBudget(), pool: newColPool()}
}

// compile translates the union into the execution's rules, once: every
// rule that is neither False nor pre-answered must be executable as
// written.
func (x *execution) compile(u logic.UCQ, ps *access.Set, pre Answered) error {
	x.rules = make([]ruleRun, 0, len(u.Rules))
	for i, rule := range u.Rules {
		if rule.False {
			continue
		}
		r := ruleRun{idx: i, rule: rule}
		if i < len(pre.Covered) && pre.Covered[i] {
			r.held = [][]Row{pre.Rows[i]}
		} else {
			steps, ok := access.AdornInOrder(rule.Body, ps)
			if !ok {
				return fmt.Errorf("%w: %s", errNotExecutable, rule)
			}
			r.prog = compileRule(rule, steps, x.pool)
		}
		x.rules = append(x.rules, r)
	}
	return nil
}

// run is the driver: it runs the execution's rules — in order, or one
// goroutine per rule — settles each rule's outcome in rule order, and
// finalizes the Profile and the Incompleteness report (nil in strict
// mode). Both are returned on failure too: a failed or degraded
// execution still reports the traffic it cost.
//
// Concurrently running rules report every distinct failure, joined in
// rule order with the rule's number; a sibling's cancellation is
// reported only when no real failure surfaced. Sequential runs stop at,
// and report, the first.
func (x *execution) run(ctx context.Context) (Profile, *Incompleteness, error) {
	var inc *Incompleteness
	if x.o.Partial {
		inc = &Incompleteness{RulesTotal: len(x.rules)}
	}
	var errs []error
	var cancelled error
	// settle classifies a finished rule's outcome and delivers what a
	// surviving rule still holds back; it reports whether the execution
	// may go on.
	settle := func(r *ruleRun) bool {
		switch err := r.err; {
		case err == nil:
			x.flush(ctx, r)
			return true
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			cancelled = err
		case x.absorbs(ctx, err):
			inc.record(r.idx, r.rule, err)
			return true
		case x.o.Parallel:
			errs = append(errs, fmt.Errorf("engine: rule %d: %w", r.idx+1, err))
		default:
			errs = append(errs, err)
		}
		return false
	}
	if x.o.Parallel {
		rctx, cancel := context.WithCancel(ctx)
		var wg sync.WaitGroup
		for i := range x.rules {
			wg.Add(1)
			go func(r *ruleRun) {
				defer wg.Done()
				x.runRule(rctx, r)
				if r.err != nil && !x.absorbs(ctx, r.err) {
					cancel() // stop the rules still in flight
				}
			}(&x.rules[i])
		}
		wg.Wait()
		cancel()
		for i := range x.rules {
			settle(&x.rules[i])
		}
	} else {
		for i := range x.rules {
			if ctx.Err() != nil {
				break
			}
			x.runRule(ctx, &x.rules[i])
			if !settle(&x.rules[i]) {
				break
			}
		}
	}
	err := errors.Join(errs...)
	if len(errs) == 1 {
		err = errs[0]
	}
	if err == nil {
		err = cancelled
	}
	if err == nil {
		// A context that died before, or between, rules must not look
		// like a clean, possibly empty, answer.
		err = ctx.Err()
	}

	prof := Profile{Elapsed: time.Since(x.start), Rules: make([]RuleProfile, 0, len(x.rules))}
	for i := range x.rules {
		if x.rules[i].prog != nil {
			prof.Rules = append(prof.Rules, x.rules[i].rp)
		}
	}
	if inc != nil {
		inc.RulesSurvived = inc.RulesTotal - len(inc.Failed)
		prof.Degraded.Rules = len(inc.Failed)
	}
	if x.rt.Budget.active() {
		prof.Calls.BudgetSpent = int(x.budget.spent.Load())
	}
	prof.Batch = x.pool.batchProfile()
	prof.finalize()
	prof.snapshotReplicas(x.cat)
	return prof, inc, err
}

// absorbs reports whether partial-results mode drops the failed rule
// and goes on instead of failing the execution.
func (x *execution) absorbs(ctx context.Context, err error) bool {
	return x.o.Partial && degradable(ctx, err)
}

// runRule is the rule runner: it executes one rule under the
// execution's schedule and leaves its failure, if any, in r.err.
//
// The runner owns the hold-back of the rule's rows. A staged rule
// delivers each batch as the head stage produces it — except under
// Partial, where the rows wait until the rule has succeeded and a
// failed rule's rows are discarded. A whole rule's single batch waits
// for the driver, which delivers in rule order on its own goroutine. A
// pre-answered rule's rows are held from the start.
func (x *execution) runRule(ctx context.Context, r *ruleRun) {
	if r.prog != nil {
		start := time.Now()
		r.rp.Rule = r.rule.Clone()
		r.rp.Steps = make([]StepProfile, len(r.prog.steps))
		for i := range r.rp.Steps {
			r.rp.Steps[i].Step = r.prog.steps[i].step
		}
		if r.err = x.evaluate(ctx, r); r.err != nil {
			r.held = nil
		}
		r.rp.Elapsed = time.Since(start)
	}
	if x.staged && r.err == nil {
		x.flush(ctx, r)
	}
}

// evaluate runs r's steps under the execution's schedule. A panic in
// the rule's evaluation is that rule's failure, not the process's.
func (x *execution) evaluate(ctx context.Context, r *ruleRun) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("engine: rule %d panicked: %v", r.idx+1, p)
		}
	}()
	hold := func(_ context.Context, rows []Row) bool {
		r.held = append(r.held, rows)
		return true
	}
	switch {
	case !x.staged:
		return x.whole(ctx, r, hold)
	case x.o.Partial:
		return x.stagedRule(ctx, r, hold)
	default:
		return x.stagedRule(ctx, r, func(ctx context.Context, rows []Row) bool { return x.deliver(ctx, r, rows) })
	}
}

// flush delivers the rows r still holds back.
func (x *execution) flush(ctx context.Context, r *ruleRun) {
	for _, rows := range r.held {
		if !x.deliver(ctx, r, rows) {
			break
		}
	}
	r.held = nil
}

// deliver pushes one batch of r's rows into the sink.
func (x *execution) deliver(ctx context.Context, r *ruleRun, rows []Row) bool {
	added, ok := x.sink(ctx, r.idx, rows)
	r.rp.Answers += added
	return ok
}

// Run evaluates the executable plan, materializing: every rule's steps
// run once over the whole binding set, inline on the caller's goroutine
// (rule goroutines only under o.Parallel), and the answered rules' rows
// enter sink in rule order. It returns the profile and — in
// partial-results mode only — the degradation report (nil otherwise).
// A rule that is not executable as written fails before any source
// call.
func (rt *Runtime) Run(ctx context.Context, u logic.UCQ, ps *access.Set, cat *sources.Catalog, pre Answered, o Opts, sink Sink) (Profile, *Incompleteness, error) {
	x := rt.newExecution(cat, o, false, sink)
	if err := x.compile(u, ps, pre); err != nil {
		return Profile{}, nil, err
	}
	return x.run(ctx)
}

// Into is the sink of a materialized run that collects the union's
// answers: it adds every row to out.
func Into(out *Rel) Sink {
	return func(_ context.Context, _ int, rows []Row) (int, bool) {
		return out.AddRows(rows), true
	}
}

// Eval is Run into a fresh relation: Answer, AnswerProfiled, and
// AnswerParallel are thin wrappers over it.
func (rt *Runtime) Eval(ctx context.Context, u logic.UCQ, ps *access.Set, cat *sources.Catalog, o Opts) (*Rel, Profile, *Incompleteness, error) {
	out := NewRel()
	prof, inc, err := rt.Run(ctx, u, ps, cat, Answered{}, o, Into(out))
	if err != nil {
		return nil, Profile{}, nil, err
	}
	return out, prof, inc, nil
}

// Answer evaluates an executable UCQ¬ plan against the catalog: each rule
// is executed left to right through source calls that respect the access
// patterns declared by ps. Rules must be executable as written (PLAN*
// and Reorder emit such rules); otherwise an error is returned. This is
// ANSWER(Q, D) of the paper, computed the only way the setting allows —
// through the sources. It runs on the default Runtime (deduplicating,
// concurrent); use a Runtime value for cancellation or custom knobs.
func Answer(u logic.UCQ, ps *access.Set, cat *sources.Catalog) (*Rel, error) {
	return defaultRuntime.Answer(context.Background(), u, ps, cat)
}

// Answer is ANSWER(Q, D) on this runtime; see the package-level Answer.
func (rt *Runtime) Answer(ctx context.Context, u logic.UCQ, ps *access.Set, cat *sources.Catalog) (*Rel, error) {
	rel, _, _, err := rt.Eval(ctx, u, ps, cat, Opts{})
	return rel, err
}

// AnswerParallel evaluates the executable plan with one goroutine per
// rule — the paper's reading of a UCQ¬ plan: "execute each rule
// separately (possibly in parallel) from left to right" (Section 3).
// Sources are safe for concurrent use; results are merged under set
// semantics, so the answer equals Answer's. A rule failure cancels the
// rules still in flight; every distinct rule error is reported (joined),
// in rule order.
func AnswerParallel(u logic.UCQ, ps *access.Set, cat *sources.Catalog) (*Rel, error) {
	return defaultRuntime.AnswerParallel(context.Background(), u, ps, cat)
}

// AnswerParallel is the package-level AnswerParallel on this runtime.
func (rt *Runtime) AnswerParallel(ctx context.Context, u logic.UCQ, ps *access.Set, cat *sources.Catalog) (*Rel, error) {
	rel, _, _, err := rt.Eval(ctx, u, ps, cat, Opts{Parallel: true})
	return rel, err
}

// AnswerSteps executes an explicitly adorned plan for one rule — the
// caller chooses the access pattern of every step (e.g. via
// access.AdornInOrderPrefer) — and returns its answers.
func AnswerSteps(q logic.CQ, steps []access.AdornedLiteral, cat *sources.Catalog) (*Rel, error) {
	return defaultRuntime.AnswerSteps(context.Background(), q, steps, cat)
}

// AnswerSteps is the package-level AnswerSteps on this runtime.
func (rt *Runtime) AnswerSteps(ctx context.Context, q logic.CQ, steps []access.AdornedLiteral, cat *sources.Catalog) (*Rel, error) {
	out := NewRel()
	if q.False {
		return out, nil
	}
	x := rt.newExecution(cat, Opts{}, false, Into(out))
	x.rules = []ruleRun{{rule: q, prog: compileRule(q, steps, x.pool)}}
	if _, _, err := x.run(ctx); err != nil {
		return nil, err
	}
	return out, nil
}
