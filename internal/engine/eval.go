package engine

// The executor. Section 3 of the paper gives a UCQ¬ plan exactly one
// execution semantics — "execute each rule separately (possibly in
// parallel) from left to right", every literal through its access
// pattern — and this file is its one implementation:
//
//	driver → rule runner → {whole, staged} schedule → sink
//
// The driver runs a core.Plan: planning (core.NewPlan) has already
// chosen each rule's order and adornment, so the driver never re-adorns
// and never rejects a rule, and a plan served from a cache runs exactly
// as a fresh one. The driver (execution.run) runs the plan's steps as
// slot programs — compiled once per execution, or once per engine state
// for a cached plan (Prepared) — runs the rules in order or
// concurrently, and assembles the Profile and the execution's Report.
// The runner (runRule) gives one rule its RuleProfile, the one recover,
// and the hold-back of its rows; under it a schedule (schedule.go)
// applies the rule's steps and produces its distinct head rows, which
// the runner pushes — tagged with the rule's index — into the caller's
// sink. Run runs the driver inline with the caller's sink (Into fills a
// Rel); StreamEval runs the same driver in a goroutine with a sink that
// sends on the Stream's channel. An execution is configured in one
// place, its Opts; the Runtime it runs on is policy and limiter state
// shared by every execution on it.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/sources"
)

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
	// execution's Report instead of failing the execution. The
	// answer is then exactly ANSWER of the surviving rules: a certified
	// underestimate of the full answer. A disjunct's answers are only
	// certain once the whole disjunct succeeded, so a streamed rule's
	// rows are held back until it completes: Partial trades
	// time-to-first-tuple within a rule for that guarantee.
	// Caller-context cancellation still aborts. A materialized run takes
	// its caller's deadline as its time budget (Budget.MaxTime), and
	// degrades on it; a stream, which hands its rows over through the
	// caller's context, aborts at it.
	Partial bool
	// Prepared, when set, keeps the compiled rule programs of the plan
	// being run across the executions of that one plan (Prepared). Nil
	// compiles the rules for this execution and keeps nothing.
	Prepared *Prepared
	// Budget caps the execution's source traffic. The zero value means
	// unlimited.
	Budget Budget
	// Hedge enables hedged requests against replicated sources: after
	// the configured delay a backup attempt is launched on the
	// next-healthiest replica, and the first success wins (see
	// HedgePolicy). Sources that are not replica sets are unaffected.
	// The zero value disables hedging.
	Hedge HedgePolicy
}

// Prepared holds one plan's compiled rule programs for the engine state
// they were compiled against: a program's constants are that state's
// value IDs, so it is valid exactly while an execution pins that state.
// An execution that pins the state runs them. Any other compiles for
// itself the first time the plan runs under its state, and the second
// time compiles the whole plan and replaces them: a plan that runs once
// — a plan miss nobody repeats — keeps nothing, and a catalog rollover
// or generation bump recompiles a repeated plan once. A program is
// read-only after compile — all per-execution state lives in stepState,
// headSet and colPool — so concurrent executions share one. The zero
// value holds nothing; one Prepared serves one plan (a cached plan entry
// keeps it beside the plan, and it dies with the entry).
type Prepared struct {
	cur atomic.Pointer[preparedRules]
	// seen is the serial of the last state the plan ran under without
	// its programs kept.
	seen atomic.Uint64
}

// preparedRules is one plan's programs under one engine state: progs[i]
// is rule i's, nil for a False rule, their steps numbered by ords.
type preparedRules struct {
	state uint64 // engineState.serial
	progs []*ruleProgram
	ords  relOrds
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
// A materialized run (Run) calls the sink from the caller's
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
// its rules share. Its scratch — the call table, the column pool with
// its step states and head sets — is recycled with it (executions).
type execution struct {
	rt     *Runtime
	cat    *sources.Catalog
	o      Opts
	staged bool // the staged schedule (streams) instead of the whole one
	sink   Sink
	start  time.Time
	budget *budgetState
	pool   colPool
	state  uint64 // the pinned engine state's serial
	rules  []ruleRun
	// calls is every source call the execution made (calltable.go).
	calls callTable
	// ords backs the (relation, pattern) numbering of the rules the
	// execution compiles itself.
	ords [8]relPattern
	// resident gauges the bindings live across the stages of the
	// execution's staged rules (RuleProfile.PeakBindings).
	resident inFlightGauge
}

// executions recycles executions, so that a warm process regrows no
// execution's scratch: an execution is released (release) once nothing
// runs on it any more, and kept with its scratch when that fits
// scratchMaxKept.
var executions = sync.Pool{New: func() any { return new(execution) }}

// newExecution starts an execution's clock and budget and pins cat's
// engine state: every value the execution compares gets its ID from that
// state's interner, whatever the catalog installs meanwhile.
func (rt *Runtime) newExecution(cat *sources.Catalog, o Opts, staged bool, sink Sink) *execution {
	st := pinState(cat)
	x := executions.Get().(*execution)
	x.rt, x.cat, x.o, x.staged, x.sink = rt, cat, o, staged, sink
	x.start, x.budget, x.state = time.Now(), newBudget(o.Budget), st.serial
	x.pool.pin(st)
	x.resident.cur.Store(0)
	x.resident.max.Store(0)
	return x
}

// release recycles x once its run is over and every goroutine that ran
// on it — rules, stages, issue's helpers — has exited, unless its
// scratch grew past scratchMaxKept. What it keeps points into nothing of
// the run: the call table's rows and inputs, the step states' joins and
// answers and the rules are cleared, and the rows the sink was handed
// were never the execution's. x must not be used afterwards.
func (x *execution) release() {
	k := keeper(scratchMaxKept)
	x.calls.recycle(&k)
	x.pool.recycle(&k)
	x.rules = keep(&k, x.rules)
	if k < 0 {
		return
	}
	clear(x.ords[:])
	x.rt, x.cat, x.o, x.sink, x.budget = nil, nil, Opts{}, nil, nil
	executions.Put(x)
}

// compile translates the plan into the execution's rules: every rule
// that is neither False nor pre-answered runs the plan's steps, compiled
// for this execution or taken from o.Prepared. It sizes the call table
// for the (relation, pattern) pairs the programs access.
func (x *execution) compile(p core.Plan, pre Answered) {
	progs, ords := x.prepared(p)
	if progs == nil {
		ords = x.ords[:0]
	}
	x.rules = x.rules[:0]
	if cap(x.rules) < len(p.Exec.Rules) {
		x.rules = make([]ruleRun, 0, len(p.Exec.Rules))
	}
	for i, rule := range p.Exec.Rules {
		if rule.False {
			continue
		}
		r := ruleRun{idx: i, rule: rule}
		switch {
		case i < len(pre.Covered) && pre.Covered[i]:
			r.held = [][]Row{pre.Rows[i]}
		case progs != nil:
			r.prog = progs[i]
		default:
			r.prog = compileRule(rule, p.Steps[i], &x.pool, &ords)
		}
		x.rules = append(x.rules, r)
	}
	x.calls.init(ords)
}

// prepared returns p's programs from o.Prepared, and the numbering of
// the (relation, pattern) pairs they access, when they were compiled
// under the state this execution pinned. Otherwise, if p ran under that
// state before, it compiles every rule of p under it and installs the
// result there; if not, it returns no programs, as it does without
// o.Prepared, and the execution compiles what it runs, numbering on
// from the returned relOrds. Two executions racing to install both run
// their own compile, and the last one stays.
func (x *execution) prepared(p core.Plan) ([]*ruleProgram, relOrds) {
	pp := x.o.Prepared
	if pp == nil {
		return nil, nil
	}
	if cur := pp.cur.Load(); cur != nil && cur.state == x.state {
		return cur.progs, cur.ords
	}
	if pp.seen.Swap(x.state) != x.state {
		return nil, nil
	}
	cur := &preparedRules{state: x.state, progs: make([]*ruleProgram, len(p.Exec.Rules))}
	for i, rule := range p.Exec.Rules {
		if !rule.False {
			cur.progs[i] = compileRule(rule, p.Steps[i], &x.pool, &cur.ords)
		}
	}
	pp.cur.Store(cur)
	return cur.progs, cur.ords
}

// run is the driver: it runs the execution's rules — in order, or one
// goroutine per rule — settles each rule's outcome in rule order, and
// finalizes the Profile and the Report, whose estimates the caller's
// sink fills in. Both are returned on failure too: a failed or degraded
// execution still reports the traffic it cost.
//
// Concurrently running rules report every distinct failure, joined in
// rule order with the rule's number; a sibling's cancellation is
// reported only when no real failure surfaced. Sequential runs stop at,
// and report, the first.
func (x *execution) run(ctx context.Context) (Profile, Report, error) {
	rep := Report{RulesTotal: len(x.rules)}
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
			rep.record(r.idx, r.rule, err)
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
	rep.RulesSurvived = rep.RulesTotal - len(rep.Failed)
	rep.Certified = len(rep.Failed) == 0
	if x.o.Budget.active() {
		prof.Calls.BudgetSpent = int(x.budget.spent.Load())
	}
	prof.Batch = x.pool.batchProfile()
	prof.finalize()
	return prof, rep, err
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
		r.rp.Rule = r.rule
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

// Run evaluates the plan, materializing: every rule's steps run once
// over the whole binding set, inline on the caller's goroutine (rule
// goroutines only under o.Parallel), and the answered rules' rows enter
// sink in rule order. It returns the profile and the report, whose
// Under, Over and Δ StarSink.Fill fills in when sink is a StarSink's.
// A partial run
// past ctx's deadline has run out of time budget: what the deadline
// stopped is dropped as budget-exhausted, and the rules that finished
// answer.
func (rt *Runtime) Run(ctx context.Context, p core.Plan, cat *sources.Catalog, pre Answered, o Opts, sink Sink) (Profile, Report, error) {
	x := rt.newExecution(cat, o, false, sink)
	defer x.release()
	if o.Partial {
		var stop func()
		ctx, stop = x.budget.adopt(ctx)
		defer stop()
	}
	x.compile(p, pre)
	return x.run(ctx)
}

// Into is the sink of a materialized run that collects the union's
// answers into out. The rows are the sink's (Sink), so out takes them
// over without a copy: the first answered rule's rows become out's rows
// as they are, and a later rule's are added past the membership index.
func Into(out *Rel) Sink {
	return func(_ context.Context, _ int, rows []Row) (int, bool) {
		return out.adopt(rows), true
	}
}
