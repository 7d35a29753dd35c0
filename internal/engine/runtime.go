package engine

// The source-call runtime. The paper's cost model is source traffic —
// calls made through limited access patterns — and its setting is remote
// web services (Section 1), so the engine treats each plan step as a
// batch of service calls: bindings are grouped by their input-slot key,
// each distinct call is issued once per execution (the call table,
// calltable.go), the calls a step issues go through a bounded worker
// pool, transient failures are retried with exponential backoff, and
// everything honors context cancellation. Answer sets are
// byte-identical to sequential per-binding evaluation: results are
// fanned back out to the bindings in their original order.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/sources"
)

// RetryPolicy says how the runtime retries failed source calls. Only
// errors classified as retryable (by default: transient source failures,
// see sources.Transient) are retried; contract violations and context
// cancellations always fail immediately.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per call, including
	// the first. Values below 1 mean 1 (no retry).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles on
	// every further attempt. Zero means retry immediately.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff when > 0.
	MaxDelay time.Duration
	// Jitter, when set, maps each computed backoff to the delay actually
	// slept — the hook where randomized jitter (or a test clock) plugs
	// in. Nil means no jitter: delays are deterministic.
	Jitter func(time.Duration) time.Duration
	// Retryable classifies errors; nil means sources.IsTransient.
	Retryable func(error) bool
}

// DefaultRetryPolicy retries transient failures up to 4 attempts with
// 2ms/4ms/8ms backoff, jittered (SeededJitter) so concurrent workers
// retrying the same failing source don't back off in lockstep and
// re-arrive as a synchronized herd.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    100 * time.Millisecond,
		Jitter:      SeededJitter(defaultJitterSeed),
	}
}

// defaultJitterSeed makes DefaultRetryPolicy's jitter reproducible run
// to run (the draw sequence is fixed; only the interleaving across
// goroutines varies).
const defaultJitterSeed = 0x9E3779B9

// SeededJitter returns an "equal jitter" hook for RetryPolicy.Jitter:
// each computed backoff d maps to a uniform delay in [d/2, d]. The
// random stream is deterministic for a given seed — tests get
// reproducible draw sequences — while still decorrelating concurrent
// workers, which draw different values from the shared stream. The
// returned function is safe for concurrent use.
func SeededJitter(seed int64) func(time.Duration) time.Duration {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func(d time.Duration) time.Duration {
		half := int64(d) / 2
		if half <= 0 {
			return d
		}
		mu.Lock()
		off := rng.Int63n(half + 1)
		mu.Unlock()
		return time.Duration(half + off)
	}
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

func (p RetryPolicy) isRetryable(err error) bool {
	if p.Retryable != nil {
		return p.Retryable(err)
	}
	return sources.IsTransient(err)
}

// backoff returns the delay to sleep after the attempt-th failure
// (1-based).
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			d = p.MaxDelay
			break
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.Jitter != nil {
		d = p.Jitter(d)
	}
	return d
}

// Runtime executes plans against a catalog. NewRuntime returns the
// production configuration (dedup on, pool per CPU, retries);
// SequentialRuntime reproduces the historical per-binding loop exactly.
// A Runtime is shared policy and shared limiter state only: it is safe
// for concurrent use and may be shared across queries, and the
// per-source limit is enforced across everything in flight on it. What
// one execution may spend and whether it hedges are its Opts.
type Runtime struct {
	// Concurrency bounds the worker pool issuing a step's distinct
	// calls. 0 means GOMAXPROCS; 1 means sequential.
	Concurrency int
	// PerSource caps the calls in flight against any one source across
	// all concurrent rules and steps (0 = no cap) — remote services
	// rate-limit per endpoint, not per client goroutine.
	PerSource int
	// Dedup keys an execution's calls by (relation, pattern, inputs) so
	// each distinct call is issued once per execution, whichever steps
	// and rules ask it: it is the call table's switch and nothing else.
	// The evaluator's deduplication of bindings on their live variables
	// is not an option — it never changes the distinct calls, only how
	// many bindings ask for each — so with Dedup off a step still calls
	// once per binding it is handed.
	Dedup bool
	// Retry is the per-call retry policy.
	Retry RetryPolicy
	// BatchSize is the number of bindings per batch flowing between the
	// stages of a streamed pipeline (Stream/StreamEval). Smaller
	// batches deliver first tuples earlier; larger batches amortize
	// per-batch overhead. 0 means DefaultBatchSize. Materializing
	// evaluation ignores it.
	BatchSize int
	// StageBuffer is the capacity of the channel between consecutive
	// pipeline stages: how many batches a stage may run ahead of its
	// consumer. 0 means 1. Materializing evaluation ignores it.
	StageBuffer int
	// CallTimeout is the per-call deadline: each source-call attempt runs
	// under its own context deadline, so a hung service costs at most
	// CallTimeout per attempt instead of stalling the plan. An expired
	// attempt is reported as a transient timeout failure (retryable, and
	// counted as a failure by circuit breakers below). 0 means no
	// per-call deadline.
	CallTimeout time.Duration

	mu   sync.Mutex
	sems map[string]chan struct{}
}

// Budget is a per-query source-call budget: how much traffic one
// execution may spend before it is cut off. The budget is charged per
// call attempt (retries included) across all rules, steps, and workers
// of the execution; exceeding it fails the in-flight call with
// ErrCallBudget, which partial-results mode degrades on and strict mode
// surfaces.
type Budget struct {
	// MaxCalls is the maximum number of call attempts; 0 means unlimited.
	// A negative value admits no calls at all: every source call fails
	// ErrCallBudget immediately, so a partial-results execution degrades
	// to whatever cached answers cover — the overload-shedding mode of a
	// serving layer.
	MaxCalls int
	// MaxTime is the execution's wall-clock allowance: checked before
	// each attempt and every 1 024 bindings of a join, and the
	// deadline of the attempts in flight; 0 means unlimited. A
	// materialized partial-results execution takes its caller's
	// deadline as this allowance when that is sooner (Runtime.Run).
	MaxTime time.Duration
}

func (b Budget) active() bool { return b.MaxCalls != 0 || b.MaxTime > 0 }

// ErrCallBudget marks source calls rejected because the per-query
// budget (Opts.Budget) was exhausted. Like a breaker rejection it is
// terminal, never retried.
var ErrCallBudget = errors.New("engine: per-query call budget exhausted")

// budgetState is one execution's budget accounting, shared by all of
// its workers.
type budgetState struct {
	limit    int64 // 0 = unlimited
	deadline time.Time
	spent    atomic.Int64
}

// newBudget starts one execution's budget clock for b.
func newBudget(b Budget) *budgetState {
	st := &budgetState{limit: int64(b.MaxCalls)}
	if b.MaxTime > 0 {
		st.deadline = time.Now().Add(b.MaxTime)
	}
	return st
}

// charge admits one call attempt or reports budget exhaustion. spent
// counts only admitted attempts.
func (b *budgetState) charge() error {
	if b == nil {
		return nil
	}
	if b.limit < 0 {
		return fmt.Errorf("%w: call budget is zero, no source calls admitted", ErrCallBudget)
	}
	if err := b.expired(); err != nil {
		return err
	}
	if b.limit > 0 {
		if n := b.spent.Add(1); n > b.limit {
			b.spent.Add(-1)
			return fmt.Errorf("%w: call budget of %d spent", ErrCallBudget, b.limit)
		}
		return nil
	}
	b.spent.Add(1)
	return nil
}

// expired reports a spent time budget as ErrCallBudget, and nil while
// time is left or when there is no time budget.
func (b *budgetState) expired() error {
	if b == nil || b.deadline.IsZero() || !time.Now().After(b.deadline) {
		return nil
	}
	return fmt.Errorf("%w: time budget spent after %d calls", ErrCallBudget, b.spent.Load())
}

// adopt makes ctx's deadline, if it has one, the time budget when it is
// sooner than the budget's own, and returns the context to run under:
// ctx with its cancellation but without its deadline, so that running
// out of time stops the execution where the budget does — before a
// call, in a call, in a join — as ErrCallBudget, not as a
// cancellation. stop releases the returned context.
func (b *budgetState) adopt(ctx context.Context) (_ context.Context, stop func()) {
	d, ok := ctx.Deadline()
	if !ok {
		return ctx, func() {}
	}
	if b.deadline.IsZero() || d.Before(b.deadline) {
		b.deadline = d
	}
	run, cancel := context.WithCancel(context.WithoutCancel(ctx))
	unhook := context.AfterFunc(ctx, func() {
		if errors.Is(ctx.Err(), context.Canceled) {
			cancel()
		}
	})
	return run, func() { unhook(); cancel() }
}

// refund hands back one admitted attempt that was never launched (the
// per-source slot acquisition was abandoned to the context). Without it
// BudgetSpent would over-count launched legs — and an abandoned leg
// could spend the last slot of the budget that a live worker then gets
// rejected on.
func (b *budgetState) refund() {
	if b == nil {
		return
	}
	b.spent.Add(-1)
}

// NewRuntime returns the production runtime: deduplication on, one
// worker per CPU, transient failures retried.
func NewRuntime() *Runtime {
	return &Runtime{Concurrency: runtime.GOMAXPROCS(0), Dedup: true, Retry: DefaultRetryPolicy()}
}

// SequentialRuntime returns a runtime that reproduces the historical
// per-binding evaluation loop exactly: one call per binding, in binding
// order, no retries. Benchmarks use it as the baseline.
func SequentialRuntime() *Runtime {
	return &Runtime{Concurrency: 1}
}

// defaultRuntime is shared, which is safe (the only state is the
// per-source limiter).
var defaultRuntime = NewRuntime()

// DefaultRuntime returns the shared runtime a caller without one of its
// own runs on, so every such execution goes through the same per-source
// limiter state.
func DefaultRuntime() *Runtime { return defaultRuntime }

// DefaultBatchSize is the binding-batch size streamed pipelines use when
// Runtime.BatchSize is zero.
const DefaultBatchSize = 64

func (rt *Runtime) batchSize() int {
	if rt.BatchSize > 0 {
		return rt.BatchSize
	}
	return DefaultBatchSize
}

func (rt *Runtime) stageBuffer() int {
	if rt.StageBuffer > 0 {
		return rt.StageBuffer
	}
	return 1
}

func (rt *Runtime) workers(n int) int {
	w := rt.Concurrency
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if rt.PerSource > 0 && rt.PerSource < w {
		w = rt.PerSource // a step calls a single source
	}
	if n < w {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// sourceSem returns the shared in-flight limiter for the named source,
// or nil when unlimited.
func (rt *Runtime) sourceSem(name string) chan struct{} {
	if rt.PerSource <= 0 {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.sems == nil {
		rt.sems = map[string]chan struct{}{}
	}
	sem, ok := rt.sems[name]
	if !ok {
		sem = make(chan struct{}, rt.PerSource)
		rt.sems[name] = sem
	}
	return sem
}

// inFlightGauge tracks the high-water mark of a fluctuating count —
// concurrent source calls in flight, or bindings resident in a streamed
// pipeline.
type inFlightGauge struct {
	cur atomic.Int64
	max atomic.Int64
}

// add moves the current count by n (n may be negative) and updates the
// high-water mark.
func (g *inFlightGauge) add(n int64) {
	c := g.cur.Add(n)
	for {
		m := g.max.Load()
		if c <= m || g.max.CompareAndSwap(m, c) {
			return
		}
	}
}

func (g *inFlightGauge) enter() { g.add(1) }

func (g *inFlightGauge) leave() { g.cur.Add(-1) }

// callStats counts the work behind one logical source call: attempts is
// every launched leg — each charged to the budget and traffic stats
// exactly once — rounds the retry rounds (a hedged race over several
// replicas is one round), hedges the timer-launched backup legs, and
// hedgeWins whether a backup leg produced the winning rows.
type callStats struct {
	attempts  int
	rounds    int
	hedges    int
	hedgeWins int
}

// runLeg runs one attempt of a group call end to end: per-source slot,
// per-call deadline, in-flight gauge, deadline-to-transient conversion,
// and panic containment — a panicking source fails the call like any
// other source error instead of killing the process, on every path
// that reaches a source. launched reports whether the call was actually
// issued (false when the per-source slot acquisition was abandoned to
// the context).
func (rt *Runtime) runLeg(ctx context.Context, sem chan struct{}, gauge *inFlightGauge, src sources.Source, name string, p access.Pattern, inputs [][]string) (groups [][]sources.Tuple, launched bool, err error) {
	if sem != nil {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		defer func() { <-sem }()
	}
	cctx, cancel := ctx, context.CancelFunc(nil)
	if rt.CallTimeout > 0 {
		cctx, cancel = context.WithTimeout(ctx, rt.CallTimeout)
		defer cancel()
	}
	gauge.enter()
	launched = true
	defer func() {
		gauge.leave()
		if r := recover(); r != nil {
			groups, err = nil, fmt.Errorf("engine: source %s panicked: %v", name, r)
		}
	}()
	groups, err = src.Call(cctx, p, inputs)
	switch {
	case err == nil:
		groups, err = checkGroups(name, p, inputs, groups)
	case cancel != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
		// The attempt's own deadline expiring is a source failure (slow
		// or hung service), not a caller cancellation: report it as a
		// retryable timeout so the policy and any circuit breaker see
		// it. The caller's context staying alive is what distinguishes
		// the two.
		err = sources.Transient(fmt.Errorf("engine: %s^%s: call of %d timed out after %v", name, p, len(inputs), rt.CallTimeout))
	}
	return groups, true, err
}

// checkGroups holds a source's answer to its contract before the join
// indexes into it: one group per input vector, every tuple of the
// relation's arity. A violation is a terminal failure of the call.
func checkGroups(name string, p access.Pattern, inputs [][]string, groups [][]sources.Tuple) ([][]sources.Tuple, error) {
	if len(groups) != len(inputs) {
		return nil, fmt.Errorf("engine: source %s answered %d input vectors with %d groups", name, len(inputs), len(groups))
	}
	for _, g := range groups {
		for _, t := range g {
			if len(t) != len(p) {
				return nil, fmt.Errorf("engine: source %s returned a tuple of %d values, want %d", name, len(t), len(p))
			}
		}
	}
	return groups, nil
}

// callWithRetry issues one group call — a whole binding group for a
// batching source, a group of one otherwise — under the per-source
// limit and the per-execution budget: every attempt is one round trip,
// charged one budget unit and bounded by the per-call deadline, and
// failed attempts are retried per the policy. Against a replicated
// source with hedging configured, each retry round runs as a hedged
// race across replicas instead of a single attempt. It returns the
// groups and the call's accounting (zero attempts when cancelled or cut
// off before the first).
func (x *execution) callWithRetry(ctx context.Context, src sources.Source, name string, p access.Pattern, inputs [][]string, gauge *inFlightGauge) (groups [][]sources.Tuple, cs callStats, err error) {
	rt, budget := x.rt, x.budget
	if !budget.deadline.IsZero() {
		// The time budget is the deadline of the attempts in flight, of
		// the backoff and of the per-source slot wait; an attempt it
		// cuts off is the budget's failure, not the caller's.
		caller := ctx
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, budget.deadline)
		defer cancel()
		defer func() {
			if err != nil && !errors.Is(err, ErrCallBudget) && caller.Err() == nil && ctx.Err() != nil {
				err = fmt.Errorf("%w: time budget spent during a call to %s", ErrCallBudget, name)
			}
		}()
	}
	sem := rt.sourceSem(name)
	max := rt.Retry.attempts()
	rsrc, hedged := x.o.Hedge.target(src)
	for attempt := 1; ; attempt++ {
		if hedged {
			// The whole round holds ONE per-source slot: its legs are
			// replicas of one logical call, and per-leg slots can
			// deadlock — hung primaries holding every slot while the
			// backups that would cancel them wait for one.
			if sem != nil {
				select {
				case sem <- struct{}{}:
				case <-ctx.Done():
					return nil, cs, ctx.Err()
				}
			}
			before := cs.attempts
			groups, err = x.hedgedRound(ctx, rsrc, name, p, inputs, gauge, &cs)
			if sem != nil {
				<-sem
			}
			if cs.attempts == before {
				return nil, cs, err // cut off before any leg launched
			}
			cs.rounds++
		} else {
			if err := budget.charge(); err != nil {
				return nil, cs, err
			}
			var launched bool
			groups, launched, err = rt.runLeg(ctx, sem, gauge, src, name, p, inputs)
			if !launched {
				// The slot acquisition was abandoned to the context: the
				// attempt never happened, so it must not stay charged —
				// BudgetSpent counts launched legs exactly.
				budget.refund()
				return nil, cs, err
			}
			cs.attempts++
			cs.rounds++
		}
		if err == nil || attempt >= max || !rt.Retry.isRetryable(err) || ctx.Err() != nil {
			return groups, cs, err
		}
		if d := rt.Retry.backoff(attempt); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return nil, cs, ctx.Err()
			}
		}
	}
}

// callError attributes a failed step call to the source it targeted, so
// degraded executions can name the failing service in their
// incompleteness report.
type callError struct {
	Source  string
	Pattern access.Pattern
	Inputs  string
	Err     error
}

func (e *callError) Error() string {
	return fmt.Sprintf("engine: calling %s^%s(%s): %v", e.Source, e.Pattern, e.Inputs, e.Err)
}

func (e *callError) Unwrap() error { return e.Err }

// issue answers the step's distinct calls and records traffic into sp.
// It decides only the shape of the traffic; every call, whatever its
// size, goes through callWithRetry and runLeg.
//
// A batching source (a SQL or HTTP adapter, or a resilience stack over
// one) that is not hedged gets the step's whole deduplicated group in
// one call: one round trip, one budget unit per attempt. Budget
// exhaustion and caller cancellation of that call are terminal — the
// error lands on the first call, matching the sequential loop, where
// later calls stay unissued. Any other failure falls back to the shape
// every other source gets — groups of one through the bounded worker
// pool — so adapters degrade through exactly the failure classes plain
// sources produce.
//
// Groups of one are handed out in order by an atomic index that the
// issuing goroutine works through itself, beside at most workers−1
// helper goroutines it waits for before it returns.
//
// On failure every distinct error is reported (joined), and
// outstanding calls are cancelled. A call issue gave an outcome is
// marked answered; one it left unissued is not. The input vectors, the
// in-flight gauge, the index and the helpers' wait group are st's
// scratch.
func (x *execution) issue(ctx context.Context, src sources.Source, step access.AdornedLiteral, calls []*stepCall, sp *StepProfile, st *stepState) error {
	if len(calls) == 0 {
		return nil
	}
	name, p := step.Literal.Atom.Pred, step.Pattern
	gauge := &st.gauge
	gauge.cur.Store(0)
	gauge.max.Store(0)
	// One backing slice for the step: a group of one is all[i:i+1].
	all := grown(st.all, len(calls))
	for i, c := range calls {
		all[i] = c.inputs
	}
	st.all = all
	_, hedged := x.o.Hedge.target(src)
	whole := len(calls) > 1 && !hedged && src.Batches()
	if whole {
		groups, cs, err := x.callWithRetry(ctx, src, name, p, all, gauge)
		sp.Calls += cs.attempts
		if cs.rounds > 1 {
			sp.Retries += cs.rounds - 1
		}
		switch {
		case err == nil:
			sp.BatchGroups++
			sp.BatchedCalls += len(calls)
			for i, c := range calls {
				c.rows, c.answered = groups[i], true
			}
		case errors.Is(err, ErrCallBudget) || errors.Is(err, context.Canceled) || ctx.Err() != nil:
			calls[0].err, calls[0].answered = err, true
		default:
			whole = false
		}
	}
	switch workers := x.rt.workers(len(calls)); {
	case whole:
		// Answered, or terminally failed, by the one call above.
	case workers <= 1:
		for i, c := range calls {
			x.callOne(ctx, src, name, p, c, all[i:i+1], gauge)
			if c.err != nil {
				break // abort like the sequential loop; later calls stay unissued
			}
		}
	default:
		cctx, cancel := context.WithCancel(ctx)
		st.next.Store(0)
		work := func() {
			for {
				i := int(st.next.Add(1)) - 1
				if i >= len(calls) {
					return
				}
				c := calls[i]
				if cctx.Err() != nil {
					c.err = cctx.Err()
					continue
				}
				x.callOne(cctx, src, name, p, c, all[i:i+1], gauge)
				if c.err != nil {
					cancel() // fail fast: stop issuing, wake sleepers
				}
			}
		}
		helper := func() {
			defer st.helpers.Done()
			work()
		}
		st.helpers.Add(workers - 1)
		for w := 1; w < workers; w++ {
			go helper()
		}
		work()
		st.helpers.Wait()
		cancel()
	}
	var errs []error
	var cancelled error
	for _, c := range calls {
		sp.Calls += c.stats.attempts
		if c.stats.rounds > 1 {
			sp.Retries += c.stats.rounds - 1
		}
		sp.HedgedCalls += c.stats.hedges
		sp.HedgeWins += c.stats.hedgeWins
		sp.TuplesReturned += len(c.rows)
		if c.err == nil {
			continue
		}
		if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
			cancelled = c.err // secondary: either the real failure or the caller's ctx
			continue
		}
		errs = append(errs, c.failure(name, p))
	}
	if m := int(gauge.max.Load()); m > sp.MaxInFlight {
		sp.MaxInFlight = m
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	return cancelled
}

// callOne answers one distinct call of a step as a group of one.
func (x *execution) callOne(ctx context.Context, src sources.Source, name string, p access.Pattern, c *stepCall, in [][]string, gauge *inFlightGauge) {
	var groups [][]sources.Tuple
	groups, c.stats, c.err = x.callWithRetry(ctx, src, name, p, in, gauge)
	c.answered = true
	if c.err == nil {
		c.rows = groups[0]
	}
}
