package engine

// The source-call runtime. The paper's cost model is source traffic —
// calls made through limited access patterns — and its setting is remote
// web services (Section 1), so the engine treats each plan step as a
// batch of service calls: bindings are grouped by their input-slot key
// (each distinct call issued exactly once), distinct calls go through a
// bounded worker pool, transient failures are retried with exponential
// backoff, and everything honors context cancellation. Answer sets are
// byte-identical to sequential per-binding evaluation: results are
// fanned back out to the bindings in their original order.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
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
// A Runtime is safe for concurrent use and may be shared across queries;
// the per-source limit is enforced across everything in flight on it.
type Runtime struct {
	// Concurrency bounds the worker pool issuing a step's distinct
	// calls. 0 means GOMAXPROCS; 1 means sequential.
	Concurrency int
	// PerSource caps the calls in flight against any one source across
	// all concurrent rules and steps (0 = no cap) — remote services
	// rate-limit per endpoint, not per client goroutine.
	PerSource int
	// Dedup groups a step's bindings by input-slot key so each distinct
	// (pattern, inputs) call is issued exactly once per step: it is the
	// call memo's switch and nothing else. The evaluator's deduplication
	// of bindings on their live variables is not an option — it never
	// changes the distinct calls, only how many bindings ask for each —
	// so with Dedup off a step still calls once per binding it is handed.
	Dedup bool
	// Retry is the per-call retry policy.
	Retry RetryPolicy
	// BatchSize is the number of bindings per batch flowing between the
	// stages of a streamed pipeline (Stream/StreamParallel). Smaller
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
	// Budget caps the source traffic of one execution (one Eval, Stream,
	// or facade Exec). The zero value means unlimited.
	Budget Budget
	// Hedge enables hedged requests against replicated sources: after
	// the configured delay a backup attempt is launched on the
	// next-healthiest replica, and the first success wins (see
	// HedgePolicy). Sources that are not replica sets are unaffected.
	// The zero value disables hedging.
	Hedge HedgePolicy

	mu   sync.Mutex
	sems map[string]chan struct{}
}

// Clone returns a runtime with the same configuration and fresh
// internal limiter state. The facade uses it to derive a per-execution
// variant (e.g. enabling hedging) without mutating a shared runtime.
func (rt *Runtime) Clone() *Runtime {
	return &Runtime{
		Concurrency: rt.Concurrency,
		PerSource:   rt.PerSource,
		Dedup:       rt.Dedup,
		Retry:       rt.Retry,
		BatchSize:   rt.BatchSize,
		StageBuffer: rt.StageBuffer,
		CallTimeout: rt.CallTimeout,
		Budget:      rt.Budget,
		Hedge:       rt.Hedge,
	}
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
	// MaxTime is the execution's wall-clock allowance, checked before
	// each attempt (attempts already in flight finish, bounded by
	// CallTimeout when set); 0 means unlimited.
	MaxTime time.Duration
}

func (b Budget) active() bool { return b.MaxCalls != 0 || b.MaxTime > 0 }

// ErrCallBudget marks source calls rejected because the per-query
// budget (Runtime.Budget) was exhausted. Like a breaker rejection it is
// terminal, never retried.
var ErrCallBudget = errors.New("engine: per-query call budget exhausted")

// budgetState is one execution's budget accounting, shared by all of
// its workers.
type budgetState struct {
	limit    int64 // 0 = unlimited
	deadline time.Time
	spent    atomic.Int64
}

// newBudget starts the per-execution budget clock for this runtime's
// configured Budget.
func (rt *Runtime) newBudget() *budgetState {
	b := &budgetState{limit: int64(rt.Budget.MaxCalls)}
	if rt.Budget.MaxTime > 0 {
		b.deadline = time.Now().Add(rt.Budget.MaxTime)
	}
	return b
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
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		return fmt.Errorf("%w: time budget spent after %d calls", ErrCallBudget, b.spent.Load())
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

// defaultRuntime backs the package-level Answer/AnswerProfiled/... ; it
// is shared, which is safe (the only state is the per-source limiter).
var defaultRuntime = NewRuntime()

// DefaultRuntime returns the shared runtime behind the package-level
// Answer/AnswerParallel/RunAnswerStar entry points, so facades can route
// their default path through the exact same per-source limiter state.
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
func (rt *Runtime) callWithRetry(ctx context.Context, src sources.Source, name string, p access.Pattern, inputs [][]string, gauge *inFlightGauge, budget *budgetState) (groups [][]sources.Tuple, cs callStats, err error) {
	sem := rt.sourceSem(name)
	max := rt.Retry.attempts()
	rsrc, hedged := rt.hedgeTarget(src)
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
			groups, err = rt.hedgedRound(ctx, rsrc, name, p, inputs, gauge, budget, &cs)
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

// stepCall is one distinct (pattern, inputs) call of a step, shared by
// every binding whose input slots produced it.
type stepCall struct {
	inputs []string
	rows   []sources.Tuple
	stats  callStats
	err    error
	// join is the call's hash-join side (tuples interned, filtered,
	// grouped by bound-position key), built once per call and carried
	// across batches by a staged step's stepState.
	join *callJoin
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
// On failure every distinct error is reported (joined), and
// outstanding calls are cancelled.
func (rt *Runtime) issue(ctx context.Context, src sources.Source, step access.AdornedLiteral, calls []*stepCall, sp *StepProfile, budget *budgetState) error {
	if len(calls) == 0 {
		return nil
	}
	name, p := step.Literal.Atom.Pred, step.Pattern
	var gauge inFlightGauge
	// One backing slice for the step: a group of one is all[i:i+1].
	all := make([][]string, len(calls))
	for i, c := range calls {
		all[i] = c.inputs
	}
	_, hedged := rt.hedgeTarget(src)
	whole := len(calls) > 1 && !hedged && src.Batches()
	if whole {
		groups, cs, err := rt.callWithRetry(ctx, src, name, p, all, &gauge, budget)
		sp.Calls += cs.attempts
		if cs.rounds > 1 {
			sp.Retries += cs.rounds - 1
		}
		switch {
		case err == nil:
			sp.BatchGroups++
			sp.BatchedCalls += len(calls)
			for i, c := range calls {
				c.rows = groups[i]
			}
		case errors.Is(err, ErrCallBudget) || errors.Is(err, context.Canceled) || ctx.Err() != nil:
			calls[0].err = err
		default:
			whole = false
		}
	}
	switch workers := rt.workers(len(calls)); {
	case whole:
		// Answered, or terminally failed, by the one call above.
	case workers <= 1:
		for i, c := range calls {
			rt.callOne(ctx, src, name, p, c, all[i:i+1], &gauge, budget)
			if c.err != nil {
				break // abort like the sequential loop; later calls stay unissued
			}
		}
	default:
		cctx, cancel := context.WithCancel(ctx)
		feed := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range feed {
					c := calls[i]
					if cctx.Err() != nil {
						c.err = cctx.Err()
						continue
					}
					rt.callOne(cctx, src, name, p, c, all[i:i+1], &gauge, budget)
					if c.err != nil {
						cancel() // fail fast: stop issuing, wake sleepers
					}
				}
			}()
		}
		for i := range calls {
			feed <- i
		}
		close(feed)
		wg.Wait()
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
		errs = append(errs, &callError{Source: name, Pattern: p, Inputs: strings.Join(c.inputs, ","), Err: c.err})
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
func (rt *Runtime) callOne(ctx context.Context, src sources.Source, name string, p access.Pattern, c *stepCall, in [][]string, gauge *inFlightGauge, budget *budgetState) {
	var groups [][]sources.Tuple
	groups, c.stats, c.err = rt.callWithRetry(ctx, src, name, p, in, gauge, budget)
	if c.err == nil {
		c.rows = groups[0]
	}
}
