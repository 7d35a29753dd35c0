package ucqn

// Facade over the extension subsystems that go beyond the paper's four
// figures: GAV view unfolding (the mediator front end of Section 6),
// semantic optimization with inclusion dependencies (Example 6), the
// call-minimizing plan order, the Chekuri–Rajaraman acyclic containment
// fast path (Section 5.1), and source-call caching.

import (
	"time"

	"repro/internal/constraints"
	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/parser"
	"repro/internal/program"
	"repro/internal/services"
	"repro/internal/sources"
)

// Views is a set of global-as-view definitions; queries over the global
// schema unfold into UCQ¬ plans over the sources.
type Views = mediator.Views

// NewViews returns an empty GAV view set. Register definitions with
// Add (each definition is a negation-free UCQ naming the global relation
// in its head) and rewrite client queries with Unfold.
func NewViews() *Views { return mediator.NewViews() }

// Program is a nonrecursive Datalog¬ program: multi-level IDB
// definitions over source relations, compiled per predicate into UCQ¬
// by repeated unfolding.
type Program = program.Program

// NewProgram returns an empty nonrecursive Datalog¬ program. Add rules
// (ParseRules accepts multi-head rule text), then Compile a predicate to
// a UCQ¬ over the sources.
func NewProgram() *Program { return program.New() }

// ParseRules parses rules that may define several head predicates (for
// Program input).
func ParseRules(src string) ([]Rule, error) { return parser.ParseRules(src) }

// IND is an inclusion dependency From[FromCols] ⊆ To[ToCols] (a foreign
// key when the columns are keys).
type IND = constraints.IND

// INDSet is a set of inclusion dependencies with the Example 6 semantic
// optimizer: Optimize drops rules that the dependencies refute.
type INDSet = constraints.Set

// ParseINDs reads dependencies in the form "R[1] < S[0]; T[0,1] < U[1,0]".
func ParseINDs(src string) (INDSet, error) { return constraints.Parse(src) }

// MustParseINDs is ParseINDs that panics on error.
func MustParseINDs(src string) INDSet { return constraints.MustParse(src) }

// FeasibleUnder decides feasibility modulo inclusion dependencies: rules
// whose chase is unsatisfiable are dropped (they are empty on every
// instance satisfying the dependencies), then FEASIBLE runs on the
// remainder. The Example 4 query is infeasible in general but feasible
// under Example 6's foreign key.
func FeasibleUnder(q Query, ps *PatternSet, inds INDSet) FeasibleResult {
	return constraints.FeasibleUnder(q, ps, inds)
}

// OptimizeOrder returns an executable reordering of the query chosen to
// reduce source traffic (filters first, bound-is-easier), and whether
// every rule was orderable. Reorder returns ANSWERABLE's discovery
// order instead; both are equivalent to the input.
func OptimizeOrder(q Query, ps *PatternSet) (Query, bool) {
	return core.OptimizeOrderUCQ(q, ps)
}

// PlanStats carries per-relation cardinality estimates for cost-based
// plan ordering.
type PlanStats = core.Stats

// StatsFromCardinalities builds PlanStats from table sizes, with a
// sqrt(n) distinct-values heuristic per column.
func StatsFromCardinalities(cards map[string]int) PlanStats {
	return core.StatsFromCardinalities(cards)
}

// CostOrder returns an executable order minimizing estimated source
// calls under the given statistics: exact (branch and bound) for small
// bodies, greedy beyond. ok is false when some rule is not orderable.
func CostOrder(q Query, ps *PatternSet, st PlanStats) (Query, bool) {
	return core.CostOrderUCQ(q, ps, st)
}

// AcyclicRule reports whether the hypergraph of the rule's positive
// literals is α-acyclic. Containment into negation-free acyclic rules
// is decided by a polynomial semijoin program (Chekuri & Rajaraman,
// ICDT 1997) instead of backtracking search.
func AcyclicRule(r Rule) bool { return containment.Acyclic(r) }

// Witness is a checkable certificate for a containment P ⊑ Q (the tree
// of Theorem 13): verify one with VerifyWitness.
type Witness = containment.Witness

// FeasibleExplanation is a FEASIBLE verdict with containment witnesses
// for the expensive path.
type FeasibleExplanation = core.Explanation

// ExplainFeasible is Feasible with auditable evidence: when the verdict
// came from the containment test, the explanation carries one witness
// per overestimate rule.
func ExplainFeasible(q Query, ps *PatternSet) FeasibleExplanation {
	return core.ExplainFeasible(q, ps)
}

// ExplainContained returns a checkable witness for p ⊑ q, or ok=false.
func ExplainContained(p Rule, q Query) (*Witness, bool) {
	return containment.NewChecker(q).Explain(p)
}

// VerifyWitness re-checks a containment witness for p ⊑ q.
func VerifyWitness(p Rule, q Query, w *Witness) error {
	return containment.NewChecker(q).Verify(p, w)
}

// ExecProfile is the execution profile of a plan: per-step source calls,
// tuples, and binding-set sizes.
type ExecProfile = engine.Profile

// StepProfile is one step of an ExecProfile.
type StepProfile = engine.StepProfile

// Operation describes a web service operation op: inputs → outputs over
// a relation's attributes (Section 1 of the paper).
type Operation = services.Operation

// OperationRegistry collects operation descriptions and derives the
// pattern set the planner consumes.
type OperationRegistry = services.Registry

// NewOperationRegistry returns an empty web-service operation registry.
func NewOperationRegistry() *OperationRegistry { return services.NewRegistry() }

// CachedSource wraps a source with a call cache; repeated identical
// calls are served locally.
type CachedSource = sources.Cached

// NewCachedSource wraps src with a cache.
func NewCachedSource(src Source) *CachedSource { return sources.NewCached(src) }

// CachedCatalog wraps every source of the catalog with a cache,
// returning the wrapped catalog and the cache handles.
func CachedCatalog(cat *Catalog) (*Catalog, []*CachedSource, error) {
	return sources.CachedCatalog(cat)
}

// Runtime is the source-call runtime behind Exec: it groups each step's
// bindings by input-slot key so every distinct call is issued once,
// drives distinct calls through a bounded worker pool, and retries
// transient failures. Construct one with NewRuntime (or
// SequentialRuntime for the historical per-binding loop), tune the
// exported fields before first use, and pass it with WithRuntime or
// call its context-taking Answer/AnswerParallel/RunAnswerStarWithPlans
// methods.
type Runtime = engine.Runtime

// RetryPolicy configures how a Runtime retries failed source calls.
type RetryPolicy = engine.RetryPolicy

// NewRuntime returns the production runtime configuration: call
// deduplication on, one worker per CPU, transient failures retried with
// exponential backoff.
func NewRuntime() *Runtime { return engine.NewRuntime() }

// SequentialRuntime returns a runtime that evaluates exactly like the
// historical per-binding loop: one call per binding, in order, no
// retries. Useful as a benchmark baseline.
func SequentialRuntime() *Runtime { return engine.SequentialRuntime() }

// DefaultRetryPolicy is the policy NewRuntime installs.
func DefaultRetryPolicy() RetryPolicy { return engine.DefaultRetryPolicy() }

// FlakySource injects transient failures in front of a source, for
// testing retry behavior and fault-tolerance of plans.
type FlakySource = sources.Flaky

// FlakyConfig schedules a FlakySource's injected failures.
type FlakyConfig = sources.FlakyConfig

// NewFlakySource wraps src with a fault injector.
func NewFlakySource(src Source, cfg FlakyConfig) *FlakySource {
	return sources.NewFlaky(src, cfg)
}

// DelayedSource wraps a source with a fixed per-call latency — the
// simulated network round trip that streaming pipelines overlap.
type DelayedSource = sources.Delayed

// NewDelayedSource wraps src so every call takes at least d.
func NewDelayedSource(src Source, d time.Duration) *DelayedSource {
	return sources.NewDelayed(src, d)
}

// DelayedCatalog wraps every source of the catalog with the same
// per-call latency.
func DelayedCatalog(cat *Catalog, d time.Duration) (*Catalog, error) {
	return sources.DelayedCatalog(cat, d)
}

// Transient marks an error as a transient source failure (retryable by
// the runtime's default policy).
func Transient(err error) error { return sources.Transient(err) }

// IsTransient reports whether any error in err's chain is transient.
func IsTransient(err error) bool { return sources.IsTransient(err) }

// StatsReporter is implemented by sources that meter their own traffic;
// wrappers like CachedSource and FlakySource forward it to the wrapped
// source, so Catalog.TotalStats reports real remote traffic even on
// wrapped catalogs.
type StatsReporter = sources.StatsReporter

// SeededJitter returns a deterministic jitter hook for RetryPolicy: it
// maps each backoff delay d to a pseudorandom duration in [d/2, d]
// ("equal jitter"), drawn from a stream seeded with seed. Retrying
// callers desynchronize (no thundering herd after a shared failure)
// while tests stay reproducible under a fixed seed.
func SeededJitter(seed int64) func(time.Duration) time.Duration {
	return engine.SeededJitter(seed)
}

// Breaker is a per-source circuit breaker: after enough failures in its
// sliding window it opens and fails calls fast with ErrBreakerOpen
// (without touching the source), then after a cooldown admits a single
// probe to decide whether to close again. Wrap unreliable sources with
// NewBreaker or a whole catalog with BreakerCatalog.
type Breaker = sources.Breaker

// BreakerConfig tunes a Breaker's window, threshold, and cooldown.
type BreakerConfig = sources.BreakerConfig

// BreakerState is a Breaker's state: closed, open, or half-open.
type BreakerState = sources.BreakerState

// Breaker states.
const (
	BreakerClosed   = sources.BreakerClosed
	BreakerOpen     = sources.BreakerOpen
	BreakerHalfOpen = sources.BreakerHalfOpen
)

// ErrBreakerOpen is the terminal (non-transient) error a Breaker returns
// while open: retrying immediately cannot help.
var ErrBreakerOpen = sources.ErrBreakerOpen

// NewBreaker wraps src with a circuit breaker.
func NewBreaker(src Source, cfg BreakerConfig) *Breaker {
	return sources.NewBreaker(src, cfg)
}

// BreakerCatalog wraps every source of the catalog with its own circuit
// breaker, returning the wrapped catalog and the breaker handles indexed
// like cat.Names().
func BreakerCatalog(cat *Catalog, cfg BreakerConfig) (*Catalog, []*Breaker, error) {
	return sources.BreakerCatalog(cat, cfg)
}

// Budget caps what one query execution may spend on source calls; set
// it on a Runtime. ErrCallBudget failures are terminal.
type Budget = engine.Budget

// ErrCallBudget is returned (wrapped) when an execution exhausts its
// Runtime's per-query call or time budget.
var ErrCallBudget = engine.ErrCallBudget

// Incompleteness is the degradation report of a partial-results
// execution (Exec with WithPartialResults): which disjuncts were
// dropped, which sources failed them, and the disjunct-level
// completeness ratio.
type Incompleteness = engine.Incompleteness

// RuleFailure is one dropped disjunct of an Incompleteness report.
type RuleFailure = engine.RuleFailure

// FailureClass classifies why a disjunct was dropped.
type FailureClass = engine.FailureClass

// Failure classes.
const (
	FailBreaker   = engine.FailBreaker
	FailBudget    = engine.FailBudget
	FailTransient = engine.FailTransient
	FailTerminal  = engine.FailTerminal
)

// ClassifyFailure maps a rule-evaluation error to its failure class.
func ClassifyFailure(err error) FailureClass { return engine.ClassifyFailure(err) }

// FailReplicas is the failure class of a rule dropped because every
// replica of a replicated source failed (see ErrReplicasExhausted).
const FailReplicas = engine.FailReplicas

// ReplicaSet fronts N replicas of one relation behind the single-source
// interface: calls route to the healthiest replica (EWMA latency,
// sliding-window failure rate), fail over on error, and quarantine
// persistently failing replicas behind per-replica circuit breakers.
// Build one with NewReplicaSet, or replicate a whole catalog with
// ReplicaCatalog.
type ReplicaSet = sources.ReplicaSet

// ReplicaConfig tunes a ReplicaSet: per-replica breaker settings, the
// routing policy, and the health-tracking window.
type ReplicaConfig = sources.ReplicaConfig

// ReplicaStats is one replica's health and traffic breakdown.
type ReplicaStats = sources.ReplicaStats

// ReplicaHealth is the health snapshot a RoutingPolicy ranks by.
type ReplicaHealth = sources.ReplicaHealth

// RoutingPolicy orders a ReplicaSet's replicas for each call.
type RoutingPolicy = sources.RoutingPolicy

// HealthiestFirst routes to the replica with the best latency/failure
// score, rotating among statistically indistinguishable ones. It is the
// default policy.
type HealthiestFirst = sources.HealthiestFirst

// RoundRobin rotates through healthy replicas in declaration order.
type RoundRobin = sources.RoundRobin

// ReplicasError reports that every replica of a set failed; it unwraps
// to the member failures and matches ErrReplicasExhausted.
type ReplicasError = sources.ReplicasError

// ErrReplicasExhausted is matched (errors.Is) by failures where every
// replica of a replicated source failed. A rule backed by replicas
// degrades only on this condition.
var ErrReplicasExhausted = sources.ErrReplicasExhausted

// NewReplicaSet fronts the given replicas of one relation. All replicas
// must agree on name, arity, and patterns.
func NewReplicaSet(cfg ReplicaConfig, replicas ...Source) (*ReplicaSet, error) {
	return sources.NewReplicaSet(cfg, replicas...)
}

// ReplicaCatalog zips same-schema catalogs into one catalog of replica
// sets: source i of the result fronts source i of every input catalog.
// The returned replica sets are indexed like cat.Names().
func ReplicaCatalog(cfg ReplicaConfig, cats ...*Catalog) (*Catalog, []*ReplicaSet, error) {
	return sources.ReplicaCatalog(cfg, cats...)
}

// HedgePolicy configures hedged requests on a Runtime (or via
// WithHedging): after a delay — fixed, or derived from the replica
// set's observed latency quantile — a backup attempt launches on the
// next-healthiest replica; the first success wins and the loser is
// cancelled. The zero value disables hedging.
type HedgePolicy = engine.HedgePolicy

// ReplicaSetProfile is the per-replica breakdown of one replicated
// source in an ExecProfile.
type ReplicaSetProfile = engine.ReplicaSetProfile

// VirtualClock is a manually advanced clock for deterministic tests of
// time-dependent wrappers (DelayedSource, Breaker, ReplicaSet): inject
// its Now/Sleep methods and call Advance to move time.
type VirtualClock = sources.VirtualClock

// NewVirtualClock returns a virtual clock reading start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return sources.NewVirtualClock(start)
}
