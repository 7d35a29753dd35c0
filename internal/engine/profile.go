package engine

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/access"
	"repro/internal/logic"
)

// StepProfile is the traffic accounting of one plan step (one adorned
// literal): how many source calls it issued, how many tuples came back,
// and how the binding set changed. It is the per-operator half of an
// EXPLAIN ANALYZE for limited-access plans.
type StepProfile struct {
	// Step is the plan's adorned literal. It shares its terms with the
	// executed core.Plan, which a query cache hands to every execution:
	// read it, never write it.
	Step access.AdornedLiteral
	// Calls counts the call attempts issued to the source, including
	// retried attempts; with healthy sources it equals the catalog's
	// meter delta for the step.
	Calls          int
	TuplesReturned int
	// BindingsIn and BindingsOut count the bindings the step was handed
	// and sent on, over the variables a later literal or the head still
	// reads. They are distinct live bindings, not bag cardinalities: a
	// step that is the last reader of a variable, or binds one nothing
	// reads, sends each distinct remaining binding on once.
	BindingsIn  int
	BindingsOut int
	// DedupedCalls counts bindings served by a call the step did not
	// issue for them: another binding of the step asked it, or an earlier
	// step or another rule did (the execution's call table), so no extra
	// source call was issued. It counts the bindings that reached the
	// step (BindingsIn), so it falls with them; the distinct calls do
	// not.
	DedupedCalls int
	// Retries counts retry rounds beyond the first per call (transient
	// failures that the retry policy absorbed). A hedged race across
	// replicas is one round however many legs it launched.
	Retries int
	// HedgedCalls counts backup attempts the hedge timer launched
	// against replicated sources; each is also included in Calls.
	HedgedCalls int
	// HedgeWins counts calls whose winning rows came from a hedged
	// backup attempt rather than the primary.
	HedgeWins int
	// BatchGroups counts the binding groups this step serviced through a
	// batch-capable source as batched round trips (each group is one
	// wire call per attempt, counted once in Calls).
	BatchGroups int
	// BatchedCalls counts the distinct logical calls covered by those
	// groups — calls that did NOT each pay a wire round trip.
	BatchedCalls int
	// MaxInFlight is the peak number of concurrent calls the step had
	// outstanding against the source.
	MaxInFlight int
	// Elapsed is the wall-clock time spent in this step: issuing its
	// source calls and joining the results. In a streamed pipeline it is
	// the stage's busy time summed over batches (stages overlap, so step
	// times may sum to more than the rule's Elapsed).
	Elapsed time.Duration
	// SourceWait is the part of Elapsed spent waiting for the step's
	// source calls (worker pool, retries, hedges and backoff included);
	// Elapsed − SourceWait is the evaluator's own join CPU.
	SourceWait time.Duration
}

// String renders one profile line.
func (sp StepProfile) String() string {
	s := fmt.Sprintf("%-36s calls=%-5d dedup=%-5d tuples=%-6d bindings %d→%d",
		sp.Step.String(), sp.Calls, sp.DedupedCalls, sp.TuplesReturned, sp.BindingsIn, sp.BindingsOut)
	if sp.Retries > 0 {
		s += fmt.Sprintf(" retries=%d", sp.Retries)
	}
	if sp.HedgedCalls > 0 {
		s += fmt.Sprintf(" hedged=%d(won %d)", sp.HedgedCalls, sp.HedgeWins)
	}
	if sp.BatchGroups > 0 {
		s += fmt.Sprintf(" batched=%d/%d", sp.BatchedCalls, sp.BatchGroups)
	}
	if sp.MaxInFlight > 1 {
		s += fmt.Sprintf(" inflight≤%d", sp.MaxInFlight)
	}
	if sp.Elapsed > 0 {
		s += fmt.Sprintf(" t=%s wait=%s", sp.Elapsed.Round(time.Microsecond), sp.SourceWait.Round(time.Microsecond))
	}
	return s
}

// RuleProfile is the execution profile of one rule.
type RuleProfile struct {
	// Rule is the rule as it ran, shared with the plan and its compiled
	// program: read-only.
	Rule    logic.CQ
	Steps   []StepProfile
	Answers int // new answer tuples this rule contributed
	// Elapsed is the rule's wall-clock execution time, first step start
	// to last answer.
	Elapsed time.Duration
	// PeakBindings is the high-water mark of bindings resident for this
	// rule: input+output set of the widest step when materializing, the
	// observed live-batch gauge when streaming — distinct live bindings,
	// as BindingsIn/BindingsOut count them.
	PeakBindings int
}

// CallsProfile groups an execution's aggregated source-call traffic.
// The per-step counters in Rules are the ground truth; these totals are
// derived from them when the execution finishes (finalize), except
// BudgetSpent, which the budget meter fills directly.
type CallsProfile struct {
	// Total is the number of call attempts issued, retries and hedged
	// legs included (the sum of StepProfile.Calls).
	Total int
	// Deduped counts bindings served by a call asked before
	// (StepProfile.DedupedCalls).
	Deduped int
	// Retries counts retry rounds beyond the first per call.
	Retries int
	// Hedged counts timer-launched backup attempts; each is also in
	// Total.
	Hedged int
	// HedgeWins counts calls whose winning rows came from a backup leg.
	HedgeWins int
	// BatchGroups counts the binding groups serviced as batched round
	// trips through batch-capable sources (adapters); each group is one
	// wire call per attempt.
	BatchGroups int
	// BatchedCalls counts the logical calls covered by those groups.
	BatchedCalls int
	// MaxInFlight is the peak per-step call concurrency seen anywhere in
	// the plan.
	MaxInFlight int
	// BudgetSpent is the number of call attempts charged against the
	// runtime's per-query budget (0 when no budget is active).
	BudgetSpent int
}

// CacheProfile groups the semantic query cache's contribution to an
// execution.
type CacheProfile struct {
	// PlanHits counts plan-cache hits (0 or 1 per Exec; an int so
	// profiles can be summed across requests).
	PlanHits int
	// AnswerHits counts full answer-cache hits: the whole result was
	// served from cached rows with no live evaluation.
	AnswerHits int
	// PartialReuseRules counts the disjuncts whose rows were reused from
	// the answer cache while the remaining disjuncts ran live.
	PartialReuseRules int
	// Evictions counts query-cache entries (plans or answers) evicted
	// while serving this execution.
	Evictions int
}

// BatchProfile groups the columnar evaluator's batch accounting.
type BatchProfile struct {
	// BatchesProcessed counts the binding batches run through step
	// application (materialized evaluation processes one batch per
	// step; streamed pipelines many smaller ones).
	BatchesProcessed int
	// InternedValues counts source-tuple values first interned during
	// this execution (steady-state workloads re-see their working set,
	// so this trends to zero).
	InternedValues int
	// ArenaReuses counts column buffers served from the execution's
	// recycling pool instead of fresh allocations.
	ArenaReuses int
	// HeldAnswers counts the calls whose join side came from the
	// catalog's held table: a long answer's interned columns and join,
	// built once per catalog state and step shape and reused by every
	// execution that pins the state and receives the same answer
	// (held.go).
	HeldAnswers int
	// InternerEntries and InternerBytes are the occupancy (entry count
	// and approximate resident bytes) of the interner the execution
	// pinned — its catalog's, as of the execution's start — snapshotted
	// when the execution finished: gauges of the catalog state, not
	// per-execution deltas.
	InternerEntries int
	InternerBytes   int64
}

// Profile is the execution profile of a whole plan. Counter groups:
// Calls (source traffic), Cache (semantic query cache), Batch (columnar
// evaluator). It counts what this execution did: lifetime counters stay
// with their owners (the query cache's Stats, a replica set's
// ReplicaStats). What a partial-results run dropped is in its Report.
type Profile struct {
	Rules []RuleProfile
	// Elapsed is the whole plan's wall-clock time.
	Elapsed time.Duration
	// TimeToFirst is the delay from execution start to the first head
	// tuple reaching the caller. Only streamed runs fill it; a
	// materializing run delivers nothing before Elapsed.
	TimeToFirst time.Duration

	// Calls is the aggregated source-call traffic.
	Calls CallsProfile
	// Cache is the semantic query cache's contribution.
	Cache CacheProfile
	// Batch is the columnar evaluator's batch accounting.
	Batch BatchProfile
}

// finalize sums the per-step counters into Calls in one pass
// (BudgetSpent is set by the budget meter and preserved). The driver
// calls it once the Rules slice is complete.
func (p *Profile) finalize() {
	c := &p.Calls
	for _, r := range p.Rules {
		for _, s := range r.Steps {
			c.Total += s.Calls
			c.Deduped += s.DedupedCalls
			c.Retries += s.Retries
			c.Hedged += s.HedgedCalls
			c.HedgeWins += s.HedgeWins
			c.MaxInFlight = max(c.MaxInFlight, s.MaxInFlight)
			c.BatchGroups += s.BatchGroups
			c.BatchedCalls += s.BatchedCalls
		}
	}
}

// TotalTuples sums tuples returned across all rules.
func (p Profile) TotalTuples() int {
	n := 0
	for _, r := range p.Rules {
		for _, s := range r.Steps {
			n += s.TuplesReturned
		}
	}
	return n
}

// PeakBindings is the largest per-rule binding residency seen in the
// plan (see RuleProfile.PeakBindings).
func (p Profile) PeakBindings() int {
	m := 0
	for _, r := range p.Rules {
		if r.PeakBindings > m {
			m = r.PeakBindings
		}
	}
	return m
}

// String renders the profile, one rule block per rule.
func (p Profile) String() string {
	var b strings.Builder
	for i, r := range p.Rules {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "rule %d: %s   (%d answers", i+1, r.Rule, r.Answers)
		if r.Elapsed > 0 {
			fmt.Fprintf(&b, ", %s", r.Elapsed.Round(time.Microsecond))
		}
		b.WriteString(")\n")
		for _, s := range r.Steps {
			fmt.Fprintf(&b, "  %s\n", s)
		}
	}
	if p.TimeToFirst > 0 {
		fmt.Fprintf(&b, "first tuple after %s\n", p.TimeToFirst.Round(time.Microsecond))
	}
	if p.Calls.BudgetSpent > 0 {
		fmt.Fprintf(&b, "budget spent: %d call(s)\n", p.Calls.BudgetSpent)
	}
	if c := p.Cache; c.PlanHits > 0 || c.AnswerHits > 0 || c.PartialReuseRules > 0 || c.Evictions > 0 {
		fmt.Fprintf(&b, "cache: plan hits=%d answer hits=%d reused rules=%d evictions=%d\n",
			c.PlanHits, c.AnswerHits, c.PartialReuseRules, c.Evictions)
	}
	if p.Batch.BatchesProcessed > 0 {
		fmt.Fprintf(&b, "batches: %d processed, %d values interned, %d buffers reused, %d held answers\n",
			p.Batch.BatchesProcessed, p.Batch.InternedValues, p.Batch.ArenaReuses, p.Batch.HeldAnswers)
	}
	if p.Calls.BatchGroups > 0 {
		fmt.Fprintf(&b, "pushdown: %d call(s) batched into %d round-trip group(s)\n",
			p.Calls.BatchedCalls, p.Calls.BatchGroups)
	}
	if c := p.Calls; c.Hedged > 0 {
		fmt.Fprintf(&b, "hedged: %d backup call(s), %d won\n", c.Hedged, c.HedgeWins)
	}
	if p.Elapsed > 0 {
		fmt.Fprintf(&b, "total %s\n", p.Elapsed.Round(time.Microsecond))
	}
	return strings.TrimRight(b.String(), "\n")
}
