package engine

// The completeness report of an execution. ANSWER* (Figure 4 of the
// paper) returns one result: the certain rows ansᵤ, the overestimate
// ansₒ, their difference Δ, and whether the answer is complete.
// Partial-results mode extends that contract to *runtime* failure: when
// a rule's evaluation dies terminally — circuit breaker open, per-query
// budget exhausted, a non-transient source error — the engine drops that
// disjunct, keeps the rest, and reports what was dropped. The surviving
// rules' tuples are exactly ANSWER(Q \ failed rules, D): every reported
// tuple is a certain answer (each disjunct's answers are answers of the
// union), i.e. a certified underestimate in the sense of ansᵤ; the Δ of
// the failed disjuncts is unknown because they were never evaluated, so
// the report carries the disjunct-level ratio instead of the paper's
// tuple-level one. Both are one Report, built by the execution.

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/sources"
)

// FailureClass says why a disjunct was dropped in partial-results mode.
type FailureClass string

const (
	// FailReplicas: every replica of a replicated source failed — the
	// whole replica set is exhausted (sources.ErrReplicasExhausted). A
	// rule backed by replicas degrades only on this class; any single
	// surviving replica keeps it complete.
	FailReplicas FailureClass = "replicas-exhausted"
	// FailBreaker: a circuit breaker was open — the source is known dead
	// and the call failed fast (sources.ErrBreakerOpen).
	FailBreaker FailureClass = "breaker-open"
	// FailBudget: the per-query call/time budget was exhausted
	// (ErrCallBudget).
	FailBudget FailureClass = "budget-exhausted"
	// FailTransient: a transient failure survived every retry the policy
	// allowed (including per-call deadline expiries).
	FailTransient FailureClass = "retries-exhausted"
	// FailTerminal: a non-retryable failure — contract violation,
	// unsafe plan, source panic.
	FailTerminal FailureClass = "terminal"
	// FailAccessLimited: no order of the disjunct is executable, so the
	// plan ran its overestimate Qᵢᵒ without the literals it dismissed
	// (RuleFailure.Step), and some of its rows are in Δ: they may or may
	// not be answers. It is the compile-time incompleteness of ANSWER*,
	// not a runtime failure, and it never uncertifies the overestimate.
	FailAccessLimited FailureClass = "access-limited"
)

// ClassifyFailure maps a rule-evaluation error to its failure class.
// Errors joined from several calls classify by the most specific member
// (replica exhaustion, then breaker, then budget, then transient).
// Replica exhaustion is checked first: a ReplicasError unwraps to its
// member failures, so a set that died of quarantined replicas would
// otherwise classify as a single breaker failure.
func ClassifyFailure(err error) FailureClass {
	switch {
	case errors.Is(err, sources.ErrReplicasExhausted):
		return FailReplicas
	case errors.Is(err, sources.ErrBreakerOpen):
		return FailBreaker
	case errors.Is(err, ErrCallBudget):
		return FailBudget
	case sources.IsTransient(err):
		return FailTransient
	default:
		return FailTerminal
	}
}

// RuleFailure is one dropped disjunct: which rule, which source and
// step killed it, and why.
type RuleFailure struct {
	// RuleIndex is the rule's position in the executed union.
	RuleIndex int
	// Rule is the dropped disjunct.
	Rule logic.CQ
	// Source names the relation whose call failed, when the failure is
	// attributable to one ("" otherwise, e.g. an unsafe head).
	Source string
	// Step renders the failing adorned step, when attributable.
	Step string
	// Replicas lists the replica labels of the exhausted replica set,
	// when the failure is a replica exhaustion (nil otherwise).
	Replicas []string
	// Class is the failure classification.
	Class FailureClass
	// Err is the underlying error.
	Err error
}

// String renders one failure line.
func (f RuleFailure) String() string {
	at := f.Step
	if at == "" {
		at = "?"
	}
	return fmt.Sprintf("rule %d (%s) failed at %s: %s: %v", f.RuleIndex+1, f.Rule, at, f.Class, f.Err)
}

// Report is the completeness report of one execution. The driver
// counts the rules and records each one a runtime failure dropped; at the
// end of the run StarSink.Fill fills in the estimates.
type Report struct {
	// Under is ansᵤ = ANSWER(Qᵘ, D): tuples guaranteed to be answers.
	// Under and Over are nil — not kept, which is not empty — on the
	// report of a stream of a plan that dismissed no rule, read with Next
	// rather than Drain: the stream keeps no copy of the answer it
	// delivered.
	Under *Rel
	// Over is ansₒ = ANSWER(Qᵒ, D): every answer is subsumed by some
	// overestimate tuple (null means "unknown value", Example 7).
	Over *Rel
	// Delta is Δ = ansₒ \ ansᵤ, the tuples that may be answers. It is
	// nil — the empty relation to every read-only Rel method — when the
	// plan dismissed no rule.
	Delta *Rel
	// Certified is false iff partial-results mode dropped a rule at
	// runtime: Under is then still a sound underestimate (the rows of the
	// surviving rules of Qᵘ), but Over and Δ lack the dropped rule's rows
	// and bound nothing, so Complete and RatioValid are false.
	Certified bool
	// Ratio is the completeness lower bound |ansᵤ|/|ansₒ|, valid only
	// when RatioValid (certified, Δ nonempty and free of nulls; Example 7
	// explains why nulls forbid a numeric bound).
	Ratio      float64
	RatioValid bool
	// Failed lists the rules that are not part of the answer in full, in
	// rule order: each rule a runtime failure dropped (partial-results
	// mode, with the failing source, step and class) or else, on a
	// certified report, each rule the plan dismissed whose rows reached Δ
	// (FailAccessLimited).
	Failed []RuleFailure
	// RulesTotal counts the executable disjuncts of the union;
	// RulesSurvived those not in Failed.
	RulesTotal, RulesSurvived int
}

// Complete reports a certified, empty Δ: the answer is the exact
// ANSWER(Q, D), even if the query is infeasible (Example 5).
func (r Report) Complete() bool { return r.Certified && r.Delta.Len() == 0 }

// Degraded reports that a runtime failure dropped a rule: the answer is
// a sound underestimate and the overestimate is not certified. A query
// the access patterns cannot answer in full is incomplete without being
// degraded.
func (r Report) Degraded() bool { return !r.Certified }

// RuleRatio is the fraction of disjuncts that evaluated fully; ok is
// false for an empty union. 1.0 means complete.
func (r Report) RuleRatio() (float64, bool) {
	if r.RulesTotal == 0 {
		return 0, false
	}
	return float64(r.RulesSurvived) / float64(r.RulesTotal), true
}

// FailedSources returns the distinct sources named by the failures, in
// first-failure order.
func (r Report) FailedSources() []string {
	var out []string
	seen := map[string]bool{}
	for _, f := range r.Failed {
		if f.Source == "" || seen[f.Source] {
			continue
		}
		seen[f.Source] = true
		out = append(out, f.Source)
	}
	return out
}

// String renders the report in the shape of Figure 4. The lines naming
// the dropped disjuncts follow only when a runtime failure dropped one;
// the answer tuples are listed only when Under was kept.
func (r Report) String() string {
	var b strings.Builder
	if r.Under == nil {
		b.WriteString("answer tuples (underestimate): rows not kept\n")
	} else {
		fmt.Fprintf(&b, "answer tuples (underestimate, %d):\n", r.Under.Len())
	}
	for _, row := range r.Under.Sorted() {
		fmt.Fprintf(&b, "  %s\n", row)
	}
	switch {
	case r.Complete():
		b.WriteString("answer is complete\n")
	case !r.Certified:
		b.WriteString("answer is not known to be complete\n")
		b.WriteString("the overestimate is not certified: a disjunct failed and was dropped\n")
	default:
		b.WriteString("answer is not known to be complete\n")
		b.WriteString("these tuples may be part of the answer:\n")
		for _, row := range r.Delta.Sorted() {
			fmt.Fprintf(&b, "  %s\n", row)
		}
		if r.RatioValid {
			fmt.Fprintf(&b, "answer is at least %.2f complete\n", r.Ratio)
		}
	}
	if r.Degraded() {
		b.WriteString("these disjuncts could not be evaluated:\n")
		for _, f := range r.Failed {
			fmt.Fprintf(&b, "  %s\n", f)
		}
		if srcs := r.FailedSources(); len(srcs) > 0 {
			fmt.Fprintf(&b, "failed sources: %s\n", strings.Join(srcs, ", "))
		}
		if ratio, ok := r.RuleRatio(); ok {
			fmt.Fprintf(&b, "at least %d of %d disjuncts (%.2f) answered in full\n", r.RulesSurvived, r.RulesTotal, ratio)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// record appends a failure for rule i, attributing source and step when
// the error chain carries a callError.
func (r *Report) record(i int, rule logic.CQ, err error) {
	f := RuleFailure{RuleIndex: i, Rule: rule.Clone(), Class: ClassifyFailure(err), Err: err}
	var ce *callError
	if errors.As(err, &ce) {
		f.Source = ce.Source
		f.Step = fmt.Sprintf("%s^%s", ce.Source, ce.Pattern)
	}
	var re *sources.ReplicasError
	if errors.As(err, &re) {
		if f.Source == "" {
			f.Source = re.Source
		}
		f.Replicas = append([]string(nil), re.Tried...)
	}
	r.Failed = append(r.Failed, f)
}

// accessLimited records dismissed rule i, whose rows reached Δ: it is no
// certain part of the answer.
func (r *Report) accessLimited(i int, ra *core.RuleAnalysis) {
	lits := make([]string, len(ra.Unanswerable))
	for j, l := range ra.Unanswerable {
		lits[j] = l.String()
	}
	step := strings.Join(lits, ", ")
	r.Failed = append(r.Failed, RuleFailure{RuleIndex: i, Rule: ra.Rule, Step: step, Class: FailAccessLimited,
		Err: fmt.Errorf("engine: no access pattern answers %s", step)})
	r.RulesSurvived--
}

// degradable reports whether a rule failure may be absorbed in
// partial-results mode: the caller's context must still be live (its
// cancellation always aborts the execution) and the failure must not be
// a cancellation. Planning errors never get here: they fail core.NewPlan
// before an execution exists.
func degradable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}
