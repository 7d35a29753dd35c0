package engine

// Graceful degradation. ANSWER* (Figure 4 of the paper) already accepts
// that the full answer may be unobtainable at compile time and returns a
// certified underestimate plus completeness information instead of
// nothing. Partial-results mode extends the same contract to *runtime*
// failure: when a rule's evaluation dies terminally — circuit breaker
// open, per-query budget exhausted, a non-transient source error — the
// engine drops that disjunct, keeps the rest, and reports what was
// dropped. The surviving rules' tuples are exactly
// ANSWER(Q \ failed rules, D): every reported tuple is a certain answer
// (each disjunct's answers are answers of the union), i.e. a certified
// underestimate in the sense of ansᵤ; the Δ of the failed disjuncts is
// unknown because they were never evaluated, so the report carries the
// disjunct-level ratio instead of the paper's tuple-level one.

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

// Incompleteness is the completeness report of a degraded execution,
// shaped after the AnswerStar report: the answers returned are the
// certified underestimate (surviving disjuncts only), Failed lists the
// disjuncts that could not be evaluated, and RuleRatio is the
// disjunct-level completeness lower bound standing in for Figure 4's
// |ansᵤ|/|ansₒ| (Δ over the failed disjuncts is unknown — they were
// never evaluated).
type Incompleteness struct {
	// Failed lists the dropped disjuncts in rule order, with the failing
	// source, step, and failure class.
	Failed []RuleFailure
	// RulesTotal counts the executable disjuncts of the union;
	// RulesSurvived those that evaluated fully.
	RulesTotal, RulesSurvived int
}

// Complete reports whether every disjunct evaluated fully: the answer
// is the exact ANSWER(Q, D), not just an underestimate.
func (inc Incompleteness) Complete() bool { return len(inc.Failed) == 0 }

// RuleRatio is the fraction of disjuncts that evaluated fully; ok is
// false for an empty union. 1.0 means complete.
func (inc Incompleteness) RuleRatio() (float64, bool) {
	if inc.RulesTotal == 0 {
		return 0, false
	}
	return float64(inc.RulesSurvived) / float64(inc.RulesTotal), true
}

// FailedSources returns the distinct sources named by the failures, in
// first-failure order.
func (inc Incompleteness) FailedSources() []string {
	var out []string
	seen := map[string]bool{}
	for _, f := range inc.Failed {
		if f.Source == "" || seen[f.Source] {
			continue
		}
		seen[f.Source] = true
		out = append(out, f.Source)
	}
	return out
}

// Report renders the degradation report in the shape of Figure 4's
// completeness output.
func (inc Incompleteness) Report() string {
	var b strings.Builder
	if inc.Complete() {
		b.WriteString("answer is complete: every disjunct evaluated\n")
		return strings.TrimRight(b.String(), "\n")
	}
	b.WriteString("answer is an underestimate: these disjuncts could not be evaluated:\n")
	for _, f := range inc.Failed {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	if srcs := inc.FailedSources(); len(srcs) > 0 {
		fmt.Fprintf(&b, "failed sources: %s\n", strings.Join(srcs, ", "))
	}
	if r, ok := inc.RuleRatio(); ok {
		fmt.Fprintf(&b, "at least %d of %d disjuncts (%.2f) answered in full\n", inc.RulesSurvived, inc.RulesTotal, r)
	}
	return strings.TrimRight(b.String(), "\n")
}

// record appends a failure for rule i, attributing source and step when
// the error chain carries a callError.
func (inc *Incompleteness) record(i int, rule logic.CQ, err error) {
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
	inc.Failed = append(inc.Failed, f)
}

// accessLimited records dismissed rule i, whose rows reached Δ: it is no
// certain part of the answer.
func (inc *Incompleteness) accessLimited(i int, ra *core.RuleAnalysis) {
	lits := make([]string, len(ra.Unanswerable))
	for j, l := range ra.Unanswerable {
		lits[j] = l.String()
	}
	step := strings.Join(lits, ", ")
	inc.Failed = append(inc.Failed, RuleFailure{RuleIndex: i, Rule: ra.Rule, Step: step, Class: FailAccessLimited,
		Err: fmt.Errorf("engine: no access pattern answers %s", step)})
	inc.RulesSurvived--
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
