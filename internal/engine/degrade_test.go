package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/logic"
	"repro/internal/sources"
)

// deadCatalog builds a catalog from in where every relation in dead is
// permanently failing (every call injects a transient failure), wrapped
// in a circuit breaker when cfg is non-nil. It returns the catalog, the
// fault injectors, and the breakers, both keyed by relation name.
func deadCatalog(t *testing.T, in *Instance, ps *access.Set, dead map[string]bool, cfg *sources.BreakerConfig) (*sources.Catalog, map[string]*sources.Flaky, map[string]*sources.Breaker) {
	t.Helper()
	base := in.MustCatalog(ps)
	flakies := map[string]*sources.Flaky{}
	breakers := map[string]*sources.Breaker{}
	var wrapped []sources.Source
	for _, name := range base.Names() {
		src := base.Source(name)
		if dead[name] {
			f := sources.NewFlaky(src, sources.FlakyConfig{FailEveryN: 1})
			flakies[name] = f
			src = f
		}
		if cfg != nil {
			b := sources.NewBreaker(src, *cfg)
			breakers[name] = b
			src = b
		}
		wrapped = append(wrapped, src)
	}
	cat, err := sources.NewCatalog(wrapped...)
	if err != nil {
		t.Fatal(err)
	}
	return cat, flakies, breakers
}

func TestEvalPartialDropsFailedDisjunct(t *testing.T) {
	u := ucq(t, `Q(x) :- R(x). Q(x) :- S(x).`)
	ps := pats(t, `R^o S^o`)
	in := NewInstance()
	in.MustAdd("R", "a")
	in.MustAdd("R", "b")
	in.MustAdd("S", "c")
	healthy := in.MustCatalog(ps)
	want, err := NewRuntime().Answer(context.Background(), ucq(t, `Q(x) :- R(x).`), ps, healthy)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			cat, _, _ := deadCatalog(t, in, ps, map[string]bool{"S": true}, nil)
			rt := NewRuntime()
			rt.Retry.MaxAttempts = 2
			rt.Retry.BaseDelay = 0

			// Strict mode surfaces the failure.
			if _, _, _, err := rt.Eval(context.Background(), u, ps, cat, Opts{Parallel: parallel}); err == nil {
				t.Fatal("strict mode must fail when a source is dead")
			}

			// Partial mode drops rule 2 and answers with rule 1.
			rel, prof, inc, err := rt.Eval(context.Background(), u, ps, cat, Opts{Parallel: parallel, Partial: true})
			if err != nil {
				t.Fatalf("partial mode must absorb the failure: %v", err)
			}
			if !rel.Equal(want) {
				t.Errorf("degraded answer = %s, want the healthy disjunct's %s", rel, want)
			}
			if inc == nil || inc.Complete() {
				t.Fatalf("incompleteness = %+v, want a recorded failure", inc)
			}
			if len(inc.Failed) != 1 || inc.Failed[0].RuleIndex != 1 {
				t.Fatalf("failed = %+v, want exactly rule 2", inc.Failed)
			}
			f := inc.Failed[0]
			if f.Source != "S" || f.Class != FailTransient {
				t.Errorf("failure = source %q class %q, want S / retries-exhausted", f.Source, f.Class)
			}
			if got := inc.FailedSources(); len(got) != 1 || got[0] != "S" {
				t.Errorf("FailedSources = %v, want [S]", got)
			}
			if r, ok := inc.RuleRatio(); !ok || r != 0.5 {
				t.Errorf("RuleRatio = %v/%v, want 0.5", r, ok)
			}
			if inc.RulesTotal != 2 || inc.RulesSurvived != 1 {
				t.Errorf("rules = %d/%d, want 1 of 2 survived", inc.RulesSurvived, inc.RulesTotal)
			}
			if !strings.Contains(inc.Report(), "underestimate") || !strings.Contains(inc.Report(), "S") {
				t.Errorf("report must name the failure:\n%s", inc.Report())
			}
			if prof.Degraded.Rules != 1 {
				t.Errorf("prof.Degraded.Rules = %d, want 1", prof.Degraded.Rules)
			}
		})
	}
}

func TestEvalPartialCompleteRunReportsComplete(t *testing.T) {
	u := ucq(t, `Q(x) :- R(x). Q(x) :- S(x).`)
	ps := pats(t, `R^o S^o`)
	in := NewInstance()
	in.MustAdd("R", "a")
	in.MustAdd("S", "b")
	cat := in.MustCatalog(ps)
	rel, _, inc, err := NewRuntime().Eval(context.Background(), u, ps, cat, Opts{Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("answers = %s", rel)
	}
	if inc == nil || !inc.Complete() || inc.RulesSurvived != 2 {
		t.Errorf("inc = %+v, want complete 2/2", inc)
	}
	if !strings.Contains(inc.Report(), "complete") {
		t.Errorf("report = %q", inc.Report())
	}
}

// The breaker acceptance property: with one source permanently dead, the
// calls that reach it are bounded by the breaker window, not by
// rules × bindings × MaxAttempts.
func TestEvalPartialBreakerCapsDeadSourceCalls(t *testing.T) {
	u := ucq(t, `
		Q(x) :- R(x).
		Q(x) :- S("c1", x).
		Q(x) :- S("c2", x).
		Q(x) :- S("c3", x).
		Q(x) :- S("c4", x).
		Q(x) :- S("c5", x).
		Q(x) :- S("c6", x).
	`)
	ps := pats(t, `R^o S^io`)
	in := NewInstance()
	in.MustAdd("R", "a")
	for i := 1; i <= 6; i++ {
		in.MustAdd("S", fmt.Sprintf("c%d", i), "v")
	}
	newRT := func() *Runtime {
		rt := NewRuntime()
		rt.Concurrency = 1
		rt.Retry.MaxAttempts = 4
		rt.Retry.BaseDelay = 0
		return rt
	}

	// Bare retries: every dead-source rule burns its full retry budget.
	bareCat, bareFlaky, _ := deadCatalog(t, in, ps, map[string]bool{"S": true}, nil)
	rel, _, inc, err := newRT().Eval(context.Background(), u, ps, bareCat, Opts{Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Errorf("degraded answer = %s, want only R's row", rel)
	}
	bare := bareFlaky["S"].Injected()
	if want := 6 * 4; bare != want {
		t.Errorf("bare retries hit the dead source %d times, want rules×attempts = %d", bare, want)
	}

	// Breaker: the dead source absorbs at most the window before the
	// circuit opens; later rules fail fast without touching it.
	cfg := &sources.BreakerConfig{Window: 4, Threshold: 2, Cooldown: time.Hour}
	brkCat, brkFlaky, breakers := deadCatalog(t, in, ps, map[string]bool{"S": true}, cfg)
	rel2, _, inc2, err := newRT().Eval(context.Background(), u, ps, brkCat, Opts{Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rel2.Equal(rel) {
		t.Errorf("breaker changed the degraded answer: %s vs %s", rel2, rel)
	}
	if got := brkFlaky["S"].Injected(); got > cfg.Window {
		t.Errorf("dead source saw %d calls with a breaker, want ≤ window (%d); bare retries cost %d", got, cfg.Window, bare)
	}
	if breakers["S"].State() != sources.BreakerOpen {
		t.Errorf("breaker state = %v, want open", breakers["S"].State())
	}
	if breakers["S"].Rejected() == 0 {
		t.Error("breaker should have fast-failed the later rules' calls")
	}
	if len(inc.Failed) != 6 || len(inc2.Failed) != 6 {
		t.Fatalf("failures = %d bare / %d breaker, want 6 each", len(inc.Failed), len(inc2.Failed))
	}
	// The first breaker failures classify as retries-exhausted (the calls
	// that tripped it), the later ones as breaker-open.
	last := inc2.Failed[len(inc2.Failed)-1]
	if last.Class != FailBreaker {
		t.Errorf("last failure class = %s, want breaker-open", last.Class)
	}
}

func TestEvalPartialBudgetExhausted(t *testing.T) {
	u := ucq(t, `Q(x) :- R(x). Q(x) :- S(x).`)
	ps := pats(t, `R^o S^o`)
	in := NewInstance()
	in.MustAdd("R", "a")
	in.MustAdd("S", "b")

	rt := NewRuntime()
	rt.Budget = Budget{MaxCalls: 1} // rule 1's single call spends it all

	// Strict: budget exhaustion is an error.
	if _, _, _, err := rt.Eval(context.Background(), u, ps, in.MustCatalog(ps), Opts{}); !errors.Is(err, ErrCallBudget) {
		t.Fatalf("strict err = %v, want ErrCallBudget", err)
	}

	// Partial: rule 2 is dropped as budget-exhausted.
	rel, prof, inc, err := rt.Eval(context.Background(), u, ps, in.MustCatalog(ps), Opts{Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Errorf("answers = %s, want R's row only", rel)
	}
	if len(inc.Failed) != 1 || inc.Failed[0].Class != FailBudget {
		t.Fatalf("failures = %+v, want one budget-exhausted", inc.Failed)
	}
	if prof.Calls.BudgetSpent != 1 {
		t.Errorf("prof.Calls.BudgetSpent = %d, want 1", prof.Calls.BudgetSpent)
	}
}

func TestRuntimeCallTimeoutCutsHungSource(t *testing.T) {
	q := ucq(t, `Q(x, y) :- R(x, z), T(z, y).`)
	ps := pats(t, `R^oo T^io`)
	in := NewInstance()
	in.MustAdd("R", "x0", "z0")
	in.MustAdd("T", "z0", "y0")
	// T hangs on its first call for each key instead of erroring.
	cat := flakyCatalog(t, in, ps, sources.FlakyConfig{FailFirst: 1, Hang: true})
	rt := NewRuntime()
	rt.CallTimeout = 5 * time.Millisecond
	rt.Retry.MaxAttempts = 3
	rt.Retry.BaseDelay = 0
	start := time.Now()
	rel, err := rt.Answer(context.Background(), q, ps, cat)
	if err != nil {
		t.Fatalf("the per-call deadline must convert the hang into a retryable timeout: %v", err)
	}
	if rel.Len() != 1 {
		t.Errorf("answers = %s", rel)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("hung call was not cut by CallTimeout (took %s)", elapsed)
	}
}

func TestRuntimeCallTimeoutExhaustionIsTransient(t *testing.T) {
	q := ucq(t, `Q(x) :- R(x).`)
	ps := pats(t, `R^o`)
	in := NewInstance()
	in.MustAdd("R", "a")
	// Hangs forever: every attempt times out, the rule fails transient.
	cat := flakyCatalog(t, in, ps, sources.FlakyConfig{FailEveryN: 1, Hang: true})
	rt := NewRuntime()
	rt.CallTimeout = 2 * time.Millisecond
	rt.Retry.MaxAttempts = 2
	rt.Retry.BaseDelay = 0
	_, err := rt.Answer(context.Background(), q, ps, cat)
	if err == nil {
		t.Fatal("permanently hung source must fail")
	}
	if !sources.IsTransient(err) {
		t.Errorf("timeout exhaustion must classify transient, got %v", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("per-call deadline must not masquerade as caller cancellation: %v", err)
	}
	if ClassifyFailure(err) != FailTransient {
		t.Errorf("class = %s, want retries-exhausted", ClassifyFailure(err))
	}
}

func TestEvalPartialDoesNotAbsorbCallerCancellation(t *testing.T) {
	u := ucq(t, `Q(x) :- R(x).`)
	ps := pats(t, `R^o`)
	in := NewInstance()
	in.MustAdd("R", "a")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := NewRuntime().Eval(ctx, u, ps, in.MustCatalog(ps), Opts{Partial: true})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled even in partial mode", err)
	}
}

func TestEvalPartialDoesNotAbsorbPlanningErrors(t *testing.T) {
	u := ucq(t, `Q(x) :- R(x).`)
	ps := pats(t, `R^i`) // no way to produce x
	in := NewInstance()
	in.MustAdd("R", "a")
	for _, parallel := range []bool{false, true} {
		_, _, _, err := NewRuntime().Eval(context.Background(), u, ps, in.MustCatalog(ps), Opts{Partial: true, Parallel: parallel})
		if !errors.Is(err, errNotExecutable) {
			t.Errorf("parallel=%v: err = %v, want the compile error even in partial mode", parallel, err)
		}
	}
}

func TestSeededJitterDeterministicAndBounded(t *testing.T) {
	const d = 8 * time.Millisecond
	j1 := SeededJitter(42)
	j2 := SeededJitter(42)
	j3 := SeededJitter(43)
	var seq1, seq2, seq3 []time.Duration
	for i := 0; i < 64; i++ {
		seq1 = append(seq1, j1(d))
		seq2 = append(seq2, j2(d))
		seq3 = append(seq3, j3(d))
	}
	distinct := map[time.Duration]bool{}
	for i := range seq1 {
		if seq1[i] != seq2[i] {
			t.Fatalf("draw %d: same seed diverged: %v vs %v", i, seq1[i], seq2[i])
		}
		if seq1[i] < d/2 || seq1[i] > d {
			t.Fatalf("draw %d: %v outside [d/2, d] = [%v, %v]", i, seq1[i], d/2, d)
		}
		distinct[seq1[i]] = true
	}
	if len(distinct) < 8 {
		t.Errorf("only %d distinct draws in 64: not jittering", len(distinct))
	}
	same := 0
	for i := range seq1 {
		if seq1[i] == seq3[i] {
			same++
		}
	}
	if same == len(seq1) {
		t.Error("different seeds produced identical sequences")
	}
	// Degenerate delays pass through unchanged.
	if got := j1(0); got != 0 {
		t.Errorf("jitter(0) = %v", got)
	}
	if got := j1(1); got != 1 {
		t.Errorf("jitter(1ns) = %v, want unchanged", got)
	}
}

// degradeStreamFixture is a three-rule union whose middle rule dies
// mid-pipeline: R fans out 20 bindings into a dead S behind a breaker,
// so the circuit opens while the rule's stages are still streaming
// batches. Rules 1 and 3 are healthy and must survive.
func degradeStreamFixture(t *testing.T) (u logic.UCQ, ps *access.Set, in *Instance) {
	t.Helper()
	u = ucq(t, `
		Q(x, y) :- U(x, y).
		Q(x, y) :- R(x, z), S(z, y).
		Q(x, y) :- W(x, y).
	`)
	ps = pats(t, `U^oo R^oo S^io W^oo`)
	in = NewInstance()
	for i := 0; i < 5; i++ {
		in.MustAdd("U", fmt.Sprintf("u%d", i), fmt.Sprintf("v%d", i))
		in.MustAdd("W", fmt.Sprintf("w%d", i), fmt.Sprintf("v%d", i))
	}
	for i := 0; i < 20; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i))
		in.MustAdd("S", fmt.Sprintf("z%d", i), fmt.Sprintf("y%d", i))
	}
	return u, ps, in
}

func degradeRuntime() *Runtime {
	rt := NewRuntime()
	rt.Retry.MaxAttempts = 2
	rt.Retry.BaseDelay = 0
	rt.BatchSize = 1 // force the failure to land mid-stream
	rt.StageBuffer = 1
	return rt
}

// The streaming acceptance property: a drained partial-results stream is
// byte-identical to the materialized partial-results answer when the
// same source is permanently dead, the failed rule's early rows never
// leak to the consumer, and no goroutine outlives the stream.
func TestStreamPartialDegradedMatchesMaterialized(t *testing.T) {
	u, ps, in := degradeStreamFixture(t)
	cfg := &sources.BreakerConfig{Window: 4, Threshold: 2, Cooldown: time.Hour}

	matCat, _, _ := deadCatalog(t, in, ps, map[string]bool{"S": true}, cfg)
	want, _, matInc, err := degradeRuntime().Eval(context.Background(), u, ps, matCat, Opts{Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(matInc.Failed) != 1 {
		t.Fatalf("materialized failures = %+v, want rule 2 only", matInc.Failed)
	}

	baseline := runtime.NumGoroutine()
	strCat, strFlaky, _ := deadCatalog(t, in, ps, map[string]bool{"S": true}, cfg)
	s, err := degradeRuntime().StreamEval(context.Background(), u, ps, strCat, Answered{}, Opts{Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Drain()
	if err != nil {
		t.Fatalf("partial stream must not surface the degraded failure: %v", err)
	}
	sameRows(t, got, want, "degraded stream vs materialized")
	inc, ok := s.Incomplete()
	if !ok {
		t.Fatal("Incomplete must be available after the stream finished")
	}
	if len(inc.Failed) != 1 || inc.Failed[0].RuleIndex != 1 || inc.Failed[0].Source != "S" {
		t.Fatalf("failures = %+v, want rule 2 at S", inc.Failed)
	}
	if inc.RulesTotal != 3 || inc.RulesSurvived != 2 {
		t.Errorf("rules = %d/%d, want 2 of 3", inc.RulesSurvived, inc.RulesTotal)
	}
	if got := strFlaky["S"].Injected(); got > cfg.Window {
		t.Errorf("dead source saw %d calls mid-stream, want the breaker to cap at %d", got, cfg.Window)
	}
	settleGoroutines(t, baseline)
}

// Breaker opens mid-batch and the victim rule's stages tear down alone:
// no leaked goroutines (run under -race), the stream stays usable for
// the rules after it, and a strict stream on the same inputs fails.
func TestStreamPartialMidPipelineTeardown(t *testing.T) {
	u, ps, in := degradeStreamFixture(t)
	cfg := &sources.BreakerConfig{Window: 4, Threshold: 2, Cooldown: time.Hour}

	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cat, _, breakers := deadCatalog(t, in, ps, map[string]bool{"S": true}, cfg)
			s, err := degradeRuntime().StreamEval(context.Background(), u, ps, cat, Answered{}, Opts{Partial: true, Parallel: parallel})
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Drain()
			if err != nil {
				t.Fatal(err)
			}
			// Healthy rules' rows all arrive; no row of the dead rule does.
			if got.Len() != 10 {
				t.Errorf("answers = %d rows, want the 10 healthy ones:\n%s", got.Len(), got)
			}
			for _, row := range got.Rows() {
				if strings.HasPrefix(row[0].S, "x") {
					t.Fatalf("row %s leaked from the failed disjunct", row)
				}
			}
			if breakers["S"].State() != sources.BreakerOpen {
				t.Errorf("breaker = %v, want open", breakers["S"].State())
			}
			if inc, ok := s.Incomplete(); !ok || len(inc.Failed) != 1 {
				t.Errorf("Incomplete = %+v/%v, want the one dropped disjunct", inc, ok)
			}
			settleGoroutines(t, baseline)

			// Strict mode on the same inputs surfaces the failure.
			cat2, _, _ := deadCatalog(t, in, ps, map[string]bool{"S": true}, cfg)
			s2, err := degradeRuntime().StreamEval(context.Background(), u, ps, cat2, Answered{}, Opts{Parallel: parallel})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s2.Drain(); err == nil {
				t.Error("strict stream must fail when a source is dead")
			}
			settleGoroutines(t, baseline)
		})
	}
}

func TestDefaultRetryPolicyJittersBackoff(t *testing.T) {
	p := DefaultRetryPolicy()
	if p.Jitter == nil {
		t.Fatal("DefaultRetryPolicy must install jitter (thundering-herd fix)")
	}
	// backoff() routes through the hook and stays within the equal-jitter
	// envelope of the deterministic schedule.
	plain := RetryPolicy{MaxAttempts: p.MaxAttempts, BaseDelay: p.BaseDelay, MaxDelay: p.MaxDelay}
	for attempt := 1; attempt < 4; attempt++ {
		base := plain.backoff(attempt)
		for i := 0; i < 16; i++ {
			if d := p.backoff(attempt); d < base/2 || d > base {
				t.Fatalf("attempt %d: jittered backoff %v outside [%v, %v]", attempt, d, base/2, base)
			}
		}
	}
}
