package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sources"
)

// Regression test for the abandoned-leg accounting bug: a call that
// gives up waiting for its per-source slot (context cancelled while
// parked on the semaphore) was charged to the budget but never
// launched, so BudgetSpent over-counted the profile's Calls — and a
// doomed waiter could spend the last budget slot a live worker then
// got rejected on. The charge must be refunded.
func TestBudgetRefundsAbandonedLeg(t *testing.T) {
	ps := pats(t, `R^o`)
	src := rTable(t, ps)
	rt := NewRuntime()
	rt.PerSource = 1

	// Occupy the only per-source slot, then call under an already
	// cancelled context: the slot wait is abandoned deterministically.
	sem := rt.sourceSem("R")
	sem <- struct{}{}
	defer func() { <-sem }()

	x := rt.newExecution(sources.MustCatalog(src), Opts{Budget: Budget{MaxCalls: 5}}, false, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var gauge inFlightGauge
	_, cs, err := x.callWithRetry(ctx, src, "R", "o", [][]string{nil}, &gauge)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cs.attempts != 0 {
		t.Fatalf("attempts = %d, want 0 (the leg never launched)", cs.attempts)
	}
	if got := x.budget.spent.Load(); got != 0 {
		t.Errorf("budget spent = %d, want 0: an abandoned slot wait must refund its charge", got)
	}
}

// Meter identity under concurrent rules + hedging: every launched leg —
// primary, timer hedge, failover, retry — is charged to the budget
// exactly once and recorded in the profile exactly once, so a profiled
// run must report BudgetSpent == Calls.Total however the rules
// interleave. Run under -race this also exercises the budget and
// profile counters for data races.
func TestBudgetMeterIdentityParallelHedged(t *testing.T) {
	u := ucq(t, `Q(x) :- R(x). Q(x) :- S(x). Q(x) :- T(x).`)
	ps := pats(t, `R^o S^o T^o`)

	mkSet := func(name string) sources.Source {
		healthy := NewInstance().MustAdd(name, "a").MustCatalog(ps).Source(name)
		flaky := sources.NewFlaky(NewInstance().MustAdd(name, "a").MustCatalog(ps).Source(name),
			sources.FlakyConfig{FailEveryN: 2})
		rs, err := sources.NewReplicaSet(sources.ReplicaConfig{Policy: declOrder{}}, flaky, healthy)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	newCat := func() *sources.Catalog {
		cat, err := sources.NewCatalog(mkSet("R"), mkSet("S"), mkSet("T"))
		if err != nil {
			t.Fatal(err)
		}
		return cat
	}

	for _, maxCalls := range []int{1000, 4, 2} {
		rt := NewRuntime()
		rt.PerSource = 2
		rt.Retry.BaseDelay = 0
		o := Opts{Parallel: true, Partial: true, Budget: Budget{MaxCalls: maxCalls}, Hedge: HedgePolicy{Delay: 100 * time.Microsecond, MaxHedges: 2}}
		for i := 0; i < 20; i++ {
			rel, prof, inc, err := eval(context.Background(), rt, u, ps, newCat(), o)
			if err != nil {
				t.Fatalf("MaxCalls=%d iter %d: %v", maxCalls, i, err)
			}
			if prof.Calls.BudgetSpent != prof.Calls.Total {
				t.Fatalf("MaxCalls=%d iter %d: BudgetSpent = %d but profile Calls = %d (dropped or double-counted legs; %d rules degraded)",
					maxCalls, i, prof.Calls.BudgetSpent, prof.Calls.Total, len(inc.Failed))
			}
			if len(inc.Failed) == 0 && rel.Len() != 1 {
				t.Fatalf("MaxCalls=%d iter %d: answers = %s, want the single row", maxCalls, i, rel)
			}
		}
	}
}

// A negative MaxCalls is the serving layer's shed mode: no source call
// is admitted at all. Strict mode surfaces ErrCallBudget; partial mode
// degrades every disjunct to budget-exhausted and certifies the empty
// underestimate, without a single call reaching the catalog.
func TestBudgetShedModeAdmitsNoCalls(t *testing.T) {
	u := ucq(t, `Q(x) :- R(x). Q(x) :- S(x).`)
	ps := pats(t, `R^o S^o`)
	in := NewInstance()
	in.MustAdd("R", "a")
	in.MustAdd("S", "b")

	rt := NewRuntime()
	shed := Budget{MaxCalls: -1}

	if _, _, _, err := eval(context.Background(), rt, u, ps, in.MustCatalog(ps), Opts{Budget: shed}); !errors.Is(err, ErrCallBudget) {
		t.Fatalf("strict err = %v, want ErrCallBudget", err)
	}

	cat := in.MustCatalog(ps)
	rel, prof, inc, err := eval(context.Background(), rt, u, ps, cat, Opts{Partial: true, Budget: shed})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 0 {
		t.Errorf("shed answers = %s, want none", rel)
	}
	if len(inc.Failed) != 2 {
		t.Fatalf("failures = %+v, want both rules budget-exhausted", inc.Failed)
	}
	for _, f := range inc.Failed {
		if f.Class != FailBudget {
			t.Errorf("failure class = %s, want %s", f.Class, FailBudget)
		}
	}
	if prof.Calls.BudgetSpent != 0 || prof.Calls.Total != 0 {
		t.Errorf("shed mode spent budget %d / calls %d, want 0/0", prof.Calls.BudgetSpent, prof.Calls.Total)
	}
	if st := cat.TotalStats(); st.Calls != 0 {
		t.Errorf("shed mode reached the catalog %d times, want 0", st.Calls)
	}
}

// The call table holds an outcome only for a call the budget admitted:
// a step of 64 distinct calls under MaxCalls = 10 fails with
// ErrCallBudget leaving at most 10 entries that hold rows or a failure —
// whether its calls go one by one or through a worker pool, whole or
// staged.
func TestCallTableBoundedByBudget(t *testing.T) {
	u, ps, cat := shortStepQuery(64)
	p, err := core.NewPlan(u, ps)
	if err != nil {
		t.Fatal(err)
	}
	for _, staged := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("staged=%v, workers=%d", staged, workers)
			rt := NewRuntime()
			rt.Concurrency, rt.Retry = workers, RetryPolicy{}
			x := rt.newExecution(cat, Opts{Budget: Budget{MaxCalls: 10}}, staged, func(context.Context, int, []Row) (int, bool) { return 0, true })
			x.compile(p, Answered{})
			if _, _, err := x.run(context.Background()); !errors.Is(err, ErrCallBudget) {
				t.Fatalf("%s: err = %v, want ErrCallBudget", label, err)
			}
			live := 0
			for _, c := range x.calls.calls {
				if c.state == callDone {
					live++
				}
			}
			if spent := x.budget.spent.Load(); live > 10 || int64(live) > spent {
				t.Fatalf("%s: %d calls hold an outcome, %d admitted; want at most the 10 admitted", label, live, spent)
			}
		}
	}
}
