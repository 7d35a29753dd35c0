package engine

import (
	"context"
	"errors"
	"testing"
	"time"

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
	rt.Budget = Budget{MaxCalls: 5}

	// Occupy the only per-source slot, then call under an already
	// cancelled context: the slot wait is abandoned deterministically.
	sem := rt.sourceSem("R")
	sem <- struct{}{}
	defer func() { <-sem }()

	budget := rt.newBudget()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var gauge inFlightGauge
	_, cs, err := rt.callWithRetry(ctx, src, "R", "o", [][]string{nil}, &gauge, budget)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cs.attempts != 0 {
		t.Fatalf("attempts = %d, want 0 (the leg never launched)", cs.attempts)
	}
	if got := budget.spent.Load(); got != 0 {
		t.Errorf("budget spent = %d, want 0: an abandoned slot wait must refund its charge", got)
	}
}

// Meter identity under concurrent rules + hedging: every launched leg —
// primary, timer hedge, failover, retry — is charged to the budget
// exactly once and recorded in the profile exactly once, so a profiled
// run must report BudgetSpent == TotalCalls however the rules
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
		rt.Hedge = HedgePolicy{Delay: 100 * time.Microsecond, MaxHedges: 2}
		rt.PerSource = 2
		rt.Retry.BaseDelay = 0
		rt.Budget = Budget{MaxCalls: maxCalls}
		for i := 0; i < 20; i++ {
			rel, prof, inc, err := rt.Eval(context.Background(), u, ps, newCat(),
				Opts{Parallel: true, Partial: true})
			if err != nil {
				t.Fatalf("MaxCalls=%d iter %d: %v", maxCalls, i, err)
			}
			if prof.Calls.BudgetSpent != prof.TotalCalls() {
				t.Fatalf("MaxCalls=%d iter %d: BudgetSpent = %d but profile Calls = %d (dropped or double-counted legs; %d rules degraded)",
					maxCalls, i, prof.Calls.BudgetSpent, prof.TotalCalls(), len(inc.Failed))
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
	rt.Budget = Budget{MaxCalls: -1}

	if _, _, _, err := rt.Eval(context.Background(), u, ps, in.MustCatalog(ps), Opts{}); !errors.Is(err, ErrCallBudget) {
		t.Fatalf("strict err = %v, want ErrCallBudget", err)
	}

	cat := in.MustCatalog(ps)
	rel, prof, inc, err := rt.Eval(context.Background(), u, ps, cat, Opts{Partial: true})
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
	if prof.Calls.BudgetSpent != 0 || prof.TotalCalls() != 0 {
		t.Errorf("shed mode spent budget %d / calls %d, want 0/0", prof.Calls.BudgetSpent, prof.TotalCalls())
	}
	if st := cat.TotalStats(); st.Calls != 0 {
		t.Errorf("shed mode reached the catalog %d times, want 0", st.Calls)
	}
}
