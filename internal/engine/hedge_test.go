package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/sources"
)

// declOrder is a routing policy that always tries replicas in
// declaration order, so tests control exactly which replica is the
// hedged-call primary.
type declOrder struct{}

func (declOrder) Rank(tick uint64, h []sources.ReplicaHealth) []int {
	out := make([]int, len(h))
	for i := range out {
		out[i] = i
	}
	return out
}

// replicaCat builds a single-relation catalog whose source is a replica
// set over the given replicas, routed in declaration order.
func replicaCat(t *testing.T, replicas ...sources.Source) (*sources.Catalog, *sources.ReplicaSet) {
	t.Helper()
	rs, err := sources.NewReplicaSet(sources.ReplicaConfig{Policy: declOrder{}}, replicas...)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := sources.NewCatalog(rs)
	if err != nil {
		t.Fatal(err)
	}
	return cat, rs
}

// rTable returns one replica of the unary relation R holding value "a".
func rTable(t *testing.T, ps *access.Set) sources.Source {
	t.Helper()
	return NewInstance().MustAdd("R", "a").MustCatalog(ps).Source("R")
}

// A hung primary must not stall the call: the hedge timer launches a
// backup on the next replica, the backup's rows win, and the cancelled
// loser is charged (it was launched) but never pollutes the replica's
// health or breaker window.
func TestHedgeBackupWinsOverHungPrimary(t *testing.T) {
	q := ucq(t, `Q(x) :- R(x).`)
	ps := pats(t, `R^o`)
	hung := sources.NewFlaky(rTable(t, ps), sources.FlakyConfig{FailEveryN: 1, Hang: true})
	cat, rs := replicaCat(t, hung, rTable(t, ps))

	rt := NewRuntime()
	ans, prof, _, err := eval(context.Background(), rt, q, ps, cat, Opts{Hedge: HedgePolicy{Delay: 2 * time.Millisecond}, Budget: Budget{MaxCalls: 10}})
	if err != nil {
		t.Fatalf("hedging must mask the hung primary: %v", err)
	}
	if ans.Len() != 1 {
		t.Errorf("answers = %d, want 1", ans.Len())
	}
	sp := prof.Rules[0].Steps[0]
	if sp.Calls != 2 {
		t.Errorf("Calls = %d, want 2 (primary + hedge)", sp.Calls)
	}
	if sp.HedgedCalls != 1 || sp.HedgeWins != 1 {
		t.Errorf("hedged=%d won=%d, want 1/1", sp.HedgedCalls, sp.HedgeWins)
	}
	if sp.Retries != 0 {
		t.Errorf("Retries = %d: a hedged race is one round, not a retry", sp.Retries)
	}
	// Every launched leg was charged exactly once.
	if prof.Calls.BudgetSpent != 2 {
		t.Errorf("BudgetSpent = %d, want 2 (one per launched leg)", prof.Calls.BudgetSpent)
	}
	// The cancelled loser never reached its table and never entered the
	// replica's health window or breaker state.
	st := rs.ReplicaStats()
	if st[0].Calls != 0 || st[0].Failures != 0 {
		t.Errorf("cancelled loser polluted health: %+v", st[0])
	}
	if st[0].State != sources.BreakerClosed {
		t.Errorf("loser breaker = %s, want closed", st[0].State)
	}
	if st[1].Calls != 1 || st[1].Failures != 0 {
		t.Errorf("winner health = %+v, want 1 clean call", st[1])
	}
	// Real remote traffic: only the winner's table answered.
	if got := cat.TotalStats().Calls; got != 1 {
		t.Errorf("remote calls = %d, want 1", got)
	}
}

// A replica that fails outright triggers immediate failover — before
// the hedge timer — and the failover leg is not counted as a hedge.
func TestHedgeFailoverIsNotAHedge(t *testing.T) {
	q := ucq(t, `Q(x) :- R(x).`)
	ps := pats(t, `R^o`)
	failing := sources.NewFlaky(rTable(t, ps), sources.FlakyConfig{FailEveryN: 1})
	cat, rs := replicaCat(t, failing, rTable(t, ps))

	rt := NewRuntime()
	// The timer must never decide this test.
	ans, prof, _, err := eval(context.Background(), rt, q, ps, cat, Opts{Hedge: HedgePolicy{Delay: time.Hour}})
	if err != nil {
		t.Fatalf("failover must absorb the failing replica: %v", err)
	}
	if ans.Len() != 1 {
		t.Errorf("answers = %d, want 1", ans.Len())
	}
	sp := prof.Rules[0].Steps[0]
	if sp.Calls != 2 {
		t.Errorf("Calls = %d, want 2 (failed primary + failover)", sp.Calls)
	}
	if sp.HedgedCalls != 0 || sp.HedgeWins != 0 {
		t.Errorf("hedged=%d won=%d: failover legs are not hedges", sp.HedgedCalls, sp.HedgeWins)
	}
	if sp.Retries != 0 {
		t.Errorf("Retries = %d, want 0: failover happens inside one round", sp.Retries)
	}
	// The failure entered the primary's health window.
	st := rs.ReplicaStats()
	if st[0].Failures != 1 {
		t.Errorf("primary failures = %d, want 1", st[0].Failures)
	}
}

// When every replica fails, the round's error is a replica exhaustion:
// transient members make it retryable, retries run whole rounds, and a
// partial-results execution degrades with class FailReplicas naming the
// exhausted replicas.
func TestHedgeExhaustionRetriesAndDegrades(t *testing.T) {
	q := ucq(t, `Q(x) :- R(x).`)
	ps := pats(t, `R^o`)
	bad := func() sources.Source {
		return sources.NewFlaky(rTable(t, ps), sources.FlakyConfig{FailEveryN: 1})
	}
	cat, _ := replicaCat(t, bad(), bad())

	rt := NewRuntime()
	rt.Retry = RetryPolicy{MaxAttempts: 2}
	rel, prof, inc, err := eval(context.Background(), rt, q, ps, cat, Opts{Partial: true, Hedge: HedgePolicy{Delay: time.Hour}})
	if err != nil {
		t.Fatalf("partial mode must absorb the exhaustion: %v", err)
	}
	if rel.Len() != 0 {
		t.Errorf("answers = %d, want 0", rel.Len())
	}
	if len(inc.Failed) != 1 {
		t.Fatalf("failed rules = %d, want 1", len(inc.Failed))
	}
	f := inc.Failed[0]
	if f.Class != FailReplicas {
		t.Errorf("class = %s, want %s", f.Class, FailReplicas)
	}
	if len(f.Replicas) != 2 || f.Replicas[0] != "R#0" || f.Replicas[1] != "R#1" {
		t.Errorf("exhausted replicas = %v, want [R#0 R#1]", f.Replicas)
	}
	if !errors.Is(f.Err, sources.ErrReplicasExhausted) {
		t.Errorf("err must match ErrReplicasExhausted: %v", f.Err)
	}
	sp := prof.Rules[0].Steps[0]
	if sp.Calls != 4 {
		t.Errorf("Calls = %d, want 4 (2 rounds × 2 replicas)", sp.Calls)
	}
	if sp.Retries != 1 {
		t.Errorf("Retries = %d, want 1 (the second round)", sp.Retries)
	}
}

// A budget with one call left admits the primary and denies the hedge;
// the call still succeeds on the primary and the denial is invisible.
func TestHedgeDeniedByBudgetStillSucceeds(t *testing.T) {
	q := ucq(t, `Q(x) :- R(x).`)
	ps := pats(t, `R^o`)
	slow := sources.NewDelayed(rTable(t, ps), 30*time.Millisecond)
	cat, _ := replicaCat(t, slow, rTable(t, ps))

	rt := NewRuntime()
	ans, prof, _, err := eval(context.Background(), rt, q, ps, cat, Opts{Hedge: HedgePolicy{Delay: 2 * time.Millisecond}, Budget: Budget{MaxCalls: 1}})
	if err != nil {
		t.Fatalf("the primary must still win when the hedge is denied: %v", err)
	}
	if ans.Len() != 1 {
		t.Errorf("answers = %d, want 1", ans.Len())
	}
	if prof.Calls.BudgetSpent != 1 {
		t.Errorf("BudgetSpent = %d, want 1 (denied hedge never charged)", prof.Calls.BudgetSpent)
	}
	if got := prof.Calls.Hedged; got != 0 {
		t.Errorf("HedgedCalls = %d, want 0", got)
	}
}

// When the budget dies before any leg launches, the call fails with
// ErrCallBudget and charges nothing.
func TestHedgeBudgetExhaustedBeforePrimary(t *testing.T) {
	q := ucq(t, `Q(x) :- R(x).`)
	ps := pats(t, `R^o`)
	cat, _ := replicaCat(t, rTable(t, ps), rTable(t, ps))

	rt := NewRuntime()
	o := Opts{Hedge: HedgePolicy{Delay: time.Millisecond}, Budget: Budget{MaxCalls: 0, MaxTime: time.Nanosecond}}
	time.Sleep(time.Millisecond) // let the time budget lapse
	_, prof, _, err := eval(context.Background(), rt, q, ps, cat, o)
	if !errors.Is(err, ErrCallBudget) {
		t.Fatalf("err = %v, want ErrCallBudget", err)
	}
	_ = prof
	if got := cat.TotalStats().Calls; got != 0 {
		t.Errorf("remote calls = %d, want 0", got)
	}
}

// HedgePolicy.delay prefers the observed latency quantile once the set is
// warm, and falls back to the fixed delay (then the 1ms floor) before.
func TestHedgeDelaySelection(t *testing.T) {
	ps := pats(t, `R^o`)
	var mu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	tbl := rTable(t, ps).(*sources.Table)
	tbl.OnCall = func(p access.Pattern, inputs []string) {
		mu.Lock()
		now = now.Add(10 * time.Millisecond) // every call "takes" 10ms
		mu.Unlock()
	}
	rs, err := sources.NewReplicaSet(sources.ReplicaConfig{Policy: declOrder{}, Now: clock}, tbl, rTable(t, ps))
	if err != nil {
		t.Fatal(err)
	}

	h := HedgePolicy{Quantile: 0.5, Delay: 40 * time.Millisecond}
	// Cold set: quantile has no samples, fixed delay wins.
	if d := h.delay(rs); d != 40*time.Millisecond {
		t.Errorf("cold delay = %v, want 40ms fallback", d)
	}
	for i := 0; i < 10; i++ {
		if _, err := rs.CallReplica(context.Background(), 0, "o", [][]string{nil}); err != nil {
			t.Fatal(err)
		}
	}
	if d := h.delay(rs); d != 10*time.Millisecond {
		t.Errorf("warm delay = %v, want observed 10ms median", d)
	}
	// Quantile-only, cold, no fixed delay: the floor applies.
	rs2, err := sources.NewReplicaSet(sources.ReplicaConfig{Policy: declOrder{}}, rTable(t, ps), rTable(t, ps))
	if err != nil {
		t.Fatal(err)
	}
	if d := (HedgePolicy{Quantile: 0.95}).delay(rs2); d != time.Millisecond {
		t.Errorf("floor delay = %v, want 1ms", d)
	}
}

// Hedging must not disturb deduplication: distinct keys are called
// once each (whatever replica answered), duplicates served for free.
func TestHedgeComposesWithDedup(t *testing.T) {
	q := ucq(t, `Q(x, y) :- R(x, z), T(z, y).`)
	ps := pats(t, `R^oo T^io`)
	mk := func() *Instance {
		in := NewInstance()
		for i := 0; i < 40; i++ {
			in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%4))
		}
		for z := 0; z < 4; z++ {
			in.MustAdd("T", fmt.Sprintf("z%d", z), fmt.Sprintf("y%d", z))
		}
		return in
	}
	catA, catB := mk().MustCatalog(ps), mk().MustCatalog(ps)
	cat, _, err := sources.ReplicaCatalog(sources.ReplicaConfig{Policy: declOrder{}}, catA, catB)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime()
	ans, prof, _, err := eval(context.Background(), rt, q, ps, cat, Opts{Hedge: HedgePolicy{Delay: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 40 {
		t.Errorf("answers = %d, want 40", ans.Len())
	}
	if got := prof.Calls.Total; got != 5 { // 1 R scan + 4 distinct T keys
		t.Errorf("calls = %d, want 5", got)
	}
	if got := prof.Calls.Deduped; got != 36 {
		t.Errorf("deduped = %d, want 36", got)
	}
}

// After a run against replicated sources the replica set, which owns
// the lifetime counters, reports the per-replica breakdown.
func TestProfileSnapshotsReplicas(t *testing.T) {
	q := ucq(t, `Q(x) :- R(x).`)
	ps := pats(t, `R^o`)
	cat, rs := replicaCat(t, rTable(t, ps), rTable(t, ps))
	rt := NewRuntime()
	if _, _, _, err := eval(context.Background(), rt, q, ps, cat, Opts{}); err != nil {
		t.Fatal(err)
	}
	if cat.Source("R") != rs {
		t.Fatal("the catalog must front R with the replica set")
	}
	st := rs.ReplicaStats()
	if len(st) != 2 {
		t.Fatalf("replica breakdown has %d entries, want 2", len(st))
	}
	if calls := st[0].Calls + st[1].Calls; calls != 1 {
		t.Errorf("replicas observed %d calls, want the run's 1", calls)
	}
}

// A shared hedging runtime under concurrent queries with hung and
// failing replicas must stay consistent (exercised by -race) and keep
// the meter identity Calls == BudgetSpent.
func TestHedgeSharedRuntimeConcurrent(t *testing.T) {
	q := ucq(t, `Q(x, y) :- R(x, z), T(z, y).`)
	ps := pats(t, `R^oo T^io`)
	mk := func(hang bool) *sources.Catalog {
		in := NewInstance()
		for i := 0; i < 12; i++ {
			in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%3))
		}
		for z := 0; z < 3; z++ {
			in.MustAdd("T", fmt.Sprintf("z%d", z), fmt.Sprintf("y%d", z))
		}
		base := in.MustCatalog(ps)
		if !hang {
			return base
		}
		var wrapped []sources.Source
		for _, n := range base.Names() {
			wrapped = append(wrapped, sources.NewFlaky(base.Source(n), sources.FlakyConfig{FailEveryN: 3, Hang: true}))
		}
		cat, err := sources.NewCatalog(wrapped...)
		if err != nil {
			t.Fatal(err)
		}
		return cat
	}
	cat, _, err := sources.ReplicaCatalog(sources.ReplicaConfig{}, mk(true), mk(false), mk(false))
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime()
	rt.PerSource = 4
	hedged := Opts{Hedge: HedgePolicy{Delay: time.Millisecond, MaxHedges: 2}}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				rel, prof, _, err := eval(context.Background(), rt, q, ps, cat, hedged)
				if err != nil {
					t.Errorf("Answer: %v", err)
					return
				}
				if rel.Len() != 12 {
					t.Errorf("answers = %d, want 12", rel.Len())
				}
				_ = prof
			}
		}()
	}
	wg.Wait()
}

// A hedged round must hold one per-source slot for all its legs. With
// per-leg slots this call self-deadlocks: PerSource=1, the hung primary
// holds the only slot, and the backup that would cancel it waits for
// that slot forever. (There is no CallTimeout here on purpose — the
// deadline must not be what unsticks the round.)
func TestHedgeRoundSharesSourceSlot(t *testing.T) {
	q := ucq(t, `Q(x) :- R(x).`)
	ps := pats(t, `R^o`)
	hung := sources.NewFlaky(rTable(t, ps), sources.FlakyConfig{FailEveryN: 1, Hang: true})
	cat, _ := replicaCat(t, hung, rTable(t, ps))

	rt := NewRuntime()
	rt.PerSource = 1
	hedged := Opts{Hedge: HedgePolicy{Delay: time.Millisecond}}

	done := make(chan error, 1)
	go func() {
		ans, _, _, err := eval(context.Background(), rt, q, ps, cat, hedged)
		if err == nil && ans.Len() != 1 {
			err = fmt.Errorf("answers = %d, want 1", ans.Len())
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hedged round deadlocked on the per-source slot")
	}
}
