package sources

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
)

func replicaTable(t testing.TB, rows ...Tuple) *Table {
	t.Helper()
	if rows == nil {
		rows = []Tuple{{"a"}, {"b"}}
	}
	tab, err := NewTable("R", 1, []access.Pattern{"o"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestReplicaSetValidation(t *testing.T) {
	if _, err := NewReplicaSet(ReplicaConfig{}); err == nil {
		t.Error("empty replica set must be rejected")
	}
	r1 := replicaTable(t)
	other := MustTable("S", 1, []access.Pattern{"o"}, nil)
	if _, err := NewReplicaSet(ReplicaConfig{}, r1, other); err == nil {
		t.Error("replicas of different relations must be rejected")
	}
	twoPat := MustTable("R", 1, []access.Pattern{"o", "i"}, nil)
	if _, err := NewReplicaSet(ReplicaConfig{}, r1, twoPat); err == nil {
		t.Error("replicas with different pattern sets must be rejected")
	}
	rs, err := NewReplicaSet(ReplicaConfig{}, r1, replicaTable(t))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Name() != "R" || rs.Arity() != 1 || rs.Replicas() != 2 {
		t.Errorf("set identity: name=%s arity=%d replicas=%d", rs.Name(), rs.Arity(), rs.Replicas())
	}
	if rs.ReplicaLabel(1) != "R#1" {
		t.Errorf("label = %s", rs.ReplicaLabel(1))
	}
}

func TestReplicaSetContractCheckedOnce(t *testing.T) {
	r1, r2 := replicaTable(t), replicaTable(t)
	rs, err := NewReplicaSet(ReplicaConfig{}, r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := callOne(context.Background(), rs, "i", []string{"a"}); err == nil {
		t.Fatal("undeclared pattern must fail")
	}
	if _, err := callOne(context.Background(), rs, "o", []string{"x"}); err == nil {
		t.Fatal("wrong input count must fail")
	}
	if st := rs.StatsSnapshot(); st.Calls != 0 {
		t.Errorf("contract violations must not burn replica calls: %+v", st)
	}
}

func TestReplicaSetFailsOver(t *testing.T) {
	bad := NewFlaky(replicaTable(t), FlakyConfig{FailEveryN: 1}) // always fails
	good := replicaTable(t)
	rs, err := NewReplicaSet(ReplicaConfig{Policy: RoundRobin{}}, bad, good)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		rows, err := callOne(context.Background(), rs, "o", nil)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if len(rows) != 2 {
			t.Fatalf("call %d rows = %v", i, rows)
		}
	}
	st := rs.ReplicaStats()
	if st[1].Failures != 0 || st[1].Calls == 0 {
		t.Errorf("healthy replica stats: %+v", st[1])
	}
	if st[0].Failures == 0 {
		t.Errorf("failing replica must record failures: %+v", st[0])
	}
}

func TestReplicaSetQuarantinesFailingReplica(t *testing.T) {
	bad := NewFlaky(replicaTable(t), FlakyConfig{FailEveryN: 1})
	good := replicaTable(t)
	rs, err := NewReplicaSet(ReplicaConfig{
		Breaker: BreakerConfig{Window: 4, Threshold: 2, Cooldown: time.Hour},
		Policy:  RoundRobin{},
	}, bad, good)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := callOne(context.Background(), rs, "o", nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := rs.ReplicaStats()[0].State; got != BreakerOpen {
		t.Fatalf("failing replica state = %v, want open", got)
	}
	// Quarantined replicas rank last: calls now go straight to the
	// healthy one, with no further traffic on the bad replica's schedule.
	before := bad.Injected()
	for i := 0; i < 5; i++ {
		if _, err := callOne(context.Background(), rs, "o", nil); err != nil {
			t.Fatal(err)
		}
	}
	if bad.Injected() != before {
		t.Errorf("quarantined replica still receives traffic: %d -> %d", before, bad.Injected())
	}
}

func TestReplicaSetExhaustion(t *testing.T) {
	mk := func() Source { return NewFlaky(replicaTable(t), FlakyConfig{FailEveryN: 1}) }
	rs, err := NewReplicaSet(ReplicaConfig{}, mk(), mk(), mk())
	if err != nil {
		t.Fatal(err)
	}
	_, err = callOne(context.Background(), rs, "o", nil)
	if err == nil {
		t.Fatal("all-replicas-failing call must fail")
	}
	if !errors.Is(err, ErrReplicasExhausted) {
		t.Errorf("err = %v, want ErrReplicasExhausted", err)
	}
	var re *ReplicasError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T, want *ReplicasError", err)
	}
	if re.Source != "R" || len(re.Tried) != 3 || len(re.Errs) != 3 {
		t.Errorf("exhaustion report: %+v", re)
	}
	if !IsTransient(err) {
		t.Error("exhaustion over transient member failures must stay transient")
	}
}

func TestReplicaSetExhaustionTerminal(t *testing.T) {
	// Terminal member failures (quarantine fast-fails) must not make the
	// combined error retryable.
	rs, err := NewReplicaSet(ReplicaConfig{
		Breaker: BreakerConfig{Window: 2, Threshold: 1, Cooldown: time.Hour},
	}, NewFlaky(replicaTable(t), FlakyConfig{FailEveryN: 1}), NewFlaky(replicaTable(t), FlakyConfig{FailEveryN: 1}))
	if err != nil {
		t.Fatal(err)
	}
	callOne(context.Background(), rs, "o", nil) // trips both breakers
	_, err = callOne(context.Background(), rs, "o", nil)
	if !errors.Is(err, ErrReplicasExhausted) {
		t.Fatalf("err = %v, want exhausted", err)
	}
	if IsTransient(err) {
		t.Error("breaker-rejected exhaustion must be terminal")
	}
	if !errors.Is(err, ErrBreakerOpen) {
		t.Error("member breaker errors must stay visible through the wrapper")
	}
}

func TestHealthiestFirstRanking(t *testing.T) {
	h := []ReplicaHealth{
		{Replica: "R#0", EWMALatency: 50 * time.Millisecond, Calls: 10},
		{Replica: "R#1", EWMALatency: time.Millisecond, Calls: 10},
		{Replica: "R#2", EWMALatency: time.Millisecond, Calls: 10, State: BreakerOpen},
	}
	order := HealthiestFirst{}.Rank(0, h)
	if order[0] != 1 || order[1] != 0 || order[2] != 2 {
		t.Errorf("order = %v, want [1 0 2] (fastest first, quarantined last)", order)
	}
	// High failure rate outranks even slower latency.
	h = []ReplicaHealth{
		{Replica: "R#0", EWMALatency: time.Millisecond, FailureRate: 1, Calls: 10},
		{Replica: "R#1", EWMALatency: 3 * time.Millisecond, Calls: 10},
	}
	if order := (HealthiestFirst{}).Rank(0, h); order[0] != 1 {
		t.Errorf("order = %v, want failing replica demoted", order)
	}
}

func TestHealthiestFirstRotatesBand(t *testing.T) {
	h := []ReplicaHealth{
		{Replica: "R#0", EWMALatency: time.Millisecond, Calls: 10},
		{Replica: "R#1", EWMALatency: time.Millisecond, Calls: 10},
	}
	seen := map[int]bool{}
	for tick := uint64(0); tick < 4; tick++ {
		seen[HealthiestFirst{}.Rank(tick, h)[0]] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("equally healthy replicas must share leadership, got %v", seen)
	}
}

func TestRoundRobinRanking(t *testing.T) {
	h := make([]ReplicaHealth, 3)
	for tick := uint64(0); tick < 3; tick++ {
		order := RoundRobin{}.Rank(tick, h)
		if order[0] != int(tick%3) {
			t.Errorf("tick %d leader = %d", tick, order[0])
		}
	}
	h[1].State = BreakerOpen
	order := RoundRobin{}.Rank(0, h)
	if order[2] != 1 {
		t.Errorf("quarantined replica must rank last: %v", order)
	}
}

func TestReplicaSetObservedLatency(t *testing.T) {
	clk := NewVirtualClock(time.Unix(0, 0))
	mkDelayed := func(d time.Duration) Source {
		del := NewDelayed(replicaTable(t), d)
		del.Now = clk.Now
		del.Sleep = clk.Sleep
		return del
	}
	rs, err := NewReplicaSet(ReplicaConfig{Now: clk.Now, Policy: RoundRobin{}}, mkDelayed(10*time.Millisecond), mkDelayed(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := callOne(context.Background(), rs, "o", nil)
			done <- err
		}()
		if !clk.AwaitSleepers(1, 5*time.Second) {
			t.Fatal("replica call never parked")
		}
		clk.Advance(10 * time.Millisecond)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	p99, ok := rs.ObservedLatency(0.99)
	if !ok {
		t.Fatal("8 samples must be enough for a percentile")
	}
	if p99 != 10*time.Millisecond {
		t.Errorf("p99 = %v, want 10ms", p99)
	}
	st := rs.ReplicaStats()
	if st[0].EWMALatency != 10*time.Millisecond {
		t.Errorf("EWMA = %v, want 10ms", st[0].EWMALatency)
	}
}

func TestReplicaCatalog(t *testing.T) {
	mkCat := func() *Catalog {
		return MustCatalog(
			MustTable("R", 1, []access.Pattern{"o"}, []Tuple{{"a"}}),
			MustTable("S", 2, []access.Pattern{"io"}, []Tuple{{"a", "b"}}),
		)
	}
	cat, sets, err := ReplicaCatalog(ReplicaConfig{}, mkCat(), mkCat(), mkCat())
	if err != nil {
		t.Fatal(err)
	}
	names := cat.Names()
	if len(names) != 2 || len(sets) != 2 {
		t.Fatalf("names=%v sets=%d", names, len(sets))
	}
	for i, n := range names {
		if sets[i].Name() != n {
			t.Errorf("set %d = %s, want %s (indexed like Names)", i, sets[i].Name(), n)
		}
		if sets[i].Replicas() != 3 {
			t.Errorf("set %s has %d replicas", n, sets[i].Replicas())
		}
	}
	if _, err := callOne(context.Background(), cat.Source("R"), "o", nil); err != nil {
		t.Fatal(err)
	}
	if st := cat.TotalStats(); st.Calls != 1 {
		t.Errorf("replica catalog must meter real traffic: %+v", st)
	}

	lopsided := MustCatalog(MustTable("R", 1, []access.Pattern{"o"}, nil))
	if _, _, err := ReplicaCatalog(ReplicaConfig{}, mkCat(), lopsided); err == nil {
		t.Error("catalogs with different schemas must be rejected")
	}
}

func TestReplicaSetConcurrentCalls(t *testing.T) {
	bad := NewFlaky(replicaTable(t), FlakyConfig{FailEveryN: 2})
	rs, err := NewReplicaSet(ReplicaConfig{}, bad, replicaTable(t), replicaTable(t))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := callOne(context.Background(), rs, "o", nil); err != nil {
					errCh <- fmt.Errorf("call: %w", err)
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	var calls int
	for _, st := range rs.ReplicaStats() {
		calls += st.Calls
	}
	if calls < 64 {
		t.Errorf("observed calls = %d, want >= 64", calls)
	}
}
