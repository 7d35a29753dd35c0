package adapter

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/access"
	"repro/internal/adapter/fakedb"
	"repro/internal/sources"
)

// Stats attribution through the resilience stack: however an adapter is
// wrapped — Cached over Breaker, Breaker over Cached, a ReplicaSet of
// wrapped adapters — Catalog.TotalStats must report exactly the
// adapter's own wire traffic, never doubled (two reporters counting the
// same round trip) and never dropped (a wrapper hiding the adapter).
func TestStackStatsAttribution(t *testing.T) {
	build := func(t *testing.T, tag string) (*SQL, *fakedb.Store) {
		dsn := "t_stack_" + tag
		st := fakedb.StoreFor(dsn)
		st.Reset()
		st.Load("rel", []string{"k", "v"}, [][]string{{"a", "1"}, {"b", "2"}, {"c", "3"}})
		src, err := Open(Spec{
			Name: "r", Arity: 2, Patterns: []string{"io"},
			Backend: "sql://fakedb/" + dsn, Table: "rel", Columns: []string{"k", "v"},
		})
		if err != nil {
			t.Fatal(err)
		}
		a := src.(*SQL)
		t.Cleanup(func() { a.Close() })
		return a, st
	}

	stacks := []struct {
		name string
		wrap func(t *testing.T, a *SQL) sources.Source
	}{
		{"bare", func(t *testing.T, a *SQL) sources.Source { return a }},
		{"cached_over_breaker", func(t *testing.T, a *SQL) sources.Source {
			return sources.NewCached(sources.NewBreaker(a, sources.BreakerConfig{}))
		}},
		{"breaker_over_cached", func(t *testing.T, a *SQL) sources.Source {
			return sources.NewBreaker(sources.NewCached(a), sources.BreakerConfig{})
		}},
		{"replicaset_of_wrapped", func(t *testing.T, a *SQL) sources.Source {
			rs, err := sources.NewReplicaSet(sources.ReplicaConfig{},
				sources.NewCached(sources.NewBreaker(a, sources.BreakerConfig{})))
			if err != nil {
				t.Fatal(err)
			}
			return rs
		}},
	}
	for _, tc := range stacks {
		t.Run(tc.name, func(t *testing.T) {
			a, st := build(t, tc.name)
			top := tc.wrap(t, a)
			cat, err := sources.NewCatalog(top)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			p := access.Pattern("io")
			// A plain call, a repeat (cache hit where a cache is present),
			// and a batch through the whole stack.
			if _, err := callOne(ctx, top, p, []string{"a"}); err != nil {
				t.Fatal(err)
			}
			if _, err := callOne(ctx, top, p, []string{"a"}); err != nil {
				t.Fatal(err)
			}
			if !top.Batches() {
				t.Fatalf("%s stack lost batch capability", tc.name)
			}
			groups, err := top.Call(ctx, p, [][]string{{"b"}, {"c"}})
			if err != nil {
				t.Fatal(err)
			}
			if len(groups) != 2 || len(groups[0]) != 1 || len(groups[1]) != 1 {
				t.Fatalf("batch through stack: %v", groups)
			}
			total := cat.TotalStats()
			own := a.StatsSnapshot()
			if total != own {
				t.Fatalf("TotalStats %+v != adapter stats %+v (double count or drop)", total, own)
			}
			if own.RoundTrips == 0 || own.Calls == 0 {
				t.Fatalf("adapter metered nothing: %+v", own)
			}
			if int64(own.RoundTrips) != st.Queries() {
				t.Fatalf("adapter round trips %d vs store queries %d", own.RoundTrips, st.Queries())
			}
			// Reset through the stack reaches the adapter.
			cat.ResetStats()
			if got := a.StatsSnapshot(); got != (sources.Stats{}) {
				t.Fatalf("ResetStats did not reach the adapter: %+v", got)
			}
		})
	}
}

// A breaker above an adapter must open on repeated backend faults and
// recover after cooldown — external backends introduce no new failure
// class the stack cannot absorb.
func TestStackBreakerOpensOnBackendFaults(t *testing.T) {
	dsn := "t_stack_faults"
	st := fakedb.StoreFor(dsn)
	st.Reset()
	st.Load("rel", []string{"k", "v"}, [][]string{{"a", "1"}})
	src, err := Open(Spec{
		Name: "r", Arity: 2, Patterns: []string{"io"},
		Backend: "sql://fakedb/" + dsn, Table: "rel", Columns: []string{"k", "v"},
	})
	if err != nil {
		t.Fatal(err)
	}
	brk := sources.NewBreaker(src, sources.BreakerConfig{Window: 4, Threshold: 2})
	st.FailNext(10, fmt.Errorf("connection refused"))
	sawOpen := false
	for i := 0; i < 10; i++ {
		_, err := callOne(context.Background(), brk, access.Pattern("io"), []string{"a"})
		if err == nil {
			t.Fatal("faulted backend answered")
		}
		if errors.Is(err, sources.ErrBreakerOpen) {
			sawOpen = true
			break
		}
		if !sources.IsTransient(err) {
			t.Fatalf("backend fault escaped transient classification: %v", err)
		}
	}
	if !sawOpen {
		t.Fatal("breaker never opened on repeated backend faults")
	}
}
