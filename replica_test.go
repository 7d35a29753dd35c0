package ucqn

// Replica-aware execution through the facade: with one replica of
// three killed or slowed, every paper example still returns the
// *complete* answer — failover and hedging mask the faulty replica
// instead of degrading the result.

import (
	"context"
	"testing"
	"time"

	"repro/internal/workload"
)

// brokenCatalog wraps every source of a fresh paperInstance catalog
// with the given fault injector config.
func brokenCatalog(t testing.TB, ps *PatternSet, cfg FlakyConfig) *Catalog {
	t.Helper()
	base := paperInstance(ps).MustCatalog(ps)
	var srcs []Source
	for _, name := range base.Names() {
		srcs = append(srcs, NewFlakySource(base.Source(name), cfg))
	}
	cat, err := NewCatalog(srcs...)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// slowCatalog wraps every source of a fresh paperInstance catalog with
// a fixed per-call delay.
func slowCatalog(t testing.TB, ps *PatternSet, d time.Duration) *Catalog {
	t.Helper()
	cat, err := DelayedCatalog(paperInstance(ps).MustCatalog(ps), d)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// replicated fronts every source of primary with a replica set whose
// backups are two healthy copies of the paper instance: one catalog,
// built once and shared by every Exec over it.
func replicated(t testing.TB, primary *Catalog, ps *PatternSet) *Catalog {
	t.Helper()
	cat, _, err := ReplicaCatalog(ReplicaConfig{}, primary,
		paperInstance(ps).MustCatalog(ps), paperInstance(ps).MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// healthyAnswer is the baseline: the underestimate evaluated against
// fault-free sources.
func healthyAnswer(t *testing.T, under Query, ps *PatternSet) *Rel {
	t.Helper()
	rel, err := execAnswer(under, ps, paperInstance(ps).MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// Every paper example, with the primary replica of every source dead
// (fast-failing): two healthy backups must keep the answer complete, in
// both materialized and streamed execution.
func TestExecReplicasSurviveDeadReplica(t *testing.T) {
	for _, ex := range workload.PaperExamples() {
		t.Run(ex.Name, func(t *testing.T) {
			under := Plan(ex.Query, ex.Patterns).Under
			want := healthyAnswer(t, under, ex.Patterns)

			for _, streamed := range []bool{false, true} {
				name := "materialized"
				if streamed {
					name = "streamed"
				}
				t.Run(name, func(t *testing.T) {
					cat := replicated(t, brokenCatalog(t, ex.Patterns, FlakyConfig{FailEveryN: 1}), ex.Patterns)
					opts := []ExecOption{WithRuntime(fastRuntime()), WithPartialResults()}
					if streamed {
						opts = append(opts, WithStreaming())
					}
					res, err := Exec(context.Background(), under, ex.Patterns, cat, opts...)
					if err != nil {
						t.Fatalf("replicated run failed: %v", err)
					}
					rel, err := res.Rel()
					if err != nil {
						t.Fatal(err)
					}
					if !rel.Equal(want) {
						t.Errorf("answer = %s, want the healthy %s", rel, want)
					}
					inc, ok := res.Incompleteness()
					if !ok {
						t.Fatal("no incompleteness report")
					}
					if !inc.Complete() {
						t.Errorf("with healthy backups the answer must be complete:\n%s", inc.String())
					}
				})
			}
		})
	}
}

// Every paper example, with one replica of three hung (calls block
// until cancelled): hedging must race past the hung replica and keep
// the answer complete.
func TestExecReplicasHedgePastHungReplica(t *testing.T) {
	for _, ex := range workload.PaperExamples() {
		t.Run(ex.Name, func(t *testing.T) {
			under := Plan(ex.Query, ex.Patterns).Under
			want := healthyAnswer(t, under, ex.Patterns)

			hung := replicated(t, brokenCatalog(t, ex.Patterns, FlakyConfig{FailEveryN: 1, Hang: true}), ex.Patterns)
			res, err := Exec(context.Background(), under, ex.Patterns, hung,
				WithRuntime(fastRuntime()),
				WithHedging(HedgePolicy{Delay: 2 * time.Millisecond}),
				WithPartialResults(), WithProfile())
			if err != nil {
				t.Fatalf("hedged run failed: %v", err)
			}
			rel, err := res.Rel()
			if err != nil {
				t.Fatal(err)
			}
			if !rel.Equal(want) {
				t.Errorf("answer = %s, want the healthy %s", rel, want)
			}
			inc, _ := res.Incompleteness()
			if !inc.Complete() {
				t.Errorf("hedging must keep the answer complete:\n%s", inc.String())
			}
		})
	}
}

// One slow replica of three: hedging keeps answers complete and equal
// to the healthy baseline, and each replica set reports its
// per-replica breakdown.
func TestExecReplicasHedgePastSlowReplica(t *testing.T) {
	ex := workload.PaperExamples()[0]
	under := Plan(ex.Query, ex.Patterns).Under
	want := healthyAnswer(t, under, ex.Patterns)

	slow := replicated(t, slowCatalog(t, ex.Patterns, 40*time.Millisecond), ex.Patterns)
	res, err := Exec(context.Background(), under, ex.Patterns, slow,
		WithHedging(HedgePolicy{Delay: time.Millisecond}),
		WithProfile())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := res.Rel()
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Equal(want) {
		t.Errorf("answer = %s, want %s", rel, want)
	}
	if _, ok := res.Profile(); !ok {
		t.Fatal("no profile")
	}
	sets := 0
	for _, name := range slow.Names() {
		if rs, ok := slow.Source(name).(*ReplicaSet); ok {
			sets++
			if n := len(rs.ReplicaStats()); n != 3 {
				t.Errorf("%s has %d replicas in the breakdown, want 3", name, n)
			}
		}
	}
	if sets == 0 {
		t.Fatal("the catalog must carry replica sets with a per-replica breakdown")
	}
}

// Per-source latency metering reaches the facade: a delayed source's
// stats report its per-call latency.
func TestExecSurfacesLatencyStats(t *testing.T) {
	q := MustParseQuery(`Q(x) :- R(x).`)
	ps := MustParsePatterns(`R^o`)
	in := NewInstance().MustAdd("R", "a")
	cat, err := DelayedCatalog(in.MustCatalog(ps), 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(context.Background(), q, ps, cat); err != nil {
		t.Fatal(err)
	}
	st := cat.TotalStats()
	if st.LatencyCalls != 1 {
		t.Fatalf("LatencyCalls = %d, want 1", st.LatencyCalls)
	}
	if st.MeanLatency() < 5*time.Millisecond {
		t.Errorf("mean latency = %s, want ≥ the injected 5ms", st.MeanLatency())
	}
}

// Option validation: hedging never combines with naive evaluation, and
// a backup catalog of another schema is no replica.
func TestExecReplicaOptionValidation(t *testing.T) {
	q := MustParseQuery(`Q(x) :- R(x).`)
	ps := MustParsePatterns(`R^o`)
	in := NewInstance().MustAdd("R", "a")
	if _, err := Exec(context.Background(), q, nil, nil, WithNaive(in), WithHedging(HedgePolicy{Delay: time.Millisecond})); err == nil {
		t.Error("WithNaive with WithHedging must fail")
	}
	other := NewInstance().MustAdd("S", "a")
	if _, _, err := ReplicaCatalog(ReplicaConfig{}, in.MustCatalog(ps), other.MustCatalog(MustParsePatterns(`S^o`))); err == nil {
		t.Error("a backup catalog with different relations must fail")
	}
}
