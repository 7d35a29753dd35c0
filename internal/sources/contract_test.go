package sources_test

import (
	"testing"
	"time"

	"repro/internal/sources"
	"repro/internal/sources/sourcetest"
)

// fixture builds a conformance fixture for a stack over the given
// leaves: metering, wire traffic and fault injection all live in the
// leaves, whatever is stacked on top.
func fixture(name string, batches bool, src sources.Source, leaves ...*sourcetest.Leaf) sourcetest.Fixture {
	meter := func() sources.Stats {
		var total sources.Stats
		for _, l := range leaves {
			total.Add(l.StatsSnapshot())
		}
		return total
	}
	return sourcetest.Fixture{
		Name: name, Src: src, Batches: batches, Meter: meter,
		Wire: func() int { return meter().Calls },
		Fail: func() {
			for _, l := range leaves {
				l.FailNext()
			}
		},
	}
}

// Every implementation and every wrapper stack in this package meets
// the one Source contract, and forwards the batching property of the
// source at the bottom of the stack.
func TestSourceContract(t *testing.T) {
	replicas := func(leaves ...*sourcetest.Leaf) sources.Source {
		srcs := make([]sources.Source, len(leaves))
		for i, l := range leaves {
			srcs[i] = l
		}
		rs, err := sources.NewReplicaSet(sources.ReplicaConfig{}, srcs...)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	brk := sources.BreakerConfig{Window: 32, Threshold: 32} // never opens here

	table := sources.MustTable("r", 2, sourcetest.Patterns, sourcetest.Rows)
	fixtures := []sourcetest.Fixture{{
		Name: "Table", Src: table, Meter: table.StatsSnapshot,
		Wire: func() int { return table.StatsSnapshot().Calls },
	}}
	for _, b := range []bool{false, true} {
		kind := map[bool]string{false: "/plain", true: "/batching"}[b]
		one := func(name string, batches bool, wrap func(sources.Source) sources.Source) {
			x := sourcetest.NewLeaf(b)
			fixtures = append(fixtures, fixture(name+kind, batches, wrap(x), x))
		}
		one("Leaf", b, func(s sources.Source) sources.Source { return s })
		one("Cached", b, func(s sources.Source) sources.Source { return sources.NewCached(s) })
		one("Breaker", b, func(s sources.Source) sources.Source { return sources.NewBreaker(s, brk) })
		one("Delayed", b, func(s sources.Source) sources.Source { return sources.NewDelayed(s, time.Millisecond) })
		one("Flaky", false, func(s sources.Source) sources.Source { return sources.NewFlaky(s, sources.FlakyConfig{}) })
		one("Breaker(Cached)", b, func(s sources.Source) sources.Source {
			return sources.NewBreaker(sources.NewCached(s), brk)
		})
		x, y := sourcetest.NewLeaf(b), sourcetest.NewLeaf(b)
		fixtures = append(fixtures, fixture("ReplicaSet"+kind, b, replicas(x, y), x, y))
	}
	px, by := sourcetest.NewLeaf(false), sourcetest.NewLeaf(true)
	fixtures = append(fixtures, fixture("ReplicaSet/mixed", false, replicas(by, px), by, px))

	for _, f := range fixtures {
		t.Run(f.Name, func(t *testing.T) { sourcetest.Contract(t, f) })
	}
}
