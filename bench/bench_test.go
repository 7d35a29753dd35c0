package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	ucqn "repro"
	"repro/internal/server"
)

func TestTailRank(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{2000, 1980}, // p99 has 20 samples beyond it
		{1000, 990},  // p99 has exactly ten
		{999, 989},   // p99 would have nine: fall back to ten beyond
		{240, 230},
		{5, 1},
	} {
		if got := tailRank(c.n); got != c.want {
			t.Errorf("tailRank(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestWindowStatsTakesMedians(t *testing.T) {
	// Five windows of 20 responses; the third runs at a tenth of the
	// speed and ten times the latency and must not move the result.
	var samples []sample
	end := time.Duration(0)
	for w := 0; w < windows; w++ {
		gap, lat := time.Millisecond, 100*time.Microsecond
		if w == 2 {
			gap, lat = 10*time.Millisecond, time.Millisecond
		}
		for i := 0; i < 20; i++ {
			end += gap
			samples = append(samples, sample{end: end, lat: lat})
		}
	}
	got := windowStats(samples)
	if math.Abs(got.throughput-1000) > 1e-6 || got.p50 != 100*time.Microsecond || got.tail != 100*time.Microsecond {
		t.Errorf("windowStats = %+v, want 1000 req/s and 100µs", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
}

func TestSelfTimeIsIntervalUnion(t *testing.T) {
	at := func(v int) time.Duration { return time.Duration(v) }
	spans := []span{
		{name: "parent", parent: -1, start: at(0), end: at(100)},
		{name: "a", parent: 0, start: at(10), end: at(30)},
		{name: "overlaps a", parent: 0, start: at(20), end: at(50)},
		{name: "inside a", parent: 0, start: at(12), end: at(18)},
		{name: "b", parent: 0, start: at(60), end: at(70)},
		{name: "outlives parent", parent: 0, start: at(90), end: at(120)},
		{name: "grandchild", parent: 4, start: at(62), end: at(66)},
	}
	self := selfTimes(spans)
	// Children cover [10,50] + [60,70] + [90,100] = 60 of the parent's 100.
	if self[0] != at(40) {
		t.Errorf("parent self time = %d, want 40", self[0])
	}
	if self[4] != at(6) {
		t.Errorf("b self time = %d, want 6 (10 minus its grandchild's 4)", self[4])
	}
	if self[1] != at(20) {
		t.Errorf("leaf self time = %d, want its duration 20", self[1])
	}
}

// sequenceHash fingerprints the first n requests client 0 of 1 issues.
func (s *spec) sequenceHash(n int) uint64 {
	h := fnv.New64a()
	next := s.next(0, 1)
	for i := 0; i < n; i++ {
		r := &s.requests[next()]
		fmt.Fprintf(h, "%s\x00%s\x00", s.tenants[r.tenant].name, r.query)
	}
	return h.Sum64()
}

func TestSequencesFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		build := func(seed int64) uint64 {
			s, err := w.build(seed)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			return s.sequenceHash(500)
		}
		one := build(1)
		if again := build(1); again != one {
			t.Errorf("%s: seed 1 gave two different request sequences", w.name)
		}
		if other := build(2); other == one {
			t.Errorf("%s: seeds 1 and 2 gave the same request sequence", w.name)
		}
	}
}

func TestColdPlanTexts(t *testing.T) {
	s, err := buildColdPlan(7)
	if err != nil {
		t.Fatal(err) // a text that does not parse or has no ground truth
	}
	if len(s.requests) != coldPlanTexts {
		t.Fatalf("%d texts, want %d", len(s.requests), coldPlanTexts)
	}
	ps := ucqn.MustParsePatterns(server.FixturePatterns)
	seen := map[string]bool{}
	negated, nonEmpty := 0, 0
	for _, r := range s.requests {
		if seen[r.query] {
			t.Fatalf("text repeats: %s", r.query)
		}
		seen[r.query] = true
		q, err := ucqn.ParseQuery(r.query)
		if err != nil {
			t.Fatalf("%s: %v", r.query, err)
		}
		if !ucqn.Orderable(q, ps) {
			t.Fatalf("not orderable under %s: %s", server.FixturePatterns, r.query)
		}
		if n := len(q.Rules); n < 1 || n > 3 {
			t.Fatalf("%d disjuncts: %s", n, r.query)
		}
		minimal := ucqn.MinimizeUnion(q)
		for i, rule := range q.Rules {
			if n := len(rule.Body); n < 3 || n > 7 {
				t.Fatalf("disjunct of %d literals: %s", n, r.query)
			}
			if i < len(minimal.Rules) && len(minimal.Rules) == len(q.Rules) && len(minimal.Rules[i].Body) >= len(rule.Body) {
				t.Fatalf("disjunct %d has no redundant literal: %s", i, r.query)
			}
		}
		if strings.Contains(r.query, "not ") {
			negated++
		}
		if len(r.truth) > 0 {
			nonEmpty++
		}
	}
	if negated*3 < coldPlanTexts {
		t.Errorf("%d of %d texts have a negated literal, want at least a third", negated, coldPlanTexts)
	}
	if nonEmpty*2 < coldPlanTexts {
		t.Errorf("only %d of %d texts have answers", nonEmpty, coldPlanTexts)
	}
}

func TestManifestIsBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json is not what `bench -manifest` prints; regenerate it")
	}
}

// TestSmoke runs every workload in both modes, briefly, and checks that
// each emits exactly the metrics BENCHMARK.json lists for the mode.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots thirty-odd servers")
	}
	for w, def := range workloads {
		timed, err := runTimed(w, 1, 300*time.Millisecond, 2)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		s, err := def.build(1)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		s.tracedN = 40 + s.invalidateEvery // one invalidation on churn_persist
		traced, err := runTraced(s)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		for _, res := range []*result{timed, traced} {
			if res.Workload != def.name || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s -trace %d: %+v", def.name, res.Trace, res)
			}
			if err := res.print(); err != nil { // every listed metric was measured
				t.Error(err)
			}
			if len(res.Metrics) != len(defs(res.Trace)) {
				t.Errorf("%s -trace %d: %d metrics measured, %d listed", def.name, res.Trace, len(res.Metrics), len(defs(res.Trace)))
			}
		}
	}
}
