package ucqn

// Exec facade tests: option plumbing, contradictory combinations
// rejected up front, the streaming path draining to the same answers,
// and the runtime's batch knobs.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sources/sourcetest"
)

// execFixture returns a two-rule union with shared lookups, its
// patterns, and a loaded instance.
func execFixture(t *testing.T) (Query, *PatternSet, *Instance) {
	t.Helper()
	q := MustParseQuery(`
		Q(x, y) :- R(x, z), T(z, y).
		Q(x, y) :- S(x, y), not L(x).
	`)
	ps := MustParsePatterns(`R^oo T^io S^oo L^i`)
	in := NewInstance()
	for i := 0; i < 40; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%5))
	}
	for z := 0; z < 5; z++ {
		in.MustAdd("T", fmt.Sprintf("z%d", z), fmt.Sprintf("y%d", z))
	}
	in.MustAdd("S", "s1", "t1").MustAdd("S", "s2", "t2").MustAdd("L", "s2")
	return q, ps, in
}

// execAnswer materializes q through the default Exec path.
func execAnswer(q Query, ps *PatternSet, cat *Catalog) (*Rel, error) {
	res, err := Exec(context.Background(), q, ps, cat)
	if err != nil {
		return nil, err
	}
	return res.Rel()
}

// execNaive evaluates q directly over the instance through Exec.
func execNaive(q Query, in *Instance) (*Rel, error) {
	res, err := Exec(context.Background(), q, nil, nil, WithNaive(in))
	if err != nil {
		return nil, err
	}
	return res.Rel()
}

// execProfiled materializes q with per-step accounting through Exec.
func execProfiled(q Query, ps *PatternSet, cat *Catalog) (*Rel, ExecProfile, error) {
	res, err := Exec(context.Background(), q, ps, cat, WithProfile())
	if err != nil {
		return nil, ExecProfile{}, err
	}
	rel, err := res.Rel()
	if err != nil {
		return nil, ExecProfile{}, err
	}
	prof, _ := res.Profile()
	return rel, prof, nil
}

// execStar runs Exec and returns its ANSWER* report.
func execStar(q Query, ps *PatternSet, cat *Catalog) (Report, error) {
	res, err := Exec(context.Background(), q, ps, cat)
	if err != nil {
		return Report{}, err
	}
	star, _ := res.Report()
	return star, nil
}

// execStarUnder is ANSWER* under inclusion dependencies through Exec.
func execStarUnder(q Query, ps *PatternSet, cat *Catalog, inds INDSet) (Report, error) {
	res, err := Exec(context.Background(), inds.OptimizeChase(q), ps, cat)
	if err != nil {
		return Report{}, err
	}
	star, _ := res.Report()
	return star, nil
}

// execImproveUnder is ANSWER* plus domain-enumeration improvement
// through Exec.
func execImproveUnder(q Query, ps *PatternSet, cat *Catalog, maxCalls int) (*Rel, Report, DomResult, error) {
	res, err := Exec(context.Background(), q, ps, cat, WithImproveUnder(maxCalls))
	if err != nil {
		return nil, Report{}, DomResult{}, err
	}
	rel, err := res.Rel()
	if err != nil {
		return nil, Report{}, DomResult{}, err
	}
	star, _ := res.Report()
	_, dom, _ := res.Improved()
	return rel, star, dom, nil
}

func TestExecDefaultAndProfile(t *testing.T) {
	q, ps, in := execFixture(t)
	want, err := execNaive(q, in)
	if err != nil {
		t.Fatal(err)
	}
	seqCat := in.MustCatalog(ps)
	if _, err := execAnswer(q, ps, seqCat); err != nil {
		t.Fatal(err)
	}
	wantCalls := seqCat.TotalStats().Calls
	cases := []struct {
		name     string
		opts     []ExecOption
		profiled bool
	}{
		{"default", nil, false},
		{"parallel rules", []ExecOption{WithParallelRules()}, false},
		{"profile", []ExecOption{WithProfile()}, true},
		{"profile + parallel rules", []ExecOption{WithProfile(), WithParallelRules()}, true},
	}
	for _, c := range cases {
		cat := in.MustCatalog(ps)
		res, err := Exec(context.Background(), q, ps, cat, c.opts...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, err := res.Rel(); err != nil || !got.Equal(want) {
			t.Errorf("%s: Exec = %s (%v), want %s", c.name, got, err, want)
		}
		if res.Stream() != nil {
			t.Errorf("%s: Stream must be nil without WithStreaming", c.name)
		}
		if got := cat.TotalStats().Calls; got != wantCalls {
			t.Errorf("%s: %d source calls, want the sequential run's %d", c.name, got, wantCalls)
		}
		prof, ok := res.Profile()
		if ok != c.profiled {
			t.Fatalf("%s: Profile ok = %v, want %v", c.name, ok, c.profiled)
		}
		if !c.profiled {
			continue
		}
		if len(prof.Rules) != len(q.Rules) {
			t.Errorf("%s: %d rule profiles, want one per rule (%d)", c.name, len(prof.Rules), len(q.Rules))
		}
		if prof.Elapsed <= 0 || prof.Calls.Total != wantCalls {
			t.Errorf("%s: profile must carry wall-clock time and the run's traffic: %+v", c.name, prof)
		}
	}
}

func TestExecAnswerStar(t *testing.T) {
	q, ps, in := execFixture(t)
	want, err := execNaive(q, in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(context.Background(), q, ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	star, ok := res.Report()
	if !ok {
		t.Fatal("Star must be populated")
	}
	rel, err := res.Rel()
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Equal(star.Under) {
		t.Errorf("Rel must be the underestimate: %s vs %s", rel, star.Under)
	}
	// The fixture is feasible, so the underestimate is the answer.
	if !rel.Equal(want) {
		t.Errorf("underestimate = %s, want ground truth %s", rel, want)
	}
}

// starFixture is Example 4's union — rule 1 is dismissed from the
// underestimate and overestimated with a null — over an instance on
// which Δ is not empty.
func starFixture(t *testing.T) (Query, *PatternSet, *Instance) {
	t.Helper()
	q := MustParseQuery(`
		Q(x, y) :- not S(z), R(x, z), B(x, y).
		Q(x, y) :- T(x, y).
	`)
	ps := MustParsePatterns(`S^o R^oo B^oi T^oo`)
	in := NewInstance()
	in.MustAdd("R", "x1", "z1").MustAdd("R", "x2", "z2").MustAdd("S", "z2")
	in.MustAdd("B", "x1", "y1").MustAdd("T", "t1", "t2").MustAdd("T", "t3", "t4")
	return q, ps, in
}

// ANSWER* is one execution on the driver every Exec runs, so the
// execution options mean under it what they mean without it.
func TestExecAnswerStarCombines(t *testing.T) {
	q, ps, in := starFixture(t)
	ctx := context.Background()
	want, err := execStar(q, ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	if want.Complete() || want.Under.Len() != 2 || !want.Delta.HasNull() {
		t.Fatalf("fixture must leave a null-carrying Δ beside two certain answers:\n%s", want.String())
	}
	naive, err := execNaive(q, in)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("profile", func(t *testing.T) {
		cat := in.MustCatalog(ps)
		res, err := Exec(ctx, q, ps, cat, WithProfile())
		if err != nil {
			t.Fatal(err)
		}
		prof, ok := res.Profile()
		if !ok || len(prof.Rules) != 2 || prof.Calls.Total != cat.TotalStats().Calls {
			t.Errorf("profile = %d rules, %d calls (ok=%v), want the one run of Qᵒ: 2 rules, the catalog's %d calls", len(prof.Rules), prof.Calls.Total, ok, cat.TotalStats().Calls)
		}
	})

	t.Run("parallel", func(t *testing.T) {
		res, err := Exec(ctx, q, ps, in.MustCatalog(ps), WithParallelRules())
		if err != nil {
			t.Fatal(err)
		}
		if star, ok := res.Report(); !ok {
			t.Error("Star must be populated")
		} else if star.String() != want.String() {
			t.Errorf("parallel report:\n%s\nwant the sequential one:\n%s", star.String(), want.String())
		}
	})

	t.Run("streaming", func(t *testing.T) {
		cat := in.MustCatalog(ps)
		// The first call blocks until released, so the stream cannot have
		// ended when the report is asked for.
		release := make(chan struct{})
		cat.Source("S").(*Table).OnCall = func(Pattern, []string) { <-release }
		res, err := Exec(ctx, q, ps, cat, WithStreaming())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := res.Report(); ok {
			t.Error("Star must not report before the stream has ended")
		}
		close(release)
		got, err := res.Rel() // drains
		if err != nil {
			t.Fatal(err)
		}
		g, w := got.Rows(), want.Under.Rows()
		if len(g) != len(w) {
			t.Fatalf("stream carried %d rows, want the underestimate's %d", len(g), len(w))
		}
		for i := range g {
			if g[i].Key() != w[i].Key() {
				t.Fatalf("row %d = %s, want %s (the materialized Under, in order)", i, g[i], w[i])
			}
		}
		if star, ok := res.Report(); !ok {
			t.Error("Star must report once the stream has ended")
		} else if star.String() != want.String() {
			t.Errorf("drained report:\n%s\nwant the materialized one:\n%s", star.String(), want.String())
		}
	})

	t.Run("partial", func(t *testing.T) {
		cat, _, _ := killSource(t, in, ps, "R")
		if _, err := Exec(ctx, q, ps, cat, WithRuntime(fastRuntime())); err == nil {
			t.Fatal("strict ANSWER* must fail with a dead source")
		}
		res, err := Exec(ctx, q, ps, cat, WithRuntime(fastRuntime()), WithPartialResults())
		if err != nil {
			t.Fatalf("partial ANSWER* must degrade, not fail: %v", err)
		}
		star, ok := res.Report()
		if !ok {
			t.Fatal("Star must be populated")
		}
		if star.Certified || star.Complete() || star.RatioValid {
			t.Fatalf("a dropped disjunct must leave the overestimate uncertified:\n%s", star.String())
		}
		if star.Under.Len() != 2 {
			t.Errorf("underestimate = %s, want the surviving complete rule's 2 rows", star.Under)
		}
		for _, row := range star.Under.Rows() {
			if !naive.Contains(row) {
				t.Errorf("degraded underestimate row %s is no answer", row)
			}
		}
		inc, ok := res.Incompleteness()
		if !ok || inc.Complete() {
			t.Fatalf("incompleteness = %+v/%v, want the recorded failure", inc, ok)
		}
		if got := inc.FailedSources(); len(got) != 1 || got[0] != "R" {
			t.Errorf("FailedSources = %v, want [R]", got)
		}
	})
}

func TestExecImproveUnder(t *testing.T) {
	// S(y, x) is unanswerable as written (y has no binder), so PLAN*
	// under-approximates; domain enumeration re-admits it through dom(y).
	q := MustParseQuery(`Q(x) :- R(x), S(y, x).`)
	ps := MustParsePatterns(`R^o S^io`)
	in := NewInstance().MustAdd("R", "a").MustAdd("R", "b").MustAdd("S", "a", "b")
	want, err := execNaive(q, in)
	if err != nil {
		t.Fatal(err)
	}
	cat, verify := sourcetest.ReadOnlyCatalog(in.MustCatalog(ps))
	res, err := Exec(context.Background(), q, ps, cat, WithImproveUnder(100))
	if err != nil {
		t.Fatal(err)
	}
	verify(t) // ANSWER* and the domain enumeration only read the sources' rows
	if rel, err := res.Rel(); err != nil || !rel.Equal(want) {
		t.Errorf("improved = %s (%v), want ground truth %s", rel, err, want)
	}
	if _, dom, ok := res.Improved(); !ok || dom.Calls == 0 {
		t.Errorf("Improved must be populated with WithImproveUnder: %+v, %v", dom, ok)
	}
	if star, ok := res.Report(); !ok || star.Under.Equal(want) {
		t.Error("WithImproveUnder implies the ANSWER* report, whose underestimate is strictly smaller here")
	}
}

// Q(y) :- S(x, y) under S^io has an empty answerable part: its plan is
// Qᵒ = Q(null) :- true, a rule with no steps that yields the one empty
// binding. ANSWER* answers it — Qᵘ = false, ansₒ = {(null)},
// Δ = {(null)} — alone and inside a union, materialized, streamed and
// through a query cache.
func TestExecEmptyAnswerablePart(t *testing.T) {
	ps := MustParsePatterns(`R^oo S^io`)
	in := NewInstance().MustAdd("R", "a", "b").MustAdd("R", "c", "d").MustAdd("S", "b", "e")
	for _, c := range []struct {
		query string
		under []string
	}{
		{`Q(y) :- S(x, y).`, nil},
		{"Q(y) :- R(x, y).\nQ(y) :- S(x, y).", []string{"b", "d"}},
	} {
		q := MustParseQuery(c.query)
		want := NewRel()
		for _, v := range c.under {
			want.Add(RowOf(v))
		}
		qc := NewQueryCache(QueryCacheOptions{})
		for _, mode := range []struct {
			name string
			opts []ExecOption
		}{
			{"materialized", nil},
			{"streamed", []ExecOption{WithStreaming()}},
			{"cached miss", []ExecOption{WithQueryCache(qc)}},
			{"cached hit", []ExecOption{WithQueryCache(qc)}},
			{"cached, streamed", []ExecOption{WithQueryCache(qc), WithStreaming()}},
		} {
			res, err := Exec(context.Background(), q, ps, in.MustCatalog(ps), mode.opts...)
			if err != nil {
				t.Fatalf("%q, %s: %v", c.query, mode.name, err)
			}
			rel, err := res.Rel()
			if err != nil {
				t.Fatalf("%q, %s: %v", c.query, mode.name, err)
			}
			star, ok := res.Report()
			if !ok || !rel.Equal(want) || !star.Under.Equal(want) || star.Complete() ||
				star.Over.Len() != want.Len()+1 || star.Delta.Len() != 1 || !star.Delta.HasNull() {
				t.Errorf("%q, %s: answer %s, report (ok=%v):\n%s\nwant the underestimate %s and Δ = {(null)}", c.query, mode.name, rel, ok, star.String(), want)
			}
		}
	}
}

func TestExecStreaming(t *testing.T) {
	q, ps, in := execFixture(t)
	want, err := execAnswer(q, ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []bool{false, true} {
		opts := []ExecOption{WithStreaming(), WithProfile()}
		if parallel {
			opts = append(opts, WithParallelRules())
		}
		res, err := Exec(context.Background(), q, ps, in.MustCatalog(ps), opts...)
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stream()
		if s == nil {
			t.Fatal("Stream must be non-nil with WithStreaming")
		}
		if _, ok := res.Profile(); ok {
			t.Error("streamed profile must not be complete before draining")
		}
		got, err := res.Rel() // drains
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("streamed (parallel=%v) = %s, want %s", parallel, got, want)
		}
		again, err := res.Rel() // cached after the drain
		if err != nil || again != got {
			t.Errorf("second Rel must reuse the drained set: %v", err)
		}
		prof, ok := res.Profile()
		if !ok {
			t.Fatal("streamed profile must be complete after draining")
		}
		if prof.TimeToFirst <= 0 {
			t.Error("streamed profile must record time to first tuple")
		}
	}
}

// A stream reports once it has run to its end, however it was read: a
// Next loop and Close leave the report of a plan that dismissed no rule
// readable — complete, every rule survived — with Under and Over unset,
// since the stream keeps no copy of the rows it handed out. Run by `make
// fault-smoke` under -race: the driver goroutine builds the report the
// consumer reads.
func TestStreamReportAfterNext(t *testing.T) {
	q, ps, in := execFixture(t)
	want, err := execAnswer(q, ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []bool{false, true} {
		opts := []ExecOption{WithStreaming()}
		if parallel {
			opts = append(opts, WithParallelRules())
		}
		res, err := Exec(context.Background(), q, ps, in.MustCatalog(ps), opts...)
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stream()
		n := 0
		for s.Next() {
			n++
		}
		if err := s.Close(); err != nil || n != want.Len() {
			t.Fatalf("parallel=%v: Next read %d rows (%v), want %d", parallel, n, err, want.Len())
		}
		rep, ok := res.Report()
		if !ok {
			t.Fatalf("parallel=%v: no report after the stream ran to its end", parallel)
		}
		if srep, sok := s.Report(); !sok || srep.String() != rep.String() {
			t.Errorf("parallel=%v: Stream.Report = %v, want Result.Report's", parallel, sok)
		}
		if !rep.Complete() || rep.Degraded() || len(rep.Failed) != 0 || rep.RulesTotal != len(q.Rules) || rep.RulesSurvived != len(q.Rules) {
			t.Errorf("parallel=%v: report %+v, want complete with every rule survived", parallel, rep)
		}
		if rep.Under != nil || rep.Over != nil {
			t.Errorf("parallel=%v: a stream read with Next must not keep its rows for the report", parallel)
		}
		if text := rep.String(); !strings.HasPrefix(text, "answer tuples (underestimate): rows not kept\n") || strings.Contains(text, "underestimate, 0") {
			t.Errorf("parallel=%v: report text %q does not say the rows were not kept", parallel, text)
		}
		if err := ReportInvariants(rep, true); err != nil {
			t.Errorf("parallel=%v: %v", parallel, err)
		}
	}
}

// A cost-ordered query (CostOrder before Exec) answers as written.
func TestExecWithStats(t *testing.T) {
	q, ps, in := execFixture(t)
	st := StatsFromCardinalities(map[string]int{"R": 40, "T": 5, "S": 2, "L": 1})
	want, err := execAnswer(q, ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	ordered, _ := CostOrder(q, ps, st)
	res, err := Exec(context.Background(), ordered, ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Rel()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("cost-ordered Exec = %s, want %s", got, want)
	}
}

func TestExecWithRuntimeKnobs(t *testing.T) {
	q, ps, in := execFixture(t)
	rt := NewRuntime()
	rt.BatchSize, rt.StageBuffer = 4, 2
	want, err := execAnswer(q, ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(context.Background(), q, ps, in.MustCatalog(ps), WithRuntime(rt), WithStreaming())
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Rel()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("Exec with runtime knobs = %s, want %s", got, want)
	}
}

func TestExecWithBatchSize(t *testing.T) {
	q, ps, in := execFixture(t)
	want, err := execAnswer(q, ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 1024} {
		rt := NewRuntime()
		rt.BatchSize, rt.StageBuffer = n, 2
		res, err := Exec(context.Background(), q, ps, in.MustCatalog(ps), WithRuntime(rt), WithStreaming())
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Rel()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("BatchSize %d = %s, want %s", n, got, want)
		}
	}
}

func TestExecRejectsContradictoryOptions(t *testing.T) {
	q, ps, in := execFixture(t)
	cat := in.MustCatalog(ps)
	cases := []struct {
		name string
		opts []ExecOption
	}{
		{"naive+streaming", []ExecOption{WithNaive(in), WithStreaming()}},
		{"naive+improve", []ExecOption{WithNaive(in), WithImproveUnder(10)}},
		{"naive+runtime", []ExecOption{WithNaive(in), WithRuntime(NewRuntime())}},
		{"improve+streaming", []ExecOption{WithImproveUnder(10), WithStreaming()}},
		{"naive+partial", []ExecOption{WithNaive(in), WithPartialResults()}},
	}
	for _, c := range cases {
		if _, err := Exec(context.Background(), q, ps, cat, c.opts...); err == nil {
			t.Errorf("%s: contradictory options must be rejected", c.name)
		}
	}
}

func TestExecHonorsContext(t *testing.T) {
	q, ps, in := execFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Exec(ctx, q, ps, in.MustCatalog(ps)); err == nil {
		t.Error("cancelled context must abort materialized Exec")
	}
	if _, err := Exec(ctx, q, nil, nil, WithNaive(in)); err == nil {
		t.Error("cancelled context must abort naive Exec")
	}
}

// Values holding the key separator or escape byte stay apart end to
// end: two K facts whose values joined by \x1f read alike are two
// answers, whether the catalog is in memory, the answer comes from the
// query cache, or the relations are SQL adapters that demultiplex one
// batched statement.
func TestKeysAreInjectiveEndToEnd(t *testing.T) {
	facts := [][]string{{"a\x1fb", "c", "1"}, {"a", "b\x1fc", "2"}}
	q := MustParseQuery(`Q(x, y, v) :- K(x, y), L(x, y, v).`)
	ps := MustParsePatterns(`K^oo L^iio`)
	in := NewInstance()
	for _, f := range facts {
		in.MustAdd("K", f[0], f[1]).MustAdd("L", f...)
	}
	answer := func(label string, cat *Catalog, opts ...ExecOption) {
		t.Helper()
		res, err := Exec(context.Background(), q, ps, cat, opts...)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		rel, err := res.Rel()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if rel.Len() != 2 || !rel.Contains(RowOf(facts[0]...)) || !rel.Contains(RowOf(facts[1]...)) {
			t.Errorf("%s: answer %q, want both facts", label, rel.Rows())
		}
	}
	mem := in.MustCatalog(ps)
	answer("in memory", mem)
	qc := NewQueryCache(QueryCacheOptions{})
	answer("cached, miss", mem, WithQueryCache(qc))
	answer("cached, hit", mem, WithQueryCache(qc))
	sqlCat := mirrorSQLCatalog(t, in, ps, "keys")
	answer("sql", sqlCat)
	// K's two tuples, then one L tuple for each vector of the one batch.
	if st := sqlCat.TotalStats(); st.TuplesReturned != 4 || st.RoundTrips != 2 {
		t.Errorf("sql: %d tuples in %d round trips, want 4 in 2", st.TuplesReturned, st.RoundTrips)
	}
}

// A runtime's per-source cap spans every execution on it: an Exec's
// budget and hedge policy are its own options, not a copy of the
// runtime with limiters of its own. Two concurrent Execs on one runtime
// with PerSource 1 never have two calls in flight on T, under a budget
// or hedged over replicas (with a delay no call reaches, so every call
// is one leg).
func TestPerSourceCapSpansExecutions(t *testing.T) {
	q := MustParseQuery(`Q(x, y) :- R(x), T(x, y).`)
	ps := MustParsePatterns(`R^o T^io`)
	in := NewInstance()
	for i := 0; i < 16; i++ {
		x := fmt.Sprintf("x%d", i)
		in.MustAdd("R", x).MustAdd("T", x, "y"+x)
	}
	var cur, peak atomic.Int64
	// slowT makes every T call of cat last a millisecond and records
	// the peak number in flight.
	slowT := func(cat *Catalog) *Catalog {
		cat.Source("T").(*Table).OnCall = func(Pattern, []string) {
			n := cur.Add(1)
			for m := peak.Load(); n > m && !peak.CompareAndSwap(m, n); m = peak.Load() {
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		}
		return cat
	}
	replicated := func() *Catalog {
		cat, _, err := ReplicaCatalog(ReplicaConfig{}, slowT(in.MustCatalog(ps)), slowT(in.MustCatalog(ps)))
		if err != nil {
			t.Fatal(err)
		}
		return cat
	}
	for _, c := range []struct {
		name string
		cat  func() *Catalog
		opt  ExecOption
	}{
		{"budget", func() *Catalog { return slowT(in.MustCatalog(ps)) }, WithBudget(Budget{MaxCalls: 1000})},
		{"hedging", replicated, WithHedging(HedgePolicy{Delay: time.Hour})},
	} {
		t.Run(c.name, func(t *testing.T) {
			peak.Store(0)
			rt := NewRuntime()
			rt.Concurrency, rt.PerSource = 4, 1
			cat := c.cat()
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = Exec(context.Background(), q, ps, cat, WithRuntime(rt), c.opt)
				}(i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := peak.Load(); got > 1 {
				t.Errorf("%d calls in flight on T at once, want at most PerSource = 1", got)
			}
		})
	}
}
