package ucqn

// Exec facade tests: option plumbing, contradictory combinations
// rejected up front, the streaming path draining to the same answers,
// and the batch knobs.

import (
	"context"
	"fmt"
	"strings"
	"testing"
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

// execStar runs the full ANSWER* algorithm through Exec.
func execStar(q Query, ps *PatternSet, cat *Catalog) (AnswerStar, error) {
	res, err := Exec(context.Background(), q, ps, cat, WithAnswerStar())
	if err != nil {
		return AnswerStar{}, err
	}
	star, _ := res.Star()
	return star, nil
}

// execStarUnder is ANSWER* under inclusion dependencies through Exec.
func execStarUnder(q Query, ps *PatternSet, cat *Catalog, inds INDSet) (AnswerStar, error) {
	res, err := Exec(context.Background(), q, ps, cat, WithAnswerStar(), WithINDs(inds))
	if err != nil {
		return AnswerStar{}, err
	}
	star, _ := res.Star()
	return star, nil
}

// execImproveUnder is ANSWER* plus domain-enumeration improvement
// through Exec.
func execImproveUnder(q Query, ps *PatternSet, cat *Catalog, maxCalls int) (*Rel, AnswerStar, DomResult, error) {
	res, err := Exec(context.Background(), q, ps, cat, WithImproveUnder(maxCalls))
	if err != nil {
		return nil, AnswerStar{}, DomResult{}, err
	}
	rel, err := res.Rel()
	if err != nil {
		return nil, AnswerStar{}, DomResult{}, err
	}
	star, _ := res.Star()
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
		if prof.Elapsed <= 0 || prof.TotalCalls() != wantCalls {
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
	res, err := Exec(context.Background(), q, ps, in.MustCatalog(ps), WithAnswerStar())
	if err != nil {
		t.Fatal(err)
	}
	star, ok := res.Star()
	if !ok {
		t.Fatal("Star must be populated with WithAnswerStar")
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
	if want.Complete || want.Under.Len() != 2 || !want.Delta.HasNull() {
		t.Fatalf("fixture must leave a null-carrying Δ beside two certain answers:\n%s", want.Report())
	}
	naive, err := execNaive(q, in)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("profile", func(t *testing.T) {
		cat := in.MustCatalog(ps)
		res, err := Exec(ctx, q, ps, cat, WithAnswerStar(), WithProfile())
		if err != nil {
			t.Fatal(err)
		}
		prof, ok := res.Profile()
		if !ok || len(prof.Rules) != 2 || prof.TotalCalls() != cat.TotalStats().Calls {
			t.Errorf("profile = %d rules, %d calls (ok=%v), want the one run of Qᵒ: 2 rules, the catalog's %d calls", len(prof.Rules), prof.TotalCalls(), ok, cat.TotalStats().Calls)
		}
	})

	t.Run("parallel", func(t *testing.T) {
		res, err := Exec(ctx, q, ps, in.MustCatalog(ps), WithAnswerStar(), WithParallelRules())
		if err != nil {
			t.Fatal(err)
		}
		if star, ok := res.Star(); !ok {
			t.Error("Star must be populated with WithAnswerStar")
		} else if star.Report() != want.Report() {
			t.Errorf("parallel report:\n%s\nwant the sequential one:\n%s", star.Report(), want.Report())
		}
	})

	t.Run("streaming", func(t *testing.T) {
		cat := in.MustCatalog(ps)
		// The first call blocks until released, so the stream cannot have
		// ended when the report is asked for.
		release := make(chan struct{})
		cat.Source("S").(*Table).OnCall = func(Pattern, []string) { <-release }
		res, err := Exec(ctx, q, ps, cat, WithAnswerStar(), WithStreaming())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := res.Star(); ok {
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
		if star, ok := res.Star(); !ok {
			t.Error("Star must report once the stream has ended")
		} else if star.Report() != want.Report() {
			t.Errorf("drained report:\n%s\nwant the materialized one:\n%s", star.Report(), want.Report())
		}
	})

	t.Run("partial", func(t *testing.T) {
		cat, _, _ := killSource(t, in, ps, "R")
		if _, err := Exec(ctx, q, ps, cat, WithRuntime(fastRuntime()), WithAnswerStar()); err == nil {
			t.Fatal("strict ANSWER* must fail with a dead source")
		}
		res, err := Exec(ctx, q, ps, cat, WithRuntime(fastRuntime()), WithAnswerStar(), WithPartialResults())
		if err != nil {
			t.Fatalf("partial ANSWER* must degrade, not fail: %v", err)
		}
		star, ok := res.Star()
		if !ok {
			t.Fatal("Star must be populated with WithAnswerStar")
		}
		if star.OverCertified || star.Complete || star.RatioValid {
			t.Fatalf("a dropped disjunct must leave the overestimate uncertified:\n%s", star.Report())
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
	res, err := Exec(context.Background(), q, ps, in.MustCatalog(ps), WithImproveUnder(100))
	if err != nil {
		t.Fatal(err)
	}
	if rel, err := res.Rel(); err != nil || !rel.Equal(want) {
		t.Errorf("improved = %s (%v), want ground truth %s", rel, err, want)
	}
	if _, dom, ok := res.Improved(); !ok || dom.Calls == 0 {
		t.Errorf("Improved must be populated with WithImproveUnder: %+v, %v", dom, ok)
	}
	if star, ok := res.Star(); !ok || star.Under.Equal(want) {
		t.Error("WithImproveUnder implies the ANSWER* report, whose underestimate is strictly smaller here")
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

func TestExecWithStats(t *testing.T) {
	q, ps, in := execFixture(t)
	st := StatsFromCardinalities(map[string]int{"R": 40, "T": 5, "S": 2, "L": 1})
	want, err := execAnswer(q, ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(context.Background(), q, ps, in.MustCatalog(ps), WithStats(st))
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
		res, err := Exec(context.Background(), q, ps, in.MustCatalog(ps),
			WithStreaming(), WithBatchSize(n), WithStageBuffer(2))
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Rel()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("WithBatchSize(%d) = %s, want %s", n, got, want)
		}
	}
	// The options clone the runtime: a shared runtime is not mutated.
	rt := NewRuntime()
	if _, err := Exec(context.Background(), q, ps, in.MustCatalog(ps),
		WithRuntime(rt), WithBatchSize(7), WithStageBuffer(3)); err != nil {
		t.Fatal(err)
	}
	if rt.BatchSize != 0 || rt.StageBuffer != 0 {
		t.Errorf("WithBatchSize/WithStageBuffer mutated the shared runtime: %d/%d", rt.BatchSize, rt.StageBuffer)
	}
}

func TestExecBatchOptionValidation(t *testing.T) {
	q, ps, in := execFixture(t)
	cat := in.MustCatalog(ps)
	cases := []struct {
		name string
		opt  ExecOption
		want string
	}{
		{"batch zero", WithBatchSize(0), "batch size must be at least 1"},
		{"batch negative", WithBatchSize(-3), "batch size must be at least 1"},
		{"buffer zero", WithStageBuffer(0), "stage buffer must be at least 1"},
		{"buffer negative", WithStageBuffer(-1), "stage buffer must be at least 1"},
	}
	for _, c := range cases {
		_, err := Exec(context.Background(), q, ps, cat, WithStreaming(), c.opt)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
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
		{"naive+star", []ExecOption{WithNaive(in), WithAnswerStar()}},
		{"naive+inds", []ExecOption{WithNaive(in), WithINDs(nil)}},
		{"naive+batch", []ExecOption{WithNaive(in), WithBatchSize(8)}},
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
