package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/sources"
	"repro/internal/workload"
)

// drainOrdered drains the stream and returns the answer Rel; the test
// fails on any stream error.
func drainOrdered(t *testing.T, s *Stream) *Rel {
	t.Helper()
	rel, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// sameRows asserts two relations are byte-identical: same rows in the
// same insertion order.
func sameRows(t *testing.T, got, want *Rel, label string) {
	t.Helper()
	g, w := got.Rows(), want.Rows()
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i].Key() != w[i].Key() {
			t.Fatalf("%s: row %d = %s, want %s", label, i, g[i], w[i])
		}
	}
}

// The tentpole property: a streamed drain is byte-identical to the seed
// sequential materializing evaluation on the paper's worked examples,
// executed through the PLAN* under/overestimates, and issues no more
// source calls.
func TestStreamDrainByteIdenticalOnPaperExamples(t *testing.T) {
	for _, ex := range workload.PaperExamples() {
		t.Run(ex.Name, func(t *testing.T) {
			plans := core.ComputePlans(ex.Query, ex.Patterns)
			for _, plan := range []struct {
				name string
				u    logic.UCQ
			}{{"under", plans.Under}, {"over", plans.Over}} {
				matCat := exampleInstance(ex.Patterns).MustCatalog(ex.Patterns)
				want, err := SequentialRuntime().Answer(context.Background(), plan.u, ex.Patterns, matCat)
				if err != nil {
					t.Fatal(err)
				}
				strCat := exampleInstance(ex.Patterns).MustCatalog(ex.Patterns)
				s, err := NewRuntime().Stream(context.Background(), plan.u, ex.Patterns, strCat)
				if err != nil {
					t.Fatal(err)
				}
				got := drainOrdered(t, s)
				sameRows(t, got, want, plan.name)
				if sc, mc := strCat.TotalStats().Calls, matCat.TotalStats().Calls; sc > mc {
					t.Errorf("%s: streaming issued more calls: %d vs %d", plan.name, sc, mc)
				}
			}
		})
	}
}

// The same property on random executable plans with negation, across
// batch-size and buffer-depth knob settings (batch 1 forces maximal
// cross-batch traffic through the per-stage memo).
func TestStreamMatchesSequentialOnRandomPlans(t *testing.T) {
	g := workload.New(137)
	s := g.Schema(4, 1, 2)
	ps := g.Patterns(s, 0.4, 2)
	cfg := workload.QueryConfig{PosLits: 3, NegLits: 1, VarPool: 4, ConstProb: 0.1, HeadVars: 1, DomainSize: 5}
	knobs := []struct{ batch, buffer int }{{0, 0}, {1, 1}, {3, 2}, {64, 4}}
	tested := 0
	for i := 0; i < 100 && tested < 30; i++ {
		u := g.UCQ(s, 3, cfg)
		ordered, ok := core.ReorderUCQ(u, ps)
		if !ok {
			continue
		}
		in := NewInstance()
		if err := in.LoadFacts(g.Facts(s, 15, 6)); err != nil {
			t.Fatal(err)
		}
		matCat := in.MustCatalog(ps)
		want, err := SequentialRuntime().Answer(context.Background(), ordered, ps, matCat)
		if err != nil {
			t.Fatal(err)
		}
		k := knobs[tested%len(knobs)]
		rt := NewRuntime()
		rt.BatchSize, rt.StageBuffer = k.batch, k.buffer
		strCat := in.MustCatalog(ps)
		st, err := rt.Stream(context.Background(), ordered, ps, strCat)
		if err != nil {
			t.Fatal(err)
		}
		got := drainOrdered(t, st)
		sameRows(t, got, want, fmt.Sprintf("plan %d (batch=%d buffer=%d)", i, k.batch, k.buffer))
		if sc, mc := strCat.TotalStats().Calls, matCat.TotalStats().Calls; sc > mc {
			t.Errorf("plan %d: streaming issued more calls (%d vs %d):\n%s", i, sc, mc, ordered)
		}
		tested++
	}
	if tested < 15 {
		t.Errorf("only %d plans engaged", tested)
	}
}

// StreamParallel merges concurrent rule pipelines into the same answer
// set (set semantics; interleaving may differ).
func TestStreamParallelMatchesAnswer(t *testing.T) {
	in := NewInstance()
	var src, patSrc string
	for i := 0; i < 6; i++ {
		for j := 0; j < 10; j++ {
			in.MustAdd(fmt.Sprintf("R%d", i), fmt.Sprintf("v%d_%d", i, j))
		}
		src += fmt.Sprintf("Q(x) :- R%d(x).\n", i)
		patSrc += fmt.Sprintf("R%d^o ", i)
	}
	u := ucq(t, src)
	ps := pats(t, patSrc)
	want, err := Answer(u, ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewRuntime().StreamParallel(context.Background(), u, ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	got := drainOrdered(t, s)
	if !got.Equal(want) {
		t.Errorf("parallel stream = %s, want %s", got, want)
	}
}

// A rule that is not executable as written fails at Stream time, before
// any goroutine or source call is spent.
func TestStreamRejectsNonExecutablePlan(t *testing.T) {
	u := ucq(t, `Q(x) :- T(z, x).`)
	ps := pats(t, `T^io`)
	cat := NewInstance().MustAdd("T", "k", "v").MustCatalog(ps)
	if _, err := NewRuntime().Stream(context.Background(), u, ps, cat); err == nil {
		t.Fatal("non-executable plan must be rejected")
	}
}

// settleGoroutines waits for the goroutine count to return to the
// baseline (with a little slack for runtime helpers).
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Closing a stream mid-flight tears down every stage: the goroutine
// count settles back to the baseline and no error is reported (the
// cancellation was the consumer's own).
func TestStreamCloseMidFlightLeaksNothing(t *testing.T) {
	u := ucq(t, `Q(x, y) :- R(x, z), S(z, w), T(w, y).`)
	ps := pats(t, `R^oo S^io T^io`)
	in := NewInstance()
	for i := 0; i < 200; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i))
		in.MustAdd("S", fmt.Sprintf("z%d", i), fmt.Sprintf("w%d", i))
		in.MustAdd("T", fmt.Sprintf("w%d", i), fmt.Sprintf("y%d", i))
	}
	base, err := sources.DelayedCatalog(in.MustCatalog(ps), 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime()
	rt.BatchSize = 8
	baseline := runtime.NumGoroutine()
	s, err := rt.Stream(context.Background(), u, ps, base)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Next() {
		t.Fatalf("no first tuple: %v", s.Err())
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close after consumer abandon must not report an error: %v", err)
	}
	settleGoroutines(t, baseline)
	if s.Next() {
		t.Error("Next after Close must report exhaustion")
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close must be idempotent: %v", err)
	}
}

// Cancelling the caller's context mid-flight also tears everything down,
// and — unlike a consumer Close — surfaces as a context error.
func TestStreamContextCancellation(t *testing.T) {
	u := ucq(t, `Q(x, y) :- R(x, z), T(z, y).`)
	ps := pats(t, `R^oo T^io`)
	in := NewInstance()
	for i := 0; i < 100; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i))
		in.MustAdd("T", fmt.Sprintf("z%d", i), fmt.Sprintf("y%d", i))
	}
	cat, err := sources.DelayedCatalog(in.MustCatalog(ps), 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime()
	rt.BatchSize = 4
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	s, err := rt.Stream(ctx, u, ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Next() {
		t.Fatalf("no first tuple: %v", s.Err())
	}
	cancel()
	for s.Next() { // drain whatever was already emitted
	}
	if err := s.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err = %v, want context.Canceled", err)
	}
	s.Close()
	settleGoroutines(t, baseline)
}

// A context that is already dead when Stream is called must not look
// like a cleanly exhausted (empty) stream.
func TestStreamPreCancelledContext(t *testing.T) {
	u := ucq(t, `Q(x, y) :- R(x, z), T(z, y).`)
	ps := pats(t, `R^oo T^io`)
	in := NewInstance()
	in.MustAdd("R", "x0", "z0")
	in.MustAdd("T", "z0", "y0")
	cat := in.MustCatalog(ps)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, parallel := range []bool{false, true} {
		s, err := NewRuntime().StreamEval(ctx, u, ps, cat, Answered{}, Opts{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Drain(); !errors.Is(err, context.Canceled) {
			t.Errorf("parallel=%v: Drain err = %v, want context.Canceled", parallel, err)
		}
	}
}

// A source failure mid-stream surfaces through Err and still tears the
// pipeline down.
func TestStreamSourceFailureSurfaces(t *testing.T) {
	u := ucq(t, `Q(x, y) :- R(x, z), T(z, y).`)
	ps := pats(t, `R^oo T^io`)
	in := NewInstance()
	for i := 0; i < 10; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i))
		in.MustAdd("T", fmt.Sprintf("z%d", i), fmt.Sprintf("y%d", i))
	}
	cat := flakyCatalog(t, in, ps, sources.FlakyConfig{FailFirst: 100})
	rt := NewRuntime()
	rt.Retry = RetryPolicy{MaxAttempts: 1}
	baseline := runtime.NumGoroutine()
	s, err := rt.Stream(context.Background(), u, ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	for s.Next() {
	}
	if err := s.Err(); err == nil || !sources.IsTransient(err) {
		t.Errorf("Err = %v, want the injected source failure", err)
	}
	if _, err := s.Drain(); err == nil {
		t.Error("Drain must report the pipeline failure")
	}
	settleGoroutines(t, baseline)
}

// The stream profile records time to first tuple, per-stage traffic
// equal to the materialized profile, and a bounded binding residency.
func TestStreamProfile(t *testing.T) {
	u := ucq(t, `Q(x, y) :- R(x, z), T(z, y).`)
	ps := pats(t, `R^oo T^io`)
	in := NewInstance()
	for i := 0; i < 50; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%5))
		in.MustAdd("T", fmt.Sprintf("z%d", i%5), fmt.Sprintf("y%d", i%5))
	}
	matCat := in.MustCatalog(ps)
	_, matProf, err := NewRuntime().AnswerProfiled(context.Background(), u, ps, matCat)
	if err != nil {
		t.Fatal(err)
	}

	rt := NewRuntime()
	rt.BatchSize = 8
	strCat := in.MustCatalog(ps)
	s, err := rt.Stream(context.Background(), u, ps, strCat)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Profile(); ok {
		t.Error("profile must not be available while the stream runs")
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	prof, ok := s.Profile()
	if !ok {
		t.Fatal("profile must be available after the stream finished")
	}
	if prof.TimeToFirst <= 0 || prof.Elapsed < prof.TimeToFirst {
		t.Errorf("TimeToFirst=%v Elapsed=%v", prof.TimeToFirst, prof.Elapsed)
	}
	if got, want := prof.TotalCalls(), matProf.TotalCalls(); got != want {
		t.Errorf("streamed calls = %d, want %d (materialized)", got, want)
	}
	if got, want := prof.TotalDeduped(), matProf.TotalDeduped(); got != want {
		t.Errorf("streamed dedup = %d, want %d", got, want)
	}
	if prof.PeakBindings() <= 0 {
		t.Error("streamed PeakBindings must be recorded")
	}
	if len(prof.Rules) != 1 || len(prof.Rules[0].Steps) != 2 {
		t.Fatalf("profile shape: %+v", prof)
	}
	for i, sp := range prof.Rules[0].Steps {
		if sp.Elapsed <= 0 {
			t.Errorf("stage %d has no busy time", i)
		}
	}
}
