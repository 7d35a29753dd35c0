package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/sources"
	"repro/internal/workload"
)

// exampleInstance builds a deterministic instance over the relations a
// pattern set declares, with enough value sharing that joins produce
// repeated lookup keys (the case deduplication exists for).
func exampleInstance(ps *access.Set) *Instance {
	in := NewInstance()
	dom := []string{"a", "b", "c", "d"}
	for _, rel := range ps.Relations() {
		ar := ps.Arity(rel)
		for i := 0; i < 8; i++ {
			vals := make([]string, ar)
			for j := range vals {
				vals[j] = dom[(i+2*j)%len(dom)]
			}
			in.MustAdd(rel, vals...)
		}
	}
	return in
}

// The deduplicating concurrent runtime must return byte-identical
// answers to the seed sequential per-binding path on the paper's worked
// examples, executed the way the paper executes them: through the PLAN*
// under/overestimates.
func TestRuntimeMatchesSequentialOnPaperExamples(t *testing.T) {
	for _, ex := range workload.PaperExamples() {
		t.Run(ex.Name, func(t *testing.T) {
			plans := core.ComputePlans(ex.Query, ex.Patterns)
			cat := exampleInstance(ex.Patterns).MustCatalog(ex.Patterns)
			seq, _, _, err := SequentialRuntime().RunAnswerStarWithPlans(context.Background(), plans, ex.Patterns, cat, Opts{})
			if err != nil {
				t.Fatal(err)
			}
			ded, _, _, err := NewRuntime().RunAnswerStarWithPlans(context.Background(), plans, ex.Patterns, cat, Opts{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := ded.Report(), seq.Report(); got != want {
				t.Errorf("reports differ:\nsequential:\n%s\nruntime:\n%s", want, got)
			}
			if !ded.Under.Equal(seq.Under) || !ded.Over.Equal(seq.Over) {
				t.Error("estimates differ between runtimes")
			}
		})
	}
}

// Same equivalence on random executable plans with negation (the
// property the seed test suite checks for AnswerParallel).
func TestRuntimeMatchesSequentialOnRandomPlans(t *testing.T) {
	g := workload.New(137)
	s := g.Schema(4, 1, 2)
	ps := g.Patterns(s, 0.4, 2)
	cfg := workload.QueryConfig{PosLits: 3, NegLits: 1, VarPool: 4, ConstProb: 0.1, HeadVars: 1, DomainSize: 5}
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
		cat := in.MustCatalog(ps)
		seq, err := SequentialRuntime().Answer(context.Background(), ordered, ps, cat)
		if err != nil {
			t.Fatal(err)
		}
		ded, err := NewRuntime().Answer(context.Background(), ordered, ps, cat)
		if err != nil {
			t.Fatal(err)
		}
		if seq.String() != ded.String() {
			t.Fatalf("answers differ:\nseq %s\nded %s\nplan %s", seq, ded, ordered)
		}
		tested++
	}
	if tested < 15 {
		t.Errorf("only %d plans engaged", tested)
	}
}

// The acceptance property: on a join with repeated input keys the
// deduplicating runtime issues strictly fewer source calls than the
// per-binding loop, with identical answers.
func TestRuntimeDedupIssuesFewerCalls(t *testing.T) {
	q := ucq(t, `Q(x, y) :- R(x, z), T(z, y).`)
	ps := pats(t, `R^oo T^io`)
	in := NewInstance()
	for i := 0; i < 200; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%10))
	}
	for z := 0; z < 10; z++ {
		in.MustAdd("T", fmt.Sprintf("z%d", z), fmt.Sprintf("y%d", z))
	}

	catSeq := in.MustCatalog(ps)
	seqAns, seqProf, err := SequentialRuntime().AnswerProfiled(context.Background(), q, ps, catSeq)
	if err != nil {
		t.Fatal(err)
	}
	catDed := in.MustCatalog(ps)
	dedAns, dedProf, err := NewRuntime().AnswerProfiled(context.Background(), q, ps, catDed)
	if err != nil {
		t.Fatal(err)
	}
	if seqAns.String() != dedAns.String() {
		t.Fatal("answer sets differ")
	}
	seqCalls, dedCalls := catSeq.TotalStats().Calls, catDed.TotalStats().Calls
	if seqCalls != 201 { // 1 R scan + 200 T lookups
		t.Errorf("sequential calls = %d, want 201", seqCalls)
	}
	if dedCalls != 11 { // 1 R scan + 10 distinct T lookups
		t.Errorf("dedup calls = %d, want 11", dedCalls)
	}
	if dedCalls >= seqCalls {
		t.Errorf("dedup must issue strictly fewer calls: %d vs %d", dedCalls, seqCalls)
	}
	if seqProf.TotalCalls() != seqCalls || dedProf.TotalCalls() != dedCalls {
		t.Errorf("profiles disagree with meters: %d/%d vs %d/%d",
			seqProf.TotalCalls(), seqCalls, dedProf.TotalCalls(), dedCalls)
	}
	if dedProf.TotalDeduped() != 190 {
		t.Errorf("deduped = %d, want 190", dedProf.TotalDeduped())
	}
}

// flakyCatalog wraps every table of the instance catalog with a fault
// injector.
func flakyCatalog(t *testing.T, in *Instance, ps *access.Set, cfg sources.FlakyConfig) *sources.Catalog {
	t.Helper()
	base := in.MustCatalog(ps)
	var wrapped []sources.Source
	for _, name := range base.Names() {
		wrapped = append(wrapped, sources.NewFlaky(base.Source(name), cfg))
	}
	cat, err := sources.NewCatalog(wrapped...)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestRuntimeRetriesTransientFailures(t *testing.T) {
	q := ucq(t, `Q(x, y) :- R(x, z), T(z, y).`)
	ps := pats(t, `R^oo T^io`)
	in := NewInstance()
	for i := 0; i < 20; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%4))
	}
	for z := 0; z < 4; z++ {
		in.MustAdd("T", fmt.Sprintf("z%d", z), fmt.Sprintf("y%d", z))
	}
	cat := flakyCatalog(t, in, ps, sources.FlakyConfig{FailFirst: 2})

	rt := NewRuntime()
	rt.Retry = RetryPolicy{MaxAttempts: 4} // no backoff delay: fast test
	ans, prof, err := rt.AnswerProfiled(context.Background(), q, ps, cat)
	if err != nil {
		t.Fatalf("retries must absorb the injected failures: %v", err)
	}
	if ans.Len() != 20 {
		t.Errorf("answers = %d, want 20", ans.Len())
	}
	// Every distinct call (1 R scan + 4 T lookups) fails twice first.
	if got := prof.TotalRetries(); got != 10 {
		t.Errorf("retries = %d, want 10", got)
	}
	// The real traffic that reached the tables: one success per key.
	if st := cat.TotalStats(); st.Calls != 5 {
		t.Errorf("successful remote calls = %d, want 5", st.Calls)
	}
}

func TestRuntimeRetryExhaustionAggregatesErrors(t *testing.T) {
	q := ucq(t, `Q(x, y) :- R(x, z), T(z, y).`)
	ps := pats(t, `R^oo T^io`)
	in := NewInstance().
		MustAdd("R", "x0", "z0").
		MustAdd("R", "x1", "z1").
		MustAdd("T", "z0", "y0").
		MustAdd("T", "z1", "y1")
	cat := flakyCatalog(t, in, ps, sources.FlakyConfig{FailFirst: 5})

	rt := NewRuntime()
	rt.Retry = RetryPolicy{MaxAttempts: 3}
	_, err := rt.Answer(context.Background(), q, ps, cat)
	if err == nil {
		t.Fatal("failures beyond the retry budget must surface")
	}
	if !sources.IsTransient(err) {
		t.Errorf("the transient classification must survive wrapping: %v", err)
	}
	if !strings.Contains(err.Error(), "injected transient failure") {
		t.Errorf("error must carry the source failure: %v", err)
	}
}

func TestRuntimeBackoffUsesJitterHook(t *testing.T) {
	var delays []time.Duration
	var mu sync.Mutex
	rt := NewRuntime()
	rt.Concurrency = 1
	rt.Retry = RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   8 * time.Microsecond,
		MaxDelay:    20 * time.Microsecond,
		Jitter: func(d time.Duration) time.Duration {
			mu.Lock()
			delays = append(delays, d)
			mu.Unlock()
			return 0 // don't actually sleep in tests
		},
	}
	q := ucq(t, `Q(x) :- R(x).`)
	ps := pats(t, `R^o`)
	in := NewInstance().MustAdd("R", "a")
	cat := flakyCatalog(t, in, ps, sources.FlakyConfig{FailFirst: 3})
	if _, err := rt.Answer(context.Background(), q, ps, cat); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []time.Duration{8 * time.Microsecond, 16 * time.Microsecond, 20 * time.Microsecond}
	if len(delays) != len(want) {
		t.Fatalf("jitter hook saw %v", delays)
	}
	for i, d := range delays {
		if d != want[i] {
			t.Errorf("backoff %d = %v, want %v (exponential, capped)", i+1, d, want[i])
		}
	}
}

func TestRuntimeHonorsCancellation(t *testing.T) {
	q := ucq(t, `Q(x) :- R(x).`)
	ps := pats(t, `R^o`)
	cat := NewInstance().MustAdd("R", "a").MustCatalog(ps)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewRuntime().Answer(ctx, q, ps, cat); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// With enough distinct keys and a synchronization barrier in the source
// hook, the pool must actually overlap calls — and a per-source limit of
// 1 must serialize them again.
func TestRuntimeConcurrencyAndPerSourceLimit(t *testing.T) {
	mk := func() (*Instance, *access.Set) {
		in := NewInstance()
		for i := 0; i < 4; i++ {
			in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i))
			in.MustAdd("T", fmt.Sprintf("z%d", i), fmt.Sprintf("y%d", i))
		}
		return in, pats(t, `R^oo T^io`)
	}
	q := ucq(t, `Q(x, y) :- R(x, z), T(z, y).`)

	// Barrier: the T table parks each call until all 4 arrive.
	in, ps := mk()
	cat := in.MustCatalog(ps)
	var arrived sync.WaitGroup
	arrived.Add(4)
	release := make(chan struct{})
	var once sync.Once
	cat.Source("T").(*sources.Table).OnCall = func(p access.Pattern, inputs []string) {
		arrived.Done()
		once.Do(func() {
			go func() {
				done := make(chan struct{})
				go func() { arrived.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Error("barrier timed out: calls did not overlap")
				}
				close(release)
			}()
		})
		<-release
	}
	rt := NewRuntime()
	rt.Concurrency = 4
	_, prof, err := rt.AnswerProfiled(context.Background(), q, ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := prof.MaxInFlight(); got != 4 {
		t.Errorf("MaxInFlight = %d, want 4", got)
	}

	// Per-source limit 1: same shape, never more than one in flight.
	in2, ps2 := mk()
	cat2 := in2.MustCatalog(ps2)
	rt2 := NewRuntime()
	rt2.Concurrency = 4
	rt2.PerSource = 1
	_, prof2, err := rt2.AnswerProfiled(context.Background(), q, ps2, cat2)
	if err != nil {
		t.Fatal(err)
	}
	if got := prof2.MaxInFlight(); got > 1 {
		t.Errorf("MaxInFlight = %d, want ≤1 under PerSource=1", got)
	}
}

// A shared Runtime must be safe under concurrent queries (exercised by
// -race; the per-source limiter map is the shared state).
func TestRuntimeSharedAcrossGoroutines(t *testing.T) {
	q := ucq(t, `Q(x, y) :- R(x, z), T(z, y).`)
	ps := pats(t, `R^oo T^io`)
	in := NewInstance()
	for i := 0; i < 50; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%5))
	}
	for z := 0; z < 5; z++ {
		in.MustAdd("T", fmt.Sprintf("z%d", z), fmt.Sprintf("y%d", z))
	}
	cat := in.MustCatalog(ps)
	rt := NewRuntime()
	rt.PerSource = 2
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				rel, err := rt.Answer(context.Background(), q, ps, cat)
				if err != nil {
					t.Errorf("Answer: %v", err)
					return
				}
				if rel.Len() != 50 {
					t.Errorf("answers = %d", rel.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
}
