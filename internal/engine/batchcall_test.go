package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/sources"
)

// batchTable wraps a Table with genuine batching: one "round trip" per
// multi-vector Call, optionally failing the next such attempts.
type batchTable struct {
	*sources.Table

	mu         sync.Mutex
	roundTrips int
	batched    int
	failBatch  []error
}

func newBatchTable(t *testing.T, name string, arity int, pats string, rows []sources.Tuple) *batchTable {
	t.Helper()
	var ps []access.Pattern
	for _, w := range splitWords(pats) {
		ps = append(ps, access.Pattern(w))
	}
	tbl, err := sources.NewTable(name, arity, ps, rows)
	if err != nil {
		t.Fatal(err)
	}
	return &batchTable{Table: tbl}
}

func splitWords(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ' ' {
			if cur != "" {
				out = append(out, cur)
			}
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

func (b *batchTable) Batches() bool { return true }

func (b *batchTable) Call(ctx context.Context, p access.Pattern, inputs [][]string) ([][]sources.Tuple, error) {
	if len(inputs) <= 1 {
		return b.Table.Call(ctx, p, inputs)
	}
	b.mu.Lock()
	b.roundTrips++
	b.batched += len(inputs)
	var fail error
	if len(b.failBatch) > 0 {
		fail = b.failBatch[0]
		b.failBatch = b.failBatch[1:]
	}
	b.mu.Unlock()
	if fail != nil {
		return nil, fail
	}
	return b.Table.Call(ctx, p, inputs)
}

func (b *batchTable) failNextBatches(errs ...error) {
	b.mu.Lock()
	b.failBatch = append(b.failBatch, errs...)
	b.mu.Unlock()
}

func (b *batchTable) trips() (int, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.roundTrips, b.batched
}

// batchJoinFixture: 200 R rows fanning into 10 distinct T keys, so the
// T step issues one deduplicated binding group of 10 calls.
func batchJoinFixture(t *testing.T) (*sources.Catalog, *batchTable, *access.Set) {
	t.Helper()
	var rRows []sources.Tuple
	for i := 0; i < 200; i++ {
		rRows = append(rRows, sources.Tuple{fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%10)})
	}
	rTbl, err := sources.NewTable("R", 2, []access.Pattern{"oo"}, rRows)
	if err != nil {
		t.Fatal(err)
	}
	var tRows []sources.Tuple
	for z := 0; z < 10; z++ {
		tRows = append(tRows, sources.Tuple{fmt.Sprintf("z%d", z), fmt.Sprintf("y%d", z)})
	}
	bt := newBatchTable(t, "T", 2, "io", tRows)
	cat, err := sources.NewCatalog(rTbl, bt)
	if err != nil {
		t.Fatal(err)
	}
	return cat, bt, pats(t, `R^oo T^io`)
}

// The engine must detect a batch-capable source and service the whole
// deduplicated binding group in one round trip, with the pushdown
// visible in the profile.
func TestRuntimeBatchesCallGroups(t *testing.T) {
	q := ucq(t, `Q(x, y) :- R(x, z), T(z, y).`)
	cat, bt, ps := batchJoinFixture(t)

	ans, prof, err := NewRuntime().AnswerProfiled(context.Background(), q, ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 200 {
		t.Fatalf("answers = %d, want 200", ans.Len())
	}
	trips, batched := bt.trips()
	if trips != 1 || batched != 10 {
		t.Fatalf("round trips = %d (batched %d), want 1 round trip of 10 calls", trips, batched)
	}
	calls := prof.Calls
	if calls.BatchGroups != 1 || calls.BatchedCalls != 10 {
		t.Fatalf("profile batch counters %d/%d, want 1/10", calls.BatchGroups, calls.BatchedCalls)
	}
	// The batch is charged as ONE attempt in the call counters: 1 R scan
	// + 1 T round trip.
	if got := prof.TotalCalls(); got != 2 {
		t.Fatalf("profile calls = %d, want 2", got)
	}
}

// Identical answers with and without the batch path (the plain Table is
// the reference).
func TestRuntimeBatchMatchesSequentialAnswers(t *testing.T) {
	q := ucq(t, `Q(x, y) :- R(x, z), T(z, y).`)
	cat, _, ps := batchJoinFixture(t)
	batchAns, err := NewRuntime().Answer(context.Background(), q, ps, cat)
	if err != nil {
		t.Fatal(err)
	}

	in := NewInstance()
	for i := 0; i < 200; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%10))
	}
	for z := 0; z < 10; z++ {
		in.MustAdd("T", fmt.Sprintf("z%d", z), fmt.Sprintf("y%d", z))
	}
	plainAns, err := NewRuntime().Answer(context.Background(), q, ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	if !batchAns.Equal(plainAns) {
		t.Fatalf("batched answers differ from per-call answers:\nbatch %s\nplain %s", batchAns, plainAns)
	}
}

// A failed batch attempt (beyond retries) must fall back to the
// per-call path: same answers, no batch counters, and the failure class
// unchanged.
func TestRuntimeBatchFallsBackPerCall(t *testing.T) {
	q := ucq(t, `Q(x, y) :- R(x, z), T(z, y).`)
	cat, bt, ps := batchJoinFixture(t)
	bt.failNextBatches(
		errors.New("batch statement rejected"), // permanent: no batch retry, straight to fallback
	)
	rt := NewRuntime()
	rt.Retry = RetryPolicy{MaxAttempts: 2}
	ans, prof, err := rt.AnswerProfiled(context.Background(), q, ps, cat)
	if err != nil {
		t.Fatalf("fallback must absorb the failed batch: %v", err)
	}
	if ans.Len() != 200 {
		t.Fatalf("answers = %d, want 200", ans.Len())
	}
	calls := prof.Calls
	if calls.BatchGroups != 0 {
		t.Fatalf("failed batch still recorded as a group: %+v", calls)
	}
}

// A transient batch failure is retried as a batch before any fallback.
func TestRuntimeBatchRetriesTransient(t *testing.T) {
	q := ucq(t, `Q(x, y) :- R(x, z), T(z, y).`)
	cat, bt, ps := batchJoinFixture(t)
	bt.failNextBatches(sources.Transient(errors.New("backend hiccup")))
	rt := NewRuntime()
	rt.Retry = RetryPolicy{MaxAttempts: 3}
	_, prof, err := rt.AnswerProfiled(context.Background(), q, ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	trips, _ := bt.trips()
	if trips != 2 {
		t.Fatalf("round trips = %d, want 2 (failed + retried batch)", trips)
	}
	calls := prof.Calls
	if calls.BatchGroups != 1 || calls.Retries != 1 {
		t.Fatalf("profile %+v, want one batch group with one retry", calls)
	}
}

// Budget accounting: a batched group is one round trip and must be
// charged as one call, so a budget that would starve the per-call path
// completes on the batch path.
func TestRuntimeBatchChargesBudgetPerRoundTrip(t *testing.T) {
	q := ucq(t, `Q(x, y) :- R(x, z), T(z, y).`)
	cat, _, ps := batchJoinFixture(t)
	rt := NewRuntime()
	rt.Budget = Budget{MaxCalls: 2} // 1 scan + 1 batched round trip
	ans, err := rt.Answer(context.Background(), q, ps, cat)
	if err != nil {
		t.Fatalf("batch must fit the round-trip budget: %v", err)
	}
	if ans.Len() != 200 {
		t.Fatalf("answers = %d, want 200", ans.Len())
	}

	// The same budget must exhaust on the per-call path.
	in := NewInstance()
	for i := 0; i < 200; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%10))
	}
	for z := 0; z < 10; z++ {
		in.MustAdd("T", fmt.Sprintf("z%d", z), fmt.Sprintf("y%d", z))
	}
	rt2 := NewRuntime()
	rt2.Budget = Budget{MaxCalls: 2}
	if _, err := rt2.Answer(context.Background(), q, ps, in.MustCatalog(ps)); !errors.Is(err, ErrCallBudget) {
		t.Fatalf("per-call path under the same budget: err = %v, want ErrCallBudget", err)
	}
}

// The streamed pipeline shares the call layer and must batch too.
func TestRuntimeBatchInStream(t *testing.T) {
	q := ucq(t, `Q(x, y) :- R(x, z), T(z, y).`)
	cat, bt, ps := batchJoinFixture(t)
	stream, err := NewRuntime().Stream(context.Background(), q, ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := stream.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 200 {
		t.Fatalf("streamed answers = %d, want 200", rel.Len())
	}
	trips, batched := bt.trips()
	if trips != 1 || batched != 10 {
		t.Fatalf("streamed round trips = %d (batched %d), want 1/10", trips, batched)
	}
}
