package sources

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
)

func TestCachedServesRepeats(t *testing.T) {
	b := bookTable(t)
	c := NewCached(b)
	if c.Name() != "B" || c.Arity() != 3 || len(c.Patterns()) != 2 {
		t.Error("wrapper must forward metadata")
	}
	for i := 0; i < 5; i++ {
		rows, err := callOne(context.Background(), c, "oio", []string{"knuth"})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("rows = %v", rows)
		}
	}
	hits, misses := c.HitsMisses()
	if hits != 4 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 4/1", hits, misses)
	}
	if st := b.StatsSnapshot(); st.Calls != 1 {
		t.Errorf("inner source called %d times, want 1", st.Calls)
	}
}

func TestCachedReturnsCopies(t *testing.T) {
	c := NewCached(bookTable(t))
	rows, err := callOne(context.Background(), c, "ioo", []string{"i1"})
	if err != nil {
		t.Fatal(err)
	}
	rows[0][1] = "mangled"
	rows2, _ := callOne(context.Background(), c, "ioo", []string{"i1"})
	if rows2[0][1] != "knuth" {
		t.Error("cache must not leak shared tuple storage")
	}
}

func TestCachedErrorsNotCached(t *testing.T) {
	c := NewCached(bookTable(t))
	if _, err := callOne(context.Background(), c, "ooo", nil); err == nil {
		t.Fatal("bad pattern must error")
	}
	if _, err := callOne(context.Background(), c, "ooo", nil); err == nil {
		t.Fatal("bad pattern must keep erroring")
	}
	if hits, misses := c.HitsMisses(); hits != 0 || misses != 0 {
		t.Errorf("errors must not touch counters: %d/%d", hits, misses)
	}
}

func TestCachedReset(t *testing.T) {
	c := NewCached(bookTable(t))
	if _, err := callOne(context.Background(), c, "ioo", []string{"i1"}); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if _, err := callOne(context.Background(), c, "ioo", []string{"i1"}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.HitsMisses(); hits != 0 || misses != 1 {
		t.Errorf("after reset: hits=%d misses=%d", hits, misses)
	}
}

// blockingSource serves fixed rows but parks every call until released,
// so tests can pile up concurrent callers deterministically.
type blockingSource struct {
	rows    []Tuple
	release chan struct{}
	calls   atomic.Int32
}

func (s *blockingSource) Name() string               { return "B" }
func (s *blockingSource) Arity() int                 { return 2 }
func (s *blockingSource) Patterns() []access.Pattern { return []access.Pattern{"io"} }
func (s *blockingSource) Batches() bool              { return false }
func (s *blockingSource) Call(_ context.Context, p access.Pattern, inputs [][]string) ([][]Tuple, error) {
	s.calls.Add(1)
	<-s.release
	return fanOut(s.rows, len(inputs)), nil
}

// fanOut answers every vector of a group with a copy of rows.
func fanOut(rows []Tuple, n int) [][]Tuple {
	out := make([][]Tuple, n)
	for i := range out {
		out[i] = copyTuples(rows)
	}
	return out
}

// Regression test for the thundering-herd bug: N goroutines missing on
// the same key must collapse into exactly one inner call.
func TestCachedSingleflight(t *testing.T) {
	const n = 16
	inner := &blockingSource{rows: []Tuple{{"k", "v"}}, release: make(chan struct{})}
	c := NewCached(inner)

	var wg sync.WaitGroup
	errs := make([]error, n)
	rows := make([][]Tuple, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows[i], errs[i] = callOne(context.Background(), c, "io", []string{"k"})
		}(i)
	}
	// Wait for the leader to reach the inner source, give the followers a
	// moment to queue up (stragglers hit the cache instead — either way
	// the inner call count must stay 1), then release the fetch.
	for inner.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(inner.release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if len(rows[i]) != 1 || rows[i][0][1] != "v" {
			t.Fatalf("caller %d rows = %v", i, rows[i])
		}
	}
	if got := inner.calls.Load(); got != 1 {
		t.Errorf("inner calls = %d, want exactly 1", got)
	}
	hits, misses := c.HitsMisses()
	if misses != 1 || hits != n-1 {
		t.Errorf("hits=%d misses=%d, want %d/1", hits, misses, n-1)
	}
}

// A caller waiting on someone else's in-flight fetch must honor its own
// context.
func TestCachedFollowerCancellation(t *testing.T) {
	inner := &blockingSource{rows: []Tuple{{"k", "v"}}, release: make(chan struct{})}
	c := NewCached(inner)
	go callOne(context.Background(), c, "io", []string{"k"}) // leader, parked on the inner source
	for inner.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := callOne(ctx, c, "io", []string{"k"}); err != context.Canceled {
		t.Errorf("follower error = %v, want context.Canceled", err)
	}
	close(inner.release)
}

// ctxBlockingSource parks calls until released but gives up when the
// caller's context is cancelled, like a real remote client would. Every
// call that reaches the source sends one token on started.
type ctxBlockingSource struct {
	rows    []Tuple
	release chan struct{}
	started chan struct{}
	calls   atomic.Int32
}

func (s *ctxBlockingSource) Name() string               { return "B" }
func (s *ctxBlockingSource) Arity() int                 { return 2 }
func (s *ctxBlockingSource) Patterns() []access.Pattern { return []access.Pattern{"io"} }
func (s *ctxBlockingSource) Batches() bool              { return false }
func (s *ctxBlockingSource) Call(ctx context.Context, p access.Pattern, inputs [][]string) ([][]Tuple, error) {
	s.calls.Add(1)
	s.started <- struct{}{}
	select {
	case <-s.release:
		return fanOut(s.rows, len(inputs)), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Regression test for the cancellation-poisoning bug: a leader whose
// *own* context is cancelled mid-fetch used to hand context.Canceled to
// every waiting follower, even though their contexts were live. One
// follower must instead take over as the new leader and refetch; the
// rest wait on it and get rows.
func TestCachedCancelledLeaderDoesNotPoisonFollowers(t *testing.T) {
	inner := &ctxBlockingSource{
		rows:    []Tuple{{"k", "v"}},
		release: make(chan struct{}),
		started: make(chan struct{}, 16),
	}
	c := NewCached(inner)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := callOne(leaderCtx, c, "io", []string{"k"})
		leaderErr <- err
	}()
	<-inner.started // leader is parked inside the source

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	rows := make([][]Tuple, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows[i], errs[i] = callOne(context.Background(), c, "io", []string{"k"})
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let the followers join the flight
	cancelLeader()
	if err := <-leaderErr; err != context.Canceled {
		t.Fatalf("cancelled leader error = %v, want context.Canceled", err)
	}

	select {
	case <-inner.started: // exactly one follower took over and refetched
	case <-time.After(5 * time.Second):
		t.Fatal("no follower was promoted to leader after the leader's cancellation")
	}
	close(inner.release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("follower %d poisoned by the leader's cancellation: %v", i, errs[i])
		}
		if len(rows[i]) != 1 || rows[i][0][1] != "v" {
			t.Fatalf("follower %d rows = %v", i, rows[i])
		}
	}
	// One fetch died with the old leader, one succeeded under the new
	// one; the promotion must not fan out into a thundering herd.
	if got := inner.calls.Load(); got != 2 {
		t.Errorf("inner calls = %d, want exactly 2 (dead leader + promoted follower)", got)
	}
}

// Regression test for the wrapped-catalog accounting bug: TotalStats on
// a CachedCatalog must report the inner sources' real traffic instead of
// zero (the wrappers are not *Table).
func TestCachedCatalogReportsInnerTraffic(t *testing.T) {
	b := bookTable(t)
	l := MustTable("L", 1, []access.Pattern{"o"}, []Tuple{{"i3"}})
	wrapped, _, err := CachedCatalog(MustCatalog(b, l))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // 1 remote call + 2 cache hits
		if _, err := callOne(context.Background(), wrapped.Source("B"), "oio", []string{"knuth"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := callOne(context.Background(), wrapped.Source("L"), "o", nil); err != nil {
		t.Fatal(err)
	}
	st := wrapped.TotalStats()
	if st.Calls != 2 || st.TuplesReturned != 3 {
		t.Errorf("wrapped TotalStats = %+v, want 2 calls / 3 tuples", st)
	}
	wrapped.ResetStats()
	if st := wrapped.TotalStats(); st.Calls != 0 || st.TuplesReturned != 0 {
		t.Errorf("after reset, wrapped TotalStats = %+v", st)
	}
	if st := b.StatsSnapshot(); st.Calls != 0 {
		t.Errorf("ResetStats must reach the inner source; inner = %+v", st)
	}
}

func TestCachedCatalog(t *testing.T) {
	b := bookTable(t)
	l := MustTable("L", 1, []access.Pattern{"o"}, []Tuple{{"i3"}})
	cat := MustCatalog(b, l)
	wrapped, caches, err := CachedCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(caches) != 2 {
		t.Fatalf("caches = %d", len(caches))
	}
	if _, err := callOne(context.Background(), wrapped.Source("B"), "ioo", []string{"i1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := callOne(context.Background(), wrapped.Source("B"), "ioo", []string{"i1"}); err != nil {
		t.Fatal(err)
	}
	var totalHits int
	for _, c := range caches {
		h, _ := c.HitsMisses()
		totalHits += h
	}
	if totalHits != 1 {
		t.Errorf("total hits = %d, want 1", totalHits)
	}
	if got := wrapped.PatternSet().String(); got != "B^ioo B^oio L^o" {
		t.Errorf("PatternSet through wrapper = %q", got)
	}
}

func TestCachedCapacityLRU(t *testing.T) {
	b := bookTable(t)
	c := NewCachedWithCapacity(b, 2)
	call := func(id string) {
		t.Helper()
		if _, err := callOne(context.Background(), c, "ioo", []string{id}); err != nil {
			t.Fatal(err)
		}
	}
	call("i1")
	call("i2")
	call("i1") // refresh i1: i2 is now the LRU key
	call("i3") // evicts i2
	if ev := c.Evictions(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	inner := b.StatsSnapshot().Calls
	call("i1") // still cached
	if got := b.StatsSnapshot().Calls; got != inner {
		t.Errorf("i1 was evicted: inner calls went %d -> %d", inner, got)
	}
	call("i2") // evicted, refetches (and evicts i3)
	if got := b.StatsSnapshot().Calls; got != inner+1 {
		t.Errorf("i2 must refetch after eviction: inner calls %d, want %d", got, inner+1)
	}
	if ev := c.Evictions(); ev != 2 {
		t.Errorf("evictions = %d, want 2", ev)
	}
	hits, misses := c.HitsMisses()
	if misses != 4 {
		t.Errorf("misses = %d (hits %d), want 4 inner fetches", misses, hits)
	}
	c.Reset()
	if ev := c.Evictions(); ev != 0 {
		t.Errorf("Reset must clear evictions, got %d", ev)
	}
}

func TestCachedUnboundedNeverEvicts(t *testing.T) {
	c := NewCached(bookTable(t))
	for _, id := range []string{"i1", "i2", "i3"} {
		if _, err := callOne(context.Background(), c, "ioo", []string{id}); err != nil {
			t.Fatal(err)
		}
	}
	if ev := c.Evictions(); ev != 0 {
		t.Errorf("unbounded cache evicted %d keys", ev)
	}
}
