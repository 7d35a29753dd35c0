package sources

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
)

// fakeClock is a manually advanced clock for stepping a Breaker through
// its open → half-open transition without sleeping.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func breakerUnderTest(t *testing.T) (*Breaker, *Flaky, *fakeClock) {
	t.Helper()
	clk := &fakeClock{now: time.Unix(1000, 0)}
	// Flaky with FailEveryN=1 fails every call: a permanently dead source.
	f := NewFlaky(bookTable(t), FlakyConfig{FailEveryN: 1})
	b := NewBreaker(f, BreakerConfig{Window: 4, Threshold: 3, Cooldown: time.Second, Now: clk.Now})
	return b, f, clk
}

func TestBreakerOpensAfterThresholdAndFailsFast(t *testing.T) {
	b, f, _ := breakerUnderTest(t)
	if b.Name() != "B" || b.Arity() != 3 || len(b.Patterns()) != 2 {
		t.Error("wrapper must forward metadata")
	}
	for i := 0; i < 3; i++ {
		if b.State() != BreakerClosed {
			t.Fatalf("call %d: state = %v, want closed", i+1, b.State())
		}
		if _, err := callOne(context.Background(), b, "ioo", []string{"i1"}); err == nil || errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("call %d: err = %v, want the inner failure", i+1, err)
		}
	}
	if b.State() != BreakerOpen || b.Trips() != 1 {
		t.Fatalf("state = %v trips = %d, want open after threshold failures", b.State(), b.Trips())
	}
	// Open circuit: fast fail, inner source untouched.
	before := f.Injected()
	for i := 0; i < 10; i++ {
		_, err := callOne(context.Background(), b, "ioo", []string{"i1"})
		if !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("open call %d: err = %v, want ErrBreakerOpen", i+1, err)
		}
		if IsTransient(err) {
			t.Fatal("breaker rejections must be terminal, not transient")
		}
	}
	if f.Injected() != before {
		t.Errorf("open circuit reached the inner source: %d → %d calls", before, f.Injected())
	}
	if b.Rejected() != 10 {
		t.Errorf("rejected = %d, want 10", b.Rejected())
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b, f, clk := breakerUnderTest(t)
	for i := 0; i < 3; i++ {
		callOne(context.Background(), b, "ioo", []string{"i1"})
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	clk.Advance(time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("after cooldown state = %v, want half-open", b.State())
	}
	// The probe reaches the (still dead) source and re-opens the circuit.
	inner := f.Injected()
	if _, err := callOne(context.Background(), b, "ioo", []string{"i1"}); errors.Is(err, ErrBreakerOpen) || err == nil {
		t.Fatalf("probe err = %v, want the inner failure", err)
	}
	if f.Injected() != inner+1 {
		t.Errorf("probe must reach the inner source exactly once: %d → %d", inner, f.Injected())
	}
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("failed probe: state = %v trips = %d, want re-opened", b.State(), b.Trips())
	}
	// Source recovers; the next probe closes the circuit for good.
	f.ResetSchedule()
	f.cfg = FlakyConfig{} // healthy from here on
	clk.Advance(time.Second)
	rows, err := callOne(context.Background(), b, "ioo", []string{"i1"})
	if err != nil || len(rows) != 1 {
		t.Fatalf("recovery probe: rows=%v err=%v", rows, err)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed after successful probe", b.State())
	}
	// The window was reset: one new failure must not re-open it.
	f.cfg = FlakyConfig{FailEveryN: 1}
	callOne(context.Background(), b, "ioo", []string{"i1"})
	if b.State() != BreakerClosed {
		t.Error("a single failure after reset must not trip a threshold-3 breaker")
	}
}

func TestBreakerIgnoresCallerCancellation(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	b := NewBreaker(bookTable(t), BreakerConfig{Window: 4, Threshold: 2, Now: clk.Now})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 8; i++ {
		if _, err := callOne(ctx, b, "ioo", []string{"i1"}); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}
	if b.State() != BreakerClosed || b.Trips() != 0 {
		t.Errorf("caller cancellations tripped the breaker: state=%v trips=%d", b.State(), b.Trips())
	}
}

func TestBreakerCountsDeadlineExpiryAsFailure(t *testing.T) {
	// A hung source under a per-call deadline: DeadlineExceeded outcomes
	// must count toward opening the circuit.
	clk := &fakeClock{now: time.Unix(1000, 0)}
	hung := NewFlaky(bookTable(t), FlakyConfig{FailEveryN: 1, Hang: true})
	b := NewBreaker(hung, BreakerConfig{Window: 4, Threshold: 2, Now: clk.Now})
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err := callOne(ctx, b, "ioo", []string{"i1"})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want DeadlineExceeded from the hung call", err)
		}
	}
	if b.State() != BreakerOpen {
		t.Errorf("state = %v, want open: hung calls are failures", b.State())
	}
}

func TestBreakerStatsForwardAndReset(t *testing.T) {
	tbl := MustTable("R", 2, []access.Pattern{"io"}, []Tuple{{"k", "v"}})
	b := NewBreaker(tbl, BreakerConfig{})
	if _, err := callOne(context.Background(), b, "io", []string{"k"}); err != nil {
		t.Fatal(err)
	}
	if st := b.StatsSnapshot(); st.Calls != 1 || st.TuplesReturned != 1 {
		t.Errorf("forwarded stats = %+v, want the inner table's traffic", st)
	}
	cat := MustCatalog(b)
	if st := cat.TotalStats(); st.Calls != 1 {
		t.Errorf("TotalStats through Breaker(Table) = %+v", st)
	}
	b.ResetStats()
	if st := tbl.StatsSnapshot(); st.Calls != 0 {
		t.Errorf("ResetStats must reach the inner table: %+v", st)
	}
	b.Reset()
	if b.State() != BreakerClosed || b.Trips() != 0 || b.Rejected() != 0 {
		t.Error("Reset must clear the circuit")
	}
}

func TestBreakerCatalogWrapsEverySource(t *testing.T) {
	r := MustTable("R", 1, []access.Pattern{"o"}, []Tuple{{"a"}})
	s := MustTable("S", 1, []access.Pattern{"o"}, []Tuple{{"b"}})
	cat := MustCatalog(r, s)
	wrapped, breakers, err := BreakerCatalog(cat, BreakerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	names := cat.Names()
	if len(breakers) != len(names) {
		t.Fatalf("breakers = %d, want one per source", len(breakers))
	}
	for i, name := range names {
		if breakers[i].Name() != name {
			t.Errorf("breakers[%d] wraps %s, want %s (indexed like Names)", i, breakers[i].Name(), name)
		}
		if _, ok := wrapped.Source(name).(*Breaker); !ok {
			t.Errorf("source %s is not breaker-wrapped", name)
		}
	}
	if _, err := callOne(context.Background(), wrapped.Source("R"), "o", nil); err != nil {
		t.Fatal(err)
	}
	if st := wrapped.TotalStats(); st.Calls != 1 {
		t.Errorf("TotalStats through BreakerCatalog = %+v", st)
	}
}

func TestBreakerConcurrentHammer(t *testing.T) {
	// Race check: many goroutines slam a dying source; state machine and
	// counters must stay consistent, and the breaker must end up open.
	f := NewFlaky(bookTable(t), FlakyConfig{FailEveryN: 1})
	b := NewBreaker(f, BreakerConfig{Window: 8, Threshold: 4, Cooldown: time.Hour})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				callOne(context.Background(), b, "ioo", []string{fmt.Sprintf("i%d", w)})
				b.State()
			}
		}(w)
	}
	wg.Wait()
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	// Real calls that reached the dead source are bounded by the window
	// (plus races in flight at trip time), not by the 400 attempts.
	if got := f.Injected(); got > 8+8 {
		t.Errorf("inner source saw %d calls; breaker should cap near the window size", got)
	}
	if b.Trips() != 1 {
		t.Errorf("trips = %d, want 1", b.Trips())
	}
}
