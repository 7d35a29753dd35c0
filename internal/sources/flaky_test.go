package sources

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/access"
)

func TestFlakyFailsFirstNPerKey(t *testing.T) {
	b := bookTable(t)
	f := NewFlaky(b, FlakyConfig{FailFirst: 2})
	if f.Name() != "B" || f.Arity() != 3 || len(f.Patterns()) != 2 {
		t.Error("wrapper must forward metadata")
	}
	for i := 0; i < 2; i++ {
		_, err := callOne(context.Background(), f, "oio", []string{"knuth"})
		if err == nil {
			t.Fatalf("call %d: expected injected failure", i+1)
		}
		if !IsTransient(err) {
			t.Fatalf("call %d: injected error must be transient: %v", i+1, err)
		}
	}
	rows, err := callOne(context.Background(), f, "oio", []string{"knuth"})
	if err != nil {
		t.Fatalf("third call must succeed: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	// A different key has its own schedule.
	if _, err := callOne(context.Background(), f, "ioo", []string{"i1"}); err == nil {
		t.Error("fresh key must start failing again")
	}
	if f.Injected() != 3 {
		t.Errorf("injected = %d, want 3", f.Injected())
	}
	// Inner meters saw only the one call that got through.
	if st := f.StatsSnapshot(); st.Calls != 1 || st.TuplesReturned != 2 {
		t.Errorf("forwarded stats = %+v, want 1 call / 2 tuples", st)
	}
	f.ResetStats()
	if st := b.StatsSnapshot(); st.Calls != 0 {
		t.Errorf("ResetStats must reach the inner table: %+v", st)
	}
}

func TestFlakyDeterministicFraction(t *testing.T) {
	b := bookTable(t)
	f := NewFlaky(b, FlakyConfig{FailEveryN: 3})
	var failed int
	for i := 0; i < 9; i++ {
		if _, err := callOne(context.Background(), f, "ioo", []string{fmt.Sprintf("i%d", i%3+1)}); err != nil {
			if !IsTransient(err) {
				t.Fatalf("injected error must be transient: %v", err)
			}
			failed++
		}
	}
	if failed != 3 || f.Injected() != 3 {
		t.Errorf("failed=%d injected=%d, want 3/3 (every 3rd call)", failed, f.Injected())
	}
	f.ResetSchedule()
	if f.Injected() != 0 {
		t.Errorf("after ResetSchedule injected = %d", f.Injected())
	}
	if _, err := callOne(context.Background(), f, "ioo", []string{"i1"}); err == nil {
		t.Error("schedule must restart: first call fails again")
	}
}

func TestFlakyContractErrorsAreNotTransient(t *testing.T) {
	f := NewFlaky(bookTable(t), FlakyConfig{})
	_, err := callOne(context.Background(), f, "ooo", nil)
	if err == nil {
		t.Fatal("undeclared pattern must error")
	}
	if IsTransient(err) {
		t.Error("contract violations must not be classified transient")
	}
	if f.Injected() != 0 {
		t.Errorf("injected = %d, want 0", f.Injected())
	}
}

func TestFlakyHonorsContext(t *testing.T) {
	f := NewFlaky(bookTable(t), FlakyConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := callOne(ctx, f, "ioo", []string{"i1"}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestFlakyHangBlocksUntilDeadline(t *testing.T) {
	f := NewFlaky(bookTable(t), FlakyConfig{FailFirst: 1, Hang: true})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := callOne(ctx, f, "ioo", []string{"i1"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded: a hung call ends only with the context", err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Error("hung call returned before the deadline")
	}
	if f.Injected() != 1 {
		t.Errorf("injected = %d, want 1", f.Injected())
	}
	// The schedule is spent for this key: the retry gets through.
	rows, err := callOne(context.Background(), f, "ioo", []string{"i1"})
	if err != nil || len(rows) != 1 {
		t.Fatalf("retry after hang: rows=%v err=%v", rows, err)
	}
}

func TestFlakyHangComposesWithDelayed(t *testing.T) {
	// Delayed(Flaky{Hang}): the wrapper latency elapses first, then the
	// injected hang blocks until the deadline; a healthy later call pays
	// only the latency. Both wrappers keep forwarding stats.
	f := NewFlaky(bookTable(t), FlakyConfig{FailFirst: 1, Hang: true})
	d := NewDelayed(f, time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := callOne(ctx, d, "ioo", []string{"i1"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded through Delayed(Flaky{Hang})", err)
	}
	rows, err := callOne(context.Background(), d, "ioo", []string{"i1"})
	if err != nil || len(rows) != 1 {
		t.Fatalf("healthy call: rows=%v err=%v", rows, err)
	}
	if st := d.StatsSnapshot(); st.Calls != 1 {
		t.Errorf("stats through both wrappers = %+v, want the 1 call that got through", st)
	}
}

func TestTransientClassification(t *testing.T) {
	if Transient(nil) != nil {
		t.Error("Transient(nil) must be nil")
	}
	base := errors.New("boom")
	te := Transient(base)
	if !IsTransient(te) || !errors.Is(te, base) {
		t.Error("transient wrapper must classify and unwrap")
	}
	if IsTransient(base) || IsTransient(context.Canceled) {
		t.Error("plain and context errors must not be transient")
	}
	wrapped := fmt.Errorf("call failed: %w", te)
	if !IsTransient(wrapped) {
		t.Error("IsTransient must see through wrapping")
	}
}

func TestFlakyCachedCatalogStats(t *testing.T) {
	// The full production stack: Cached(Flaky(Table)). TotalStats must
	// still surface the table's real traffic through both wrappers.
	b := MustTable("R", 2, []access.Pattern{"io"}, []Tuple{{"k", "v"}})
	c := NewCached(NewFlaky(b, FlakyConfig{}))
	cat := MustCatalog(c)
	if _, err := callOne(context.Background(), c, "io", []string{"k"}); err != nil {
		t.Fatal(err)
	}
	if _, err := callOne(context.Background(), c, "io", []string{"k"}); err != nil { // cache hit
		t.Fatal(err)
	}
	if st := cat.TotalStats(); st.Calls != 1 || st.TuplesReturned != 1 {
		t.Errorf("TotalStats through Cached(Flaky(Table)) = %+v", st)
	}
}
