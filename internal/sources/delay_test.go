package sources

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/access"
)

func delayedTable(t *testing.T) *Table {
	t.Helper()
	tab, err := NewTable("R", 1, []access.Pattern{"o"}, []Tuple{{"a"}, {"b"}})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// virtualDelayed wires a Delayed to a virtual clock so tests step
// latency instead of sleeping for real.
func virtualDelayed(src Source, d time.Duration) (*Delayed, *VirtualClock) {
	clk := NewVirtualClock(time.Unix(0, 0))
	del := NewDelayed(src, d)
	del.Now = clk.Now
	del.Sleep = clk.Sleep
	return del, clk
}

func TestDelayedAddsLatencyAndForwards(t *testing.T) {
	tab := delayedTable(t)
	d, clk := virtualDelayed(tab, 5*time.Second)
	done := make(chan struct{})
	var rows []Tuple
	var err error
	go func() {
		rows, err = callOne(context.Background(), d, "o", nil)
		close(done)
	}()
	if !clk.AwaitSleepers(1, 5*time.Second) {
		t.Fatal("call never parked in the virtual sleep")
	}
	select {
	case <-done:
		t.Fatal("call returned before the virtual clock advanced")
	default:
	}
	clk.Advance(4 * time.Second)
	if clk.Sleepers() != 1 {
		t.Fatal("call woke before the full delay elapsed")
	}
	clk.Advance(time.Second)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("rows = %v", rows)
	}
	if d.Name() != "R" || d.Arity() != 1 || len(d.Patterns()) != 1 {
		t.Error("identity must forward to the inner source")
	}
	st := d.StatsSnapshot()
	if st.Calls != 1 || st.TuplesReturned != 2 {
		t.Errorf("stats must forward to the inner meters: %+v", st)
	}
	if st.LatencyCalls != 1 || st.TotalLatency != 5*time.Second || st.MaxLatency != 5*time.Second || st.EWMALatency != 5*time.Second {
		t.Errorf("delayed call must meter its end-to-end virtual latency: %+v", st)
	}
}

func TestDelayedLatencyAggregates(t *testing.T) {
	tab := delayedTable(t)
	d, clk := virtualDelayed(tab, 2*time.Second)
	for i := 0; i < 3; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := callOne(context.Background(), d, "o", nil)
			done <- err
		}()
		if !clk.AwaitSleepers(1, 5*time.Second) {
			t.Fatal("call never parked in the virtual sleep")
		}
		clk.Advance(2 * time.Second)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st := d.StatsSnapshot()
	if st.LatencyCalls != 3 || st.TotalLatency != 6*time.Second || st.MaxLatency != 2*time.Second {
		t.Errorf("latency aggregates = %+v", st)
	}
	if st.MeanLatency() != 2*time.Second {
		t.Errorf("MeanLatency = %v, want 2s", st.MeanLatency())
	}
	if st.EWMALatency != 2*time.Second {
		t.Errorf("EWMA over constant samples must be the constant: %v", st.EWMALatency)
	}
	d.ResetStats()
	if st := d.StatsSnapshot(); st.Calls != 0 || st.LatencyCalls != 0 || st.EWMALatency != 0 {
		t.Errorf("ResetStats must clear the latency overlay: %+v", st)
	}
}

func TestDelayedHonorsCancellation(t *testing.T) {
	tab := delayedTable(t)
	d, clk := virtualDelayed(tab, time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := callOne(ctx, d, "o", nil)
		done <- err
	}()
	if !clk.AwaitSleepers(1, 5*time.Second) {
		t.Fatal("call never parked in the virtual sleep")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call did not return")
	}
	st := d.StatsSnapshot()
	if st.Calls != 0 {
		t.Errorf("abandoned call must not reach the inner source: %+v", st)
	}
	if st.LatencyCalls != 0 {
		t.Errorf("abandoned call must not be metered as latency: %+v", st)
	}
	if clk.Sleepers() != 0 {
		t.Errorf("cancelled sleeper must deregister, have %d", clk.Sleepers())
	}
}

func TestDelayedCatalogWrapsEverySource(t *testing.T) {
	tab := delayedTable(t)
	cat, err := NewCatalog(tab)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := DelayedCatalog(cat, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range wrapped.Names() {
		if _, ok := wrapped.Source(name).(*Delayed); !ok {
			t.Errorf("source %s is not delayed", name)
		}
	}
	if _, err := callOne(context.Background(), wrapped.Source("R"), "o", nil); err != nil {
		t.Fatal(err)
	}
	if st := wrapped.TotalStats(); st.Calls != 1 {
		t.Errorf("wrapped catalog must meter inner traffic: %+v", st)
	}
}
