package sources

// Concurrency smoke tests: hammer Call / StatsSnapshot / ResetStats on
// every metering source from many goroutines. They assert only basic
// sanity — their real job is to give `go test -race` something to bite
// on (the engine's source-call runtime issues calls concurrently).

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/access"
)

func hammer(t *testing.T, s Source) {
	t.Helper()
	const goroutines, iters = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch {
				case i%10 == 9:
					if r, ok := s.(StatsReporter); ok {
						r.ResetStats()
					}
				case i%5 == 4:
					if r, ok := s.(StatsReporter); ok {
						_ = r.StatsSnapshot()
					}
				default:
					rows, err := callOne(context.Background(), s, "io", []string{fmt.Sprintf("k%d", (g+i)%4)})
					if err != nil {
						t.Errorf("Call: %v", err)
						return
					}
					if len(rows) != 1 {
						t.Errorf("rows = %v", rows)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func raceTable(t *testing.T) *Table {
	t.Helper()
	var rows []Tuple
	for i := 0; i < 4; i++ {
		rows = append(rows, Tuple{fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)})
	}
	return MustTable("R", 2, []access.Pattern{"io"}, rows)
}

func TestTableConcurrentAccess(t *testing.T) {
	hammer(t, raceTable(t))
}

func TestCachedConcurrentAccess(t *testing.T) {
	c := NewCached(raceTable(t))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // interleave cache resets with the traffic
		defer wg.Done()
		for i := 0; i < 20; i++ {
			c.Reset()
			_, _ = c.HitsMisses()
		}
	}()
	hammer(t, c)
	wg.Wait()
}

func TestFlakyConcurrentAccess(t *testing.T) {
	// FailFirst: 1 exercises the schedule bookkeeping concurrently; the
	// hammer tolerates no errors, so wrap with enough retries inline.
	f := NewFlaky(raceTable(t), FlakyConfig{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_ = f.Injected()
			f.ResetSchedule()
		}
	}()
	hammer(t, f)
	wg.Wait()
}
