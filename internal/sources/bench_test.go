package sources

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/access"
)

// callFixture is T(k, v)^io with four rows per key — a lookup that
// returns several rows, the common case on the engine's hot path.
func callFixture(keys int) (*Table, [][]string) {
	var rows []Tuple
	inputs := make([][]string, keys)
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("k%d", k)
		inputs[k] = []string{key}
		for v := 0; v < 4; v++ {
			rows = append(rows, Tuple{key, fmt.Sprintf("v%d", v)})
		}
	}
	return MustTable("T", 2, []access.Pattern{"io"}, rows), inputs
}

var benchGroups [][]Tuple

// BenchmarkSourceCall times the one call shape at both ends of its
// range — a group of one and a group of 256 — on a bare Table and
// through a resilience stack (Breaker over a warm Cached).
func BenchmarkSourceCall(b *testing.B) {
	ctx := context.Background()
	tbl, inputs := callFixture(256)
	stack := NewBreaker(NewCached(tbl), BreakerConfig{})
	if _, err := stack.Call(ctx, "io", inputs); err != nil { // warm the cache
		b.Fatal(err)
	}
	for _, src := range []struct {
		name string
		s    Source
	}{{"Table", tbl}, {"Breaker(Cached(Table))", stack}} {
		for _, n := range []int{1, 256} {
			b.Run(fmt.Sprintf("%s/group=%d", src.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					if benchGroups, err = src.s.Call(ctx, "io", inputs[:n]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// A group of one through Table is the engine's per-call cost on every
// in-memory step. The bound is what a four-row lookup cost before calls
// took groups (the result slice plus one copy per row); a group costs 3
// whatever the row count — the group slice, the result slice, one
// backing array for all values.
func TestGroupOfOneAllocs(t *testing.T) {
	ctx := context.Background()
	tbl, inputs := callFixture(1)
	const parent = 5
	got := testing.AllocsPerRun(200, func() {
		benchGroups, _ = tbl.Call(ctx, "io", inputs)
	})
	if got > parent {
		t.Errorf("group of one through Table = %v allocs, want at most %d", got, parent)
	}
}
