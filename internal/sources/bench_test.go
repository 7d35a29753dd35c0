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

// BenchmarkTableScan is R^ooooooo over E25's 4 000 × 7 table, the scan
// that opens every join_eval request. The answer is the table's own
// rows, so a scan costs one allocation — the result slice — however
// many rows it returns.
func BenchmarkTableScan(b *testing.B) {
	rows := make([]Tuple, 4000)
	for i := range rows {
		rows[i] = Tuple{fmt.Sprintf("x%d", i),
			fmt.Sprintf("a%d", i%7), fmt.Sprintf("b%d", i%11), fmt.Sprintf("c%d", i%13),
			fmt.Sprintf("d%d", i%3), fmt.Sprintf("e%d", i%5), fmt.Sprintf("z%d", i%20)}
	}
	tbl := MustTable("R", 7, []access.Pattern{"ooooooo"}, rows)
	ctx := context.Background()
	scan := [][]string{{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchGroups, err = tbl.Call(ctx, "ooooooo", scan); err != nil {
			b.Fatal(err)
		}
	}
}

// A group of one through Table is the engine's per-call cost on every
// in-memory step: nothing, whatever the row count — the result is the
// index's own one-group slice, and the rows themselves are the table's.
func TestGroupOfOneAllocs(t *testing.T) {
	ctx := context.Background()
	tbl, inputs := callFixture(1)
	got := testing.AllocsPerRun(200, func() {
		benchGroups, _ = tbl.Call(ctx, "io", inputs)
	})
	if got > 0 {
		t.Errorf("group of one through Table = %v allocs, want 0", got)
	}
}
