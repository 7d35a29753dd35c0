package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/parser"
)

// e25Fixture builds the E25 workload: a three-way join with a negated
// membership check whose intermediate binding sets dwarf both the
// source traffic and the final answer. R fans every row into a small
// set of join keys, S multiplies each key by the fanout, T closes the
// chain, and N negates a quarter of the keys — so nearly all the time
// goes to per-binding evaluator overhead, which is exactly what the
// columnar batches attack. Distinct source calls stay in the dozens
// (memoization collapses them identically under both evaluators), and
// the head projects the join keys so deduplication also runs hot.
func e25Fixture(b testing.TB, baseRows, fanout int) (logic.UCQ, *access.Set, *Instance) {
	b.Helper()
	q, err := parser.ParseUCQ(`Q(z, y) :- R(x, a, b, c, d, e, z), S(z, w), T(w, y), not N(z).`)
	if err != nil {
		b.Fatal(err)
	}
	ps, err := parser.ParsePatterns(`R^ooooooo S^io T^io N^i`)
	if err != nil {
		b.Fatal(err)
	}
	in := NewInstance()
	const keys = 20
	for i := 0; i < baseRows; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i),
			fmt.Sprintf("a%d", i%7), fmt.Sprintf("b%d", i%11), fmt.Sprintf("c%d", i%13),
			fmt.Sprintf("d%d", i%3), fmt.Sprintf("e%d", i%5),
			fmt.Sprintf("z%d", i%keys))
	}
	for z := 0; z < keys; z++ {
		for j := 0; j < fanout; j++ {
			in.MustAdd("S", fmt.Sprintf("z%d", z), fmt.Sprintf("w%d", j))
		}
	}
	for j := 0; j < fanout; j++ {
		in.MustAdd("T", fmt.Sprintf("w%d", j), fmt.Sprintf("y%d", j))
	}
	for z := 0; z < keys; z += 4 {
		in.MustAdd("N", fmt.Sprintf("z%d", z))
	}
	return q, ps, in
}

// E25: columnar batch evaluation vs the map-based oracle
// (oracle_test.go). The benchmark asserts the acceptance properties up
// front — byte-identical rows in identical order, identical source-call
// counts (49 on this fixture), the steps sending on 20 + 160 + 160 + 120
// distinct live bindings where the oracle carries 92 000, at least a 25x
// wall-clock win for the columnar hot loop, and fewer allocations per
// evaluation, both sides measured live — then times both evaluators
// with allocation counts. The same join behind a real server is the
// repo benchmark's join_eval workload.
func BenchmarkE25Columnar(b *testing.B) {
	q, ps, in := e25Fixture(b, 4000, 8)
	rt := NewRuntime()
	ctx := context.Background()
	cat := in.MustCatalog(ps) // replaced by a fresh one before each timed run
	evals := []struct {
		name string
		eval func() (*Rel, error)
	}{
		{"map", func() (*Rel, error) {
			rel, _, _, err := oracleEval(ctx, rt, q, ps, cat, false)
			return rel, err
		}},
		{"columnar", func() (*Rel, error) { return answer(ctx, rt, q, ps, cat) }},
	}

	var best [2]time.Duration
	var ans [2]*Rel
	var calls [2]int
	var allocs [2]float64
	for e, ev := range evals {
		for r := 0; r < 5; r++ {
			cat = in.MustCatalog(ps)
			start := time.Now()
			got, err := ev.eval()
			if err != nil {
				b.Fatal(err)
			}
			if el := time.Since(start); r == 0 || el < best[e] {
				best[e] = el
			}
			ans[e], calls[e] = got, cat.TotalStats().Calls
		}
		allocs[e] = testing.AllocsPerRun(3, func() {
			if _, err := ev.eval(); err != nil {
				b.Fatal(err)
			}
		})
	}

	mapRows, colRows := ans[0].Rows(), ans[1].Rows()
	if len(colRows) != len(mapRows) {
		b.Fatalf("answer counts differ: columnar=%d map=%d", len(colRows), len(mapRows))
	}
	for i := range colRows {
		if colRows[i].Key() != mapRows[i].Key() {
			b.Fatalf("row %d differs: columnar=%s map=%s", i, colRows[i], mapRows[i])
		}
	}
	if calls[1] != calls[0] || calls[1] != 49 {
		b.Fatalf("source calls: columnar=%d map=%d, want 49", calls[1], calls[0])
	}
	_, prof, _, err := eval(ctx, rt, q, ps, in.MustCatalog(ps), Opts{})
	if err != nil {
		b.Fatal(err)
	}
	bindings := 0
	for _, sp := range prof.Rules[0].Steps {
		bindings += sp.BindingsOut
	}
	if bindings != 460 || prof.Calls.Total != 49 {
		b.Fatalf("steps sent on %d bindings over %d calls, want 460 over 49:\n%s", bindings, prof.Calls.Total, prof)
	}
	speedup := float64(best[0]) / float64(best[1])
	b.Logf("map=%v columnar=%v speedup=%.1fx (%d rows, %d calls); allocs/op: map=%.0f columnar=%.0f",
		best[0].Round(time.Microsecond), best[1].Round(time.Microsecond), speedup, len(colRows), calls[1], allocs[0], allocs[1])
	if speedup < 25 {
		b.Fatalf("columnar speedup %.2fx < 25x (map=%v columnar=%v)", speedup, best[0], best[1])
	}
	if allocs[1] >= allocs[0] {
		b.Fatalf("columnar allocs/op %.0f did not drop below the map evaluator's %.0f", allocs[1], allocs[0])
	}

	for _, ev := range evals {
		b.Run(ev.name, func(b *testing.B) {
			cat = in.MustCatalog(ps)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.eval(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A warm, repeated execution of E25's join from a cached plan's
// programs (Opts.Prepared) regrows none of its scratch: the call table,
// the head set, the column pool and the step states come back with the
// recycled execution. Concurrency 2 fans out each step that asks more
// than one call — to the issuing goroutine and one helper, without a
// channel. What is left is the execution's own: its budget, profile and
// the rows the sink is handed. Under the race detector, which drops a
// quarter of what a sync.Pool is handed, the execution is cold now and
// then, and the limit allows for that.
func TestE25WarmPreparedAllocs(t *testing.T) {
	q, ps, in := e25Fixture(t, 4000, 8)
	p, err := core.NewPlan(q, ps)
	if err != nil {
		t.Fatal(err)
	}
	cat := in.MustCatalog(ps)
	rt := NewRuntime()
	rt.Concurrency = 2
	var prep Prepared
	run := func() {
		out := NewRel()
		if _, _, err := rt.Run(context.Background(), p, cat, Answered{}, Opts{Prepared: &prep}, Into(out)); err != nil {
			t.Fatal(err)
		}
		if out.Len() != 120 {
			t.Fatalf("%d rows, want 120", out.Len())
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(50, run)
	if limit := float64(24 + raceAllocSlack); allocs > limit {
		t.Errorf("a warm E25 execution allocated %.0f times, want at most %.0f", allocs, limit)
	}
}

// raceAllocSlack is what the race detector adds to an allocation count
// (racealloc_test.go).
var raceAllocSlack = 0
