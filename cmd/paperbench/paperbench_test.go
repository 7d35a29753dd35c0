package main

import (
	"io"
	"testing"
)

// quickCounts pins every experiment's counts at its -quick sizes, as
// counts.String renders them. E23 and E28 are not pinned: E23 counts
// hedges, which depend on the clock, and E28 boots two servers; their
// checks still hold their deterministic counts.
var quickCounts = map[string]string{
	"E1":  "ex1.literals=3 ex9.literals=3",
	"E2":  "over.null=1 under.rules=1",
	"E3":  "easy.nodes=0 hard-2.nodes=6 hard-4.nodes=10 hard-6.nodes=14 wrong-verdicts=0",
	"E4":  "fk.calls=150 fk.complete=50 fk.delta=0 fk.tuples=897 fk.under=290 random.calls=150 random.complete=3 random.delta=125 random.tuples=788 random.under=287 trials=50",
	"E5":  "example-1.executable=0 example-1.feasible=1 example-1.orderable=1 example-10.executable=0 example-10.feasible=1 example-10.orderable=0 example-3.executable=0 example-3.feasible=1 example-3.orderable=0 example-4.executable=0 example-4.feasible=0 example-4.orderable=0 example-9.executable=0 example-9.feasible=1 example-9.orderable=0",
	"E6":  "engaged=2 prop4=2 thm16=2",
	"E7":  "disagreements=0 feasible=3 queries=40",
	"E8":  "trials=30 violations-0.calls=90 violations-0.complete=30 violations-0.tuples=390 violations-1.calls=90 violations-1.complete=0 violations-1.tuples=420 violations-2.calls=90 violations-2.complete=0 violations-2.tuples=450 violations-4.calls=90 violations-4.complete=0 violations-4.tuples=510",
	"E9":  "satisfiable=0",
	"E10": "prop20.agree=17 prop20.total=17 thm18.agree=30 thm18.total=30",
	"E11": "calls=90 dom.calls=270 exact=268 improve.calls=492 improve.tuples=1327 improved=268 ladder=30 over=272 trials=30 tuples=575 under=218",
	"E12": "fanout-2.calls=81 fanout-2.tuples=100 fanout-4.calls=161 fanout-4.tuples=180",
	"E13": "after.feasible=1 after.rules=1 before.feasible=0 before.rules=2 chain.feasible-under=1 chased.rules=1 direct.rules=2",
	"E14": "answerable.calls=201 answerable.tuples=290 optimized.calls=111 optimized.tuples=200",
	"E15": "contained=0",
	"E16": "cached.calls=11 cached.hits=190 plain.calls=201",
	"E17": "cost-based.calls=6 cost-based.tuples=10 greedy.calls=501 greedy.tuples=505",
	"E18": "fewest-inputs.answers=10 fewest-inputs.calls=2 fewest-inputs.tuples=1010 most-inputs.answers=10 most-inputs.calls=11 most-inputs.tuples=20",
	"E19": "dedup+flaky.answers=80 dedup+flaky.calls=33 dedup+flaky.dedup=70 dedup+flaky.retries=22 dedup.answers=80 dedup.calls=11 dedup.dedup=70 dedup.retries=0 differ=0 sequential.answers=80 sequential.calls=81 sequential.dedup=0 sequential.retries=0",
	"E20": "identical=1 materialized.answers=60 materialized.calls=121 streamed.answers=60 streamed.calls=121",
	"E21": "bare-retries.answers=40 bare-retries.dead-calls=16 bare-retries.dropped=4 bare-retries.healthy=1 breaker.answers=40 breaker.dead-calls=2 breaker.dropped=4 breaker.failed-S=1 breaker.healthy=1 breaker.open=1 killed-0.answers=80 killed-0.dropped=0 killed-0.survived=8 killed-25.answers=60 killed-25.dropped=2 killed-25.survived=6 killed-50.answers=40 killed-50.dropped=4 killed-50.survived=4 killed-75.answers=20 killed-75.dropped=6 killed-75.survived=2 rules=4 strict.failed=1",
	"E22": "classes=3 diverged=0 full.answer-hits=45 full.calls=6 full.plan-hits=45 full.plan-misses=3 off.calls=108 plan-only.answer-hits=0 plan-only.calls=84 plan-only.plan-hits=45 plan-only.plan-misses=3 requests=48",
}

// TestPaperCounts runs every quick entry of the registry but E23 and
// E28, checks it, and pins its counts: a change that moves a call,
// tuple, answer, verdict or cache-hit column moves a pin here.
func TestPaperCounts(t *testing.T) {
	for _, e := range registry {
		if e.id == "E23" || e.id == "E28" {
			continue
		}
		t.Run(e.id, func(t *testing.T) {
			_, c, _, err := e.run(io.Discard, true)
			if err != nil {
				t.Errorf("check: %v", err)
			}
			if got, want := c.String(), quickCounts[e.id]; got != want {
				t.Errorf("counts\n got %s\nwant %s", got, want)
			}
		})
	}
}

// BenchmarkPaper drives every registry entry as BenchmarkPaper/<id>/<op>
// at its full sizes (its -quick sizes under -short). Up front it runs
// the entry's table once and asserts its check and its timing claim —
// E20's first tuple, E22's p50, E23's p99 and hedge share, read with
// the times in nanoseconds — then loops b.N times over each op (over
// the whole table for an entry that declares none).
func BenchmarkPaper(b *testing.B) {
	for _, e := range registry {
		b.Run(e.id, func(b *testing.B) {
			ops, c, tm, err := e.run(io.Discard, testing.Short())
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("counts: %s", c)
			for name, d := range tm {
				c[name] = int(d)
			}
			if err := c.holds(e.timing); err != nil {
				b.Fatal(err)
			}
			for _, o := range ops {
				b.Run(o.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						o.fn()
					}
				})
			}
		})
	}
}
