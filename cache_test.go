package ucqn

// Semantic query cache tests at the facade level: the correctness
// property (cached Exec ≡ uncached Exec on randomized workloads and
// their α-renamed / literal-padded variants, materialized and
// streaming, strict and partial), the cache smoke suite (`make
// cache-smoke`: every paper example twice through a shared cache — the
// second pass must issue zero source calls and return byte-identical
// answers, drained streams included), and a concurrent-Exec hammer.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

// execRel runs Exec and materializes, failing the test on any error.
func execRel(t *testing.T, q Query, ps *PatternSet, cat *Catalog, opts ...ExecOption) *Rel {
	t.Helper()
	res, err := Exec(context.Background(), q, ps, cat, opts...)
	if err != nil {
		t.Fatalf("Exec(%s): %v", q, err)
	}
	rel, err := res.Rel()
	if err != nil {
		t.Fatalf("Rel(%s): %v", q, err)
	}
	return rel
}

// cacheVariants are the semantically identical rewrites every cached
// submission must survive.
func cacheVariants(u Query, tag string) []Query {
	return []Query{
		u,
		workload.AlphaRename(u, tag),
		workload.PadRedundant(u),
		workload.PadRedundant(workload.AlphaRename(u, tag+"p")),
	}
}

// TestCacheCorrectnessProperty is the cache's acceptance property:
// over randomized schemas, patterns, queries, and instances, Exec
// through a shared QueryCache returns exactly what uncached Exec
// returns — for the query itself and for α-renamed and
// literal-padded resubmissions, materialized and streamed — and
// WithPartialResults reports the same completeness. Resubmissions must
// hit the plan cache.
func TestCacheCorrectnessProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := workload.New(300 + seed)
			s := g.Schema(4, 1, 2)
			ps := g.Patterns(s, 0.4, 2)
			cfg := workload.QueryConfig{PosLits: 3, NegLits: 1, VarPool: 4, ConstProb: 0.1, HeadVars: 1, DomainSize: 5}

			u := g.UCQ(s, 2, cfg)
			ordered, ok := Reorder(u, ps)
			if !ok {
				t.Skip("not orderable under the drawn patterns")
			}
			in := engine.NewInstance()
			if err := in.LoadFacts(g.Facts(s, 12, 6)); err != nil {
				t.Fatal(err)
			}
			cat, err := in.Catalog(ps)
			if err != nil {
				t.Fatal(err)
			}

			want := execRel(t, ordered, ps, cat)
			wantInc, ok := func() (Incompleteness, bool) {
				res, err := Exec(context.Background(), ordered, ps, cat, WithPartialResults())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := res.Rel(); err != nil {
					t.Fatal(err)
				}
				return res.Incompleteness()
			}()
			if !ok {
				t.Fatal("uncached partial run must report incompleteness")
			}

			qc := NewQueryCache(QueryCacheOptions{})
			for vi, v := range cacheVariants(ordered, fmt.Sprint(seed)) {
				// Materialized, with the profile proving cache behaviour.
				res, err := Exec(context.Background(), v, ps, cat, WithQueryCache(qc), WithProfile())
				if err != nil {
					t.Fatalf("variant %d: %v", vi, err)
				}
				rel, err := res.Rel()
				if err != nil {
					t.Fatal(err)
				}
				if !rel.Equal(want) {
					t.Fatalf("variant %d: cached answer %s != uncached %s for\n%s", vi, rel, want, v)
				}
				prof, _ := res.Profile()
				if vi > 0 && prof.Cache.PlanHits == 0 {
					t.Fatalf("variant %d must hit the plan cache", vi)
				}

				// Streamed.
				sres, err := Exec(context.Background(), v, ps, cat, WithQueryCache(qc), WithStreaming())
				if err != nil {
					t.Fatal(err)
				}
				srel, err := sres.Stream().Drain()
				if err != nil {
					t.Fatal(err)
				}
				if !srel.Equal(want) {
					t.Fatalf("variant %d: cached stream %s != uncached %s", vi, srel, want)
				}

				// Partial-results mode: healthy catalog, so the report must
				// stay complete with the uncached rule accounting.
				pres, err := Exec(context.Background(), v, ps, cat, WithQueryCache(qc), WithPartialResults())
				if err != nil {
					t.Fatal(err)
				}
				prel, err := pres.Rel()
				if err != nil {
					t.Fatal(err)
				}
				if !prel.Equal(want) {
					t.Fatalf("variant %d: cached partial answer differs", vi)
				}
				inc, ok := pres.Incompleteness()
				if !ok || !inc.Complete() {
					t.Fatalf("variant %d: cached partial run must be complete, got %+v/%v", vi, inc, ok)
				}
				if inc.RulesTotal != wantInc.RulesTotal {
					t.Fatalf("variant %d: RulesTotal = %d, want %d", vi, inc.RulesTotal, wantInc.RulesTotal)
				}
			}
		})
	}
}

// smokeQuery picks the executable form of a paper example: the query's
// own reordering when orderable, else its PLAN* underestimate.
func smokeQuery(ex workload.PaperExample) (Query, bool) {
	if ordered, ok := Reorder(ex.Query, ex.Patterns); ok {
		return ordered, true
	}
	under := Plan(ex.Query, ex.Patterns).Under
	for _, r := range under.Rules {
		if !r.False {
			return under, true
		}
	}
	return Query{}, false
}

// TestCacheSmoke is the `make cache-smoke` suite: every paper example
// executed twice through one shared cache. The second pass — and a
// third, streamed, pass — must issue zero source calls and yield
// byte-identical rows.
func TestCacheSmoke(t *testing.T) {
	qc := NewQueryCache(QueryCacheOptions{})
	for _, ex := range workload.PaperExamples() {
		t.Run(ex.Name, func(t *testing.T) {
			u, ok := smokeQuery(ex)
			if !ok {
				t.Skip("no executable form")
			}
			cat := paperInstance(ex.Patterns).MustCatalog(ex.Patterns)

			first := execRel(t, u, ex.Patterns, cat, WithQueryCache(qc))
			afterFirst := cat.TotalStats().Calls

			second := execRel(t, u, ex.Patterns, cat, WithQueryCache(qc))
			if d := cat.TotalStats().Calls - afterFirst; d != 0 {
				t.Errorf("second pass issued %d source calls, want 0", d)
			}
			assertSameRows(t, "second pass", second, first)

			sres, err := Exec(context.Background(), u, ex.Patterns, cat, WithQueryCache(qc), WithStreaming())
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := sres.Stream().Drain()
			if err != nil {
				t.Fatal(err)
			}
			if d := cat.TotalStats().Calls - afterFirst; d != 0 {
				t.Errorf("streamed replay issued %d source calls, want 0", d)
			}
			assertSameRows(t, "streamed replay", streamed, first)
		})
	}
}

// assertSameRows requires got and want to agree row for row, in order —
// byte-identical replays, not merely set equality.
func assertSameRows(t *testing.T, what string, got, want *Rel) {
	t.Helper()
	g, w := got.Rows(), want.Rows()
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, want %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i].Key() != w[i].Key() {
			t.Fatalf("%s: row %d = %s, want %s", what, i, g[i], w[i])
		}
	}
}

// TestCacheConcurrentExec hammers one cache from many goroutines mixing
// hits, misses, α-variants, streaming, and invalidation; run under
// -race it is the cache's concurrency certificate.
func TestCacheConcurrentExec(t *testing.T) {
	qc := NewQueryCache(QueryCacheOptions{MaxPlanEntries: 8, MaxAnswerEntries: 8})
	q := MustParseQuery("Q(x) :- R(x).\nQ(x) :- S(x).")
	patterns := MustParsePatterns("R^o S^o")
	in := NewInstance()
	in.MustAdd("R", "a").MustAdd("R", "b").MustAdd("S", "c")
	cat := in.MustCatalog(patterns)
	want := execRel(t, q, patterns, cat)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				v := q
				if i%2 == 1 {
					v = workload.AlphaRename(q, fmt.Sprintf("%d_%d", w, i))
				}
				var opts []ExecOption
				opts = append(opts, WithQueryCache(qc))
				if i%3 == 0 {
					opts = append(opts, WithStreaming())
				}
				res, err := Exec(context.Background(), v, patterns, cat, opts...)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				rel, err := res.Rel()
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if !rel.Equal(want) {
					t.Errorf("worker %d: wrong answer %s", w, rel)
					return
				}
				if i%10 == 9 {
					cat.Invalidate()
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestExecQueryCacheProfile pins the facade-level observability: the
// ExecProfile's cache counters across a miss, a full hit, and a
// partial hit after invalidation.
func TestExecQueryCacheProfile(t *testing.T) {
	qc := NewQueryCache(QueryCacheOptions{})
	q := MustParseQuery("Q(x) :- R(x).\nQ(x) :- S(x).")
	patterns := MustParsePatterns("R^o S^o")
	in := NewInstance()
	in.MustAdd("R", "a").MustAdd("S", "b")
	cat := in.MustCatalog(patterns)

	res, err := Exec(context.Background(), q, patterns, cat, WithQueryCache(qc), WithProfile())
	if err != nil {
		t.Fatal(err)
	}
	prof, ok := res.Profile()
	if !ok || prof.Cache.PlanHits != 0 || prof.Cache.AnswerHits != 0 {
		t.Fatalf("cold run profile = %+v/%v, want no cache hits", prof, ok)
	}

	res, err = Exec(context.Background(), q, patterns, cat, WithQueryCache(qc), WithProfile())
	if err != nil {
		t.Fatal(err)
	}
	prof, _ = res.Profile()
	if prof.Cache.PlanHits != 1 || prof.Cache.AnswerHits != 1 {
		t.Fatalf("hot run profile = %+v, want plan and answer hits", prof)
	}

	// After invalidation the plan still hits; the answers re-execute.
	cat.Invalidate()
	res, err = Exec(context.Background(), q, patterns, cat, WithQueryCache(qc), WithProfile())
	if err != nil {
		t.Fatal(err)
	}
	prof, _ = res.Profile()
	if prof.Cache.PlanHits != 1 || prof.Cache.AnswerHits != 0 {
		t.Fatalf("post-invalidation profile = %+v, want a plan hit and live answers", prof)
	}
	if _, err := res.Rel(); err != nil {
		t.Fatal(err)
	}

	stats := qc.Stats()
	if stats.PlanMisses != 1 || stats.PlanHits != 2 || stats.AnswerHits != 1 {
		t.Fatalf("cache stats = %+v", stats)
	}
}

// TestCacheFullHitIdenticalToUncached is the frozen answer tier's
// differential: over random plans of one, two and three disjuncts —
// as drawn, with a disjunct repeated under other variable names (every
// one of its rows a cross-disjunct duplicate), and with an
// unsatisfiable disjunct among them — a full hit's Rows() and Sorted()
// are row for row what an uncached Exec of the plan's representative
// returns, and a caller that adds to the relation of one hit leaves the
// next hit unchanged.
func TestCacheFullHitIdenticalToUncached(t *testing.T) {
	hits, duplicated := 0, 0
	for seed := int64(0); seed < 30; seed++ {
		g := workload.New(900 + seed)
		s := g.Schema(4, 1, 2)
		ps := g.Patterns(s, 0.3, 2)
		cfg := workload.QueryConfig{PosLits: 2, NegLits: 1, VarPool: 3, ConstProb: 0.1, HeadVars: 1, DomainSize: 5}
		in := engine.NewInstance()
		if err := in.LoadFacts(g.Facts(s, 14, 5)); err != nil {
			t.Fatal(err)
		}
		cat, err := in.Catalog(ps)
		if err != nil {
			t.Fatal(err)
		}
		for disjuncts := 1; disjuncts <= 3; disjuncts++ {
			drawn, ok := Reorder(g.UCQ(s, disjuncts, cfg), ps)
			if !ok {
				continue
			}
			first := drawn.Rules[0]
			repeated := drawn.Clone()
			repeated.Rules = append(repeated.Rules, workload.AlphaRename(Query{Rules: []Rule{first}}, "dup").Rules[0])
			unsat := drawn.Clone()
			dead := first.Clone()
			for _, l := range first.Body {
				if !l.Negated {
					dead.Body = append(dead.Body, Literal{Atom: l.Atom.Clone(), Negated: true})
					break
				}
			}
			unsat.Rules = append([]Rule{dead}, unsat.Rules...)

			for name, u := range map[string]Query{"drawn": drawn, "repeated": repeated, "unsat": unsat} {
				qc := NewQueryCache(QueryCacheOptions{})
				entry, _ := qc.Plan(u, ps)
				if entry.Err() != nil {
					continue
				}
				what := fmt.Sprintf("seed %d, %d disjuncts, %s", seed, disjuncts, name)
				want := execRel(t, entry.Exec(), ps, cat)
				assertSameRows(t, what+": storing run", execRel(t, u, ps, cat, WithQueryCache(qc)), want)
				for pass := 0; pass < 2; pass++ {
					before := cat.TotalStats().Calls
					res, err := Exec(context.Background(), u, ps, cat, WithQueryCache(qc), WithProfile())
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if prof, _ := res.Profile(); prof.Cache.AnswerHits != 1 || cat.TotalStats().Calls != before {
						t.Fatalf("%s: pass %d is not a full answer hit", what, pass)
					}
					got, _ := res.Rel()
					assertSameRows(t, what+": hit rows", got, want)
					gs, ws := got.Sorted(), want.Sorted()
					for i := range ws {
						if gs[i].Key() != ws[i].Key() {
							t.Fatalf("%s: sorted row %d = %s, want %s", what, i, gs[i], ws[i])
						}
					}
					// The caller owns what it was handed.
					if !got.Add(engine.RowOf("added by the caller of pass " + fmt.Sprint(pass))) {
						t.Fatalf("%s: a hit must accept a new row", what)
					}
				}
				hits++
				if perRule := qc.Answers(entry, cat); perRule.Full != nil {
					total := 0
					for _, rows := range perRule.Rows {
						total += len(rows)
					}
					if total > perRule.Full.Len() {
						duplicated++
					}
				}
			}
		}
	}
	if hits < 60 || duplicated < 20 {
		t.Fatalf("only %d plans checked, %d of them with cross-disjunct duplicates; the draw no longer covers the property", hits, duplicated)
	}
}
