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
	"repro/internal/sources/sourcetest"
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
			wantInc, ok := func() (Report, bool) {
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
			cat, verify := sourcetest.ReadOnlyCatalog(paperInstance(ex.Patterns).MustCatalog(ex.Patterns))

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
			verify(t) // the first pass stored its answer without writing into a source's rows
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

// One planner for every path: over drawn unions, orderable or not, and
// four rewrites of each — as drawn, with a disjunct repeated, with an
// unsatisfiable disjunct, and with a disjunct beside itself plus one
// literal — an uncached Exec and a cached miss make the same source
// calls and return the same rows and the same report, and a cached hit
// returns the same rows and the same report with no source call, a
// dismissed rule's included.
func TestOnePlannerAcrossPaths(t *testing.T) {
	checked, dismissed, dropped := 0, 0, 0
	for seed := int64(0); seed < 30; seed++ {
		g := workload.New(1300 + seed)
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
			drawn := g.UCQ(s, disjuncts, cfg)
			first := drawn.Rules[0]
			repeated := drawn.Clone()
			repeated.Rules = append(repeated.Rules, workload.AlphaRename(Query{Rules: []Rule{first}}, "dup").Rules[0])
			unsat := drawn.Clone()
			dead := first.Clone()
			dead.Body = append(dead.Body, Literal{Atom: first.Body[0].Atom.Clone(), Negated: true})
			unsat.Rules = append([]Rule{dead}, unsat.Rules...)
			contained := drawn.Clone()
			longer := first.Clone()
			longer.Body = append(longer.Body, g.CQ(s, cfg).Body[0])
			contained.Rules = append(contained.Rules, longer)

			for _, v := range []struct {
				name string
				q    Query
			}{{"drawn", drawn}, {"repeated", repeated}, {"unsat", unsat}, {"contained", contained}} {
				what := fmt.Sprintf("seed %d, %d disjuncts, %s: %s", seed, disjuncts, v.name, v.q)
				run := func(opts ...ExecOption) (*Rel, string, int) {
					t.Helper()
					before := cat.TotalStats().Calls
					res, err := Exec(context.Background(), v.q, ps, cat, opts...)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					rel, err := res.Rel()
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					rep, _ := res.Report()
					return rel, rep.String(), cat.TotalStats().Calls - before
				}
				wantRel, wantRep, wantCalls := run()
				qc := NewQueryCache(QueryCacheOptions{})
				gotRel, gotRep, gotCalls := run(WithQueryCache(qc))
				if gotCalls != wantCalls || !gotRel.Equal(wantRel) || gotRep != wantRep {
					t.Fatalf("%s\ncached miss: %d calls, %s\n%s\nuncached: %d calls, %s\n%s", what, gotCalls, gotRel, gotRep, wantCalls, wantRel, wantRep)
				}
				if hitRel, hitRep, hitCalls := run(WithQueryCache(qc)); hitCalls != 0 || !hitRel.Equal(wantRel) || hitRep != wantRep {
					t.Fatalf("%s\ncached hit: %d calls, %s\n%s\nwant no calls, %s\n%s", what, hitCalls, hitRel, hitRep, wantRel, wantRep)
				}
				entry, _ := qc.Plan(v.q, ps)
				checked++
				if entry.Plan().Dismissed != nil {
					dismissed++
				}
				if len(entry.Exec().Rules) < len(v.q.Rules) {
					dropped++
				}
			}
		}
	}
	if checked < 300 || dismissed < 30 || dropped < 100 {
		t.Fatalf("%d variants checked, %d with a dismissed rule, %d with a rule dropped; the draw no longer covers the property", checked, dismissed, dropped)
	}
}

// The union is minimized before it is planned, on every path: a rule
// padded with a literal that folds away, and a disjunct contained in
// another, cost no calls of their own. Each query makes the 3 calls of
// R(x, y), S(y, w) alone: one scan of R, and S at b and at c.
func TestMinimizedUnionCallsOnEveryPath(t *testing.T) {
	ps := MustParsePatterns(`R^oo S^io L^o`)
	in := NewInstance()
	if err := in.ParseInto(`R("a", "b"). R("a", "c"). R("d", "b"). S("b", "e"). S("c", "f"). L("a").`); err != nil {
		t.Fatal(err)
	}
	cat := in.MustCatalog(ps)
	for _, src := range []string{
		`Q(x) :- R(x, y), R(x, z), S(y, w).`,
		`Q(x) :- R(x, y), S(y, w). Q(x) :- R(x, y), S(y, w), L(x).`,
	} {
		q := MustParseQuery(src)
		for _, path := range []struct {
			name string
			opts []ExecOption
		}{{"uncached", nil}, {"cached miss", []ExecOption{WithQueryCache(NewQueryCache(QueryCacheOptions{}))}}} {
			before := cat.TotalStats().Calls
			if got := execRel(t, q, ps, cat, path.opts...); got.Len() != 2 {
				t.Errorf("%s, %s: %d rows, want a and d", src, path.name, got.Len())
			}
			if calls := cat.TotalStats().Calls - before; calls != 3 {
				t.Errorf("%s, %s: %d calls, want 3", src, path.name, calls)
			}
		}
	}
}

// Example 3 is feasible though no rule of it is orderable as written:
// its first rule minimizes to B(i, a, t), L(i), which is, and contains
// the second. The planner keeps the first alone, so every path answers
// exactly and reports the answer complete.
func TestExample3AnsweredExactly(t *testing.T) {
	var ex workload.PaperExample
	for _, e := range workload.PaperExamples() {
		if e.Name == "example-3" {
			ex = e
		}
	}
	in := NewInstance()
	if err := in.ParseInto(`B("i1", "a1", "t1"). B("i2", "a2", "t1"). B("i3", "a3", "t2"). L("i1"). L("i2").`); err != nil {
		t.Fatal(err)
	}
	cat := in.MustCatalog(ex.Patterns)
	want := execRel(t, ex.Query, nil, nil, WithNaive(in))
	if want.Len() != 2 {
		t.Fatalf("fixture: naive answer %s, want a1 and a2", want)
	}
	qc := NewQueryCache(QueryCacheOptions{})
	for _, path := range []struct {
		name string
		opts []ExecOption
	}{
		{"uncached", nil},
		{"streamed", []ExecOption{WithStreaming()}},
		{"cached miss", []ExecOption{WithQueryCache(qc)}},
		{"cached hit", []ExecOption{WithQueryCache(qc)}},
	} {
		res, err := Exec(context.Background(), ex.Query, ex.Patterns, cat, path.opts...)
		if err != nil {
			t.Fatalf("%s: %v", path.name, err)
		}
		got, err := res.Rel()
		if err != nil {
			t.Fatalf("%s: %v", path.name, err)
		}
		if rep, ok := res.Report(); !got.Equal(want) || !ok || !rep.Complete() {
			t.Errorf("%s: %s, complete %v; want %s, complete", path.name, got, rep.Complete(), want)
		}
	}
}

// incSummary renders what two degraded runs of the same query must agree
// on: the rule accounting and, per dropped disjunct, its position,
// failing source and class.
func incSummary(inc Report) string {
	s := fmt.Sprintf("%d/%d", inc.RulesSurvived, inc.RulesTotal)
	for _, f := range inc.Failed {
		s += fmt.Sprintf(" rule%d@%s:%s", f.RuleIndex, f.Source, f.Class)
	}
	return s
}

// One plan, cached or not: a query that is orderable but not executable
// as written — Example 1, and random unions with every body reversed —
// answers the same through Exec with and without a query cache,
// materialized, streamed, and under WithPartialResults with one source
// killed (same rows, same Report).
func TestExecSameAnswerWithAndWithoutCache(t *testing.T) {
	type draw struct {
		name string
		q    Query
		ps   *PatternSet
		in   *Instance
	}
	ex1 := workload.PaperExamples()[0]
	draws := []draw{{ex1.Name, ex1.Query, ex1.Patterns, paperInstance(ex1.Patterns)}}
	g := workload.New(4242)
	cfg := workload.QueryConfig{PosLits: 3, NegLits: 1, VarPool: 4, ConstProb: 0.1, HeadVars: 1, DomainSize: 5}
	for i := 0; i < 400 && len(draws) < 25; i++ {
		s := g.Schema(4, 1, 2)
		ps := g.Patterns(s, 0.4, 2)
		u := g.UCQ(s, 2, cfg)
		for r := range u.Rules {
			u.Rules[r] = workload.Reversed(u.Rules[r])
		}
		in := NewInstance()
		if err := in.LoadFacts(g.Facts(s, 12, 5)); err != nil {
			t.Fatal(err)
		}
		if Orderable(u, ps) && !Executable(u, ps) {
			draws = append(draws, draw{fmt.Sprintf("draw %d", i), u, ps, in})
		}
	}
	if len(draws) < 20 {
		t.Fatalf("only %d orderable, non-executable draws", len(draws))
	}
	degraded := 0
	for _, d := range draws {
		label := fmt.Sprintf("%s: %s", d.name, d.q)
		cat := d.in.MustCatalog(d.ps)
		want := execRel(t, d.q, d.ps, cat)
		qc := NewQueryCache(QueryCacheOptions{})
		if got := execRel(t, d.q, d.ps, cat, WithQueryCache(qc)); !got.Equal(want) {
			t.Fatalf("%s\ncached %s, uncached %s", label, got, want)
		}
		for _, opts := range [][]ExecOption{{WithStreaming()}, {WithStreaming(), WithQueryCache(NewQueryCache(QueryCacheOptions{}))}} {
			if got := execRel(t, d.q, d.ps, cat, opts...); !got.Equal(want) {
				t.Fatalf("%s\nstreamed (%d options) %s, want %s", label, len(opts), got, want)
			}
		}

		entry, _ := qc.Plan(d.q, d.ps)
		if err := entry.Err(); err != nil {
			t.Fatal(err)
		}
		dead := "" // the first source of the last rule that runs
		for _, rule := range entry.Exec().Rules {
			if !rule.False {
				dead = rule.Body[0].Atom.Pred
			}
		}
		if dead == "" {
			continue
		}
		// One call at a time: the order in which a dead source's breaker
		// sees failures then decides the failure classes, not scheduling.
		rt := fastRuntime()
		rt.Concurrency = 1
		var rels [2]*Rel
		var incs [2]string
		for k, opts := range [][]ExecOption{nil, {WithQueryCache(qc)}} {
			killed, _, _ := killSource(t, d.in, d.ps, dead)
			res, err := Exec(context.Background(), d.q, d.ps, killed, append(opts, WithRuntime(rt), WithPartialResults())...)
			if err != nil {
				t.Fatalf("%s\n%s dead: %v", label, dead, err)
			}
			if rels[k], err = res.Rel(); err != nil {
				t.Fatal(err)
			}
			inc, _ := res.Incompleteness()
			incs[k] = incSummary(inc)
			if k == 0 && !inc.Complete() {
				degraded++
			}
		}
		if !rels[1].Equal(rels[0]) || incs[1] != incs[0] {
			t.Fatalf("%s\n%s dead: cached %s (%s), uncached %s (%s)", label, dead, rels[1], incs[1], rels[0], incs[0])
		}
	}
	if degraded < len(draws)/2 {
		t.Errorf("only %d of %d draws degraded with a source killed", degraded, len(draws))
	}
}

// A rule the plan dismissed is never cached under its core: its rows
// are those of the overestimate Qᵢᵒ the plan runs, and the answer tier
// keys them by that query. The same rule over one catalog is dismissed
// under one pattern set and certain under another, and the answer tier
// keys rows by query and catalog alone, not by pattern set, so rows
// keyed by the core would serve an overestimate as certain rows, or
// certain rows as the overestimate.
func TestDismissedRulesNeverCached(t *testing.T) {
	q := MustParseQuery(`D(x) :- A(x), Alias(k, x, y), not B(y).`)
	limited, full := MustParsePatterns(`A^o B^i Alias^ioo`), MustParsePatterns(`A^o B^i Alias^ioo Alias^ooo`)
	in := NewInstance()
	if err := in.ParseInto(`A("a"). A("b"). A("c"). B("b"). B("d"). Alias("k", "b", "e"). Alias("k", "c", "d").`); err != nil {
		t.Fatal(err)
	}
	cat := in.MustCatalog(full)
	report := func(ps *PatternSet, opts ...ExecOption) string {
		t.Helper()
		res, err := Exec(context.Background(), q, ps, cat, opts...)
		if err != nil {
			t.Fatal(err)
		}
		star, _ := res.Report()
		return star.String()
	}
	want := map[*PatternSet]string{limited: report(limited), full: report(full)}
	if want[limited] == want[full] {
		t.Fatal("fixture: the two pattern sets must answer differently")
	}
	for _, order := range [][]*PatternSet{{limited, full}, {full, limited}} {
		qc := NewQueryCache(QueryCacheOptions{})
		for pass := 0; pass < 2; pass++ {
			for _, ps := range order {
				if got := report(ps, WithQueryCache(qc)); got != want[ps] {
					t.Errorf("under %s, cached:\n%s\nwant the uncached\n%s", ps, got, want[ps])
				}
			}
		}
	}
}

// A repeated access-limited query is answered from the cache: the rule
// the plan dismissed is cached under the overestimate Qᵢᵒ it runs, so on
// Example 4's union a hit — materialized or streamed — makes no source
// call, while an uncached run and a cached miss make the 3 of the live
// run. Every path returns the same rows and the same report.
func TestAccessLimitedHitMakesNoCalls(t *testing.T) {
	q, ps, in := starFixture(t)
	cat := in.MustCatalog(ps)
	qc := NewQueryCache(QueryCacheOptions{})
	var firstRows []Row
	var firstReport string
	for _, mode := range []struct {
		name  string
		calls int
		opts  []ExecOption
		next  bool // read the stream with a Next loop rather than Rel
	}{
		{"uncached", 3, nil, false},
		{"streamed, drained", 3, []ExecOption{WithStreaming()}, false},
		{"streamed, Next", 3, []ExecOption{WithStreaming()}, true},
		{"cached miss", 3, []ExecOption{WithQueryCache(qc)}, false},
		{"cached hit", 0, []ExecOption{WithQueryCache(qc)}, false},
		{"cached hit, streamed, drained", 0, []ExecOption{WithQueryCache(qc), WithStreaming()}, false},
		{"cached hit, streamed, Next", 0, []ExecOption{WithQueryCache(qc), WithStreaming()}, true},
	} {
		before := cat.TotalStats().Calls
		res, err := Exec(context.Background(), q, ps, cat, mode.opts...)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		var rows []Row
		if mode.next {
			s := res.Stream()
			for s.Next() {
				rows = append(rows, s.Tuple())
			}
			if err := s.Close(); err != nil {
				t.Fatalf("%s: %v", mode.name, err)
			}
		} else {
			rel, err := res.Rel()
			if err != nil {
				t.Fatalf("%s: %v", mode.name, err)
			}
			rows = rel.Rows()
		}
		if calls := cat.TotalStats().Calls - before; calls != mode.calls {
			t.Errorf("%s: %d source calls, want %d", mode.name, calls, mode.calls)
		}
		rep, ok := res.Report()
		if !ok || rep.Complete() || !rep.Delta.HasNull() {
			t.Fatalf("%s: want an incomplete report with a null-carrying Δ:\n%s", mode.name, rep.String())
		}
		if firstReport == "" {
			firstRows, firstReport = rows, rep.String()
			continue
		}
		same := len(rows) == len(firstRows)
		for i := 0; same && i < len(rows); i++ {
			same = rows[i].Key() == firstRows[i].Key()
		}
		if !same || rep.String() != firstReport {
			t.Errorf("%s: rows %v, report\n%s\nwant the uncached %v,\n%s", mode.name, rows, rep.String(), firstRows, firstReport)
		}
	}
	if st := qc.Stats(); st.AnswerHits != 3 {
		t.Errorf("cache stats %+v, want the three hits answered in full", st)
	}
}
