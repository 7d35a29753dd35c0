package qcache

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/sources"
	"repro/internal/workload"
)

func q(t testing.TB, src string) logic.UCQ {
	t.Helper()
	u, err := parser.ParseUCQ(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return u
}

func pats(t testing.TB, src string) *access.Set {
	t.Helper()
	ps, err := parser.ParsePatterns(src)
	if err != nil {
		t.Fatalf("parse patterns %q: %v", src, err)
	}
	return ps
}

// testCatalog builds a catalog with R/S/T unary all-output tables.
func testCatalog(t testing.TB) *sources.Catalog {
	t.Helper()
	in := engine.NewInstance()
	in.MustAdd("R", "a").MustAdd("R", "b").MustAdd("S", "b").MustAdd("T", "c")
	return in.MustCatalog(pats(t, "R^o S^o T^o"))
}

func rel(rows ...string) *engine.Rel {
	r := engine.NewRel()
	for _, v := range rows {
		r.Add(engine.Row{engine.V(v)})
	}
	return r
}

func TestPlanCacheHitsVariants(t *testing.T) {
	c := New(Options{})
	ps := pats(t, "R^o S^i")
	base := q(t, "Q(x) :- R(x), S(x).")

	e1, info := c.Plan(base, ps)
	if info.Hit {
		t.Fatal("first plan must miss")
	}
	if e1.Err() != nil {
		t.Fatalf("plan error: %v", e1.Err())
	}

	// α-renamed: different fast key, same canonical key.
	alpha := q(t, "Q(y) :- R(y), S(y).")
	e2, info := c.Plan(alpha, ps)
	if !info.Hit {
		t.Fatal("α-renamed resubmission must hit the plan cache")
	}
	if e2 != e1 {
		t.Fatal("α-renamed hit must return the cached entry")
	}

	// Literal-padded: non-minimal, caught by the minimized canonical key.
	padded := q(t, "Q(x) :- R(x), S(x), R(x).")
	if _, info = c.Plan(padded, ps); !info.Hit {
		t.Fatal("padded resubmission must hit the plan cache")
	}

	// Exact resubmission: fast-key path.
	if _, info = c.Plan(base, ps); !info.Hit {
		t.Fatal("exact resubmission must hit")
	}

	st := c.Stats()
	if st.PlanMisses != 1 || st.PlanHits != 3 {
		t.Fatalf("stats = %+v, want 1 miss / 3 hits", st)
	}

	// Same query under different patterns is a different plan.
	if _, info = c.Plan(base, pats(t, "R^o S^o")); info.Hit {
		t.Fatal("different pattern set must miss")
	}
}

func TestPlanCacheReordersOrderable(t *testing.T) {
	c := New(Options{})
	ps := pats(t, "R^o S^i")
	// Not executable as written (S first needs its input), but orderable.
	u := q(t, "Q(x) :- S(x), R(x).")
	e, _ := c.Plan(u, ps)
	if e.Err() != nil {
		t.Fatalf("orderable query must plan: %v", e.Err())
	}
	if got := e.Exec().Rules[0].Body[0].Atom.Pred; got != "R" {
		t.Fatalf("representative must be reordered to start with R, got %s", got)
	}
	if steps := e.Plan().Steps[0]; len(steps) != 2 || steps[0].Literal.Atom.Pred != "R" {
		t.Fatalf("the plan must carry the reordered rule's adornment, got %v", steps)
	}
	// The orderable query and its executable ordering share the entry.
	if _, info := c.Plan(q(t, "Q(x) :- R(x), S(x)."), ps); !info.Hit {
		t.Fatal("the executable ordering of the same query must hit")
	}
}

func TestPlanCacheReplaysError(t *testing.T) {
	c := New(Options{})
	ps := pats(t, "R^i")
	u := q(t, "Q(x) :- R(x), Nowhere(x).") // no pattern calls Nowhere
	e1, info1 := c.Plan(u, ps)
	if e1.Err() == nil {
		t.Fatal("a query over an undeclared relation must carry a plan error")
	}
	e2, info2 := c.Plan(q(t, "Q(z) :- R(z), Nowhere(z)."), ps)
	if e2.Err() == nil || info1.Hit || !info2.Hit {
		t.Fatal("the planning failure must be cached and replayed")
	}
}

// A plan miss is core.PlanUnion and nothing more: the entry's plan is
// the planner's under the same budget. FEASIBLE's verdicts, which the
// cache does not compute, are asserted of core.FeasibleLimited itself:
// a plan that dismissed no rule certifies feasibility with no search,
// and one that dismissed a rule is answered by ANSWER* at runtime.
func TestPlanEntryFeasible(t *testing.T) {
	samePlan := func(t *testing.T, e *PlanEntry, u logic.UCQ, ps *access.Set, budget int) {
		t.Helper()
		want, _, err := core.PlanUnion(u, ps, budget)
		if e.Err() != nil || err != nil {
			t.Fatalf("entry err %v, PlanUnion err %v", e.Err(), err)
		}
		if !reflect.DeepEqual(e.Plan(), want) {
			t.Errorf("entry plan %v differs from PlanUnion's %v", e.Plan().Exec, want.Exec)
		}
	}

	// Written form not orderable (S(w, z) needs w, which nothing binds),
	// core R(x, y), S(y, z) orderable: the representative certifies
	// feasibility, while FEASIBLE on the text needs its containment check.
	padded := q(t, "Q(x) :- R(x, y), S(y, z), S(w, z).")
	ps := pats(t, "R^oo S^io")
	if res, err := core.FeasibleLimited(padded, ps, 20000); err != nil || res.Verdict != core.VerdictContainment {
		t.Fatalf("fixture: FEASIBLE on the text = %v, %v; want a containment verdict", res, err)
	}
	e, _ := New(Options{}).Plan(padded, ps)
	if e.Err() != nil || e.Plan().Dismissed != nil {
		t.Fatalf("the core is orderable, so the entry must plan every rule: err %v, dismissed %v", e.Err(), e.Plan().Dismissed)
	}
	samePlan(t, e, padded, ps, core.PlanBudget)

	examples := map[string]workload.PaperExample{}
	for _, ex := range workload.PaperExamples() {
		examples[ex.Name] = ex
	}
	// Example 3's second disjunct is not orderable, but it is contained
	// in the first one's core, which is: FEASIBLE on the text needs its
	// containment search, while the plan drops the disjunct and
	// dismisses nothing.
	ex3 := examples["example-3"]
	t.Run("example-3 feasible by search", func(t *testing.T) {
		if res, err := core.FeasibleLimited(ex3.Query, ex3.Patterns, core.PlanBudget); err != nil || !res.Feasible || res.Verdict != core.VerdictContainment {
			t.Fatalf("FEASIBLE on the text = %+v, %v; want feasible by containment", res, err)
		}
		e, _ := New(Options{}).Plan(ex3.Query, ex3.Patterns)
		if e.Err() != nil || e.Plan().Dismissed != nil {
			t.Errorf("err %v, dismissed %v; want a plan that dismisses nothing", e.Err(), e.Plan().Dismissed)
		}
		samePlan(t, e, ex3.Query, ex3.Patterns, core.PlanBudget)
	})

	// The third disjunct is not orderable and is in no single other
	// disjunct, only in their union: FEASIBLE's containment check
	// proves the union feasible.
	byUnion := q(t, "Q(x) :- R(x), S(x). Q(x) :- R(x), not S(x). Q(x) :- R(x), V(y).")
	for _, tt := range []struct {
		name   string
		q      logic.UCQ
		ps     *access.Set
		budget int
		want   string
	}{
		// No executable form, and FEASIBLE proves there is none.
		{"example-4 infeasible", examples["example-4"].Query, examples["example-4"].Patterns, core.PlanBudget, "no"},
		// Feasible, found by the containment check within the default
		// budget and not within one node.
		{"union feasible by search", byUnion, pats(t, "R^o S^i V^i"), core.PlanBudget, "yes"},
		{"union budget spent", byUnion, pats(t, "R^o S^i V^i"), 1, "unknown"},
		// With one node minimization keeps example-3's padding, so no
		// rule is certain and nothing is dropped.
		{"example-3 budget spent", ex3.Query, ex3.Patterns, 1, "unknown"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			e, _ := New(Options{PlanBudget: tt.budget}).Plan(tt.q, tt.ps)
			if e.Err() != nil || e.Plan().Dismissed == nil {
				t.Fatalf("%s has no executable form, yet the plan (err %v) dismissed no rule", tt.name, e.Err())
			}
			samePlan(t, e, tt.q, tt.ps, tt.budget)
			got := "unknown"
			if res, err := core.FeasibleLimited(tt.q, tt.ps, tt.budget); err == nil && res.Feasible {
				got = "yes"
			} else if err == nil {
				got = "no"
			}
			if got != tt.want {
				t.Errorf("FeasibleLimited verdict = %s, want %s", got, tt.want)
			}
		})
	}
}

func TestPlanLRUEviction(t *testing.T) {
	c := New(Options{MaxPlanEntries: 2})
	ps := pats(t, "R^o S^o T^o")
	c.Plan(q(t, "Q(x) :- R(x)."), ps)
	c.Plan(q(t, "Q(x) :- S(x)."), ps)
	c.Plan(q(t, "Q(x) :- T(x)."), ps) // evicts the R plan
	if plans, _ := c.Len(); plans != 2 {
		t.Fatalf("plan count = %d, want 2", plans)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if _, info := c.Plan(q(t, "Q(x) :- R(x)."), ps); info.Hit {
		t.Fatal("evicted plan must miss")
	}
}

func TestPlanSingleflight(t *testing.T) {
	c := New(Options{})
	ps := pats(t, "R^o")
	u := q(t, "Q(x) :- R(x).")
	var wg sync.WaitGroup
	entries := make([]*PlanEntry, 16)
	for i := range entries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entries[i], _ = c.Plan(u, ps)
		}(i)
	}
	wg.Wait()
	for _, e := range entries {
		if e != entries[0] {
			t.Fatal("concurrent planners must share one entry")
		}
	}
	if st := c.Stats(); st.PlanMisses != 1 {
		t.Fatalf("plan built %d times, want 1", st.PlanMisses)
	}
}

func TestAnswerStoreAndFullHit(t *testing.T) {
	c := New(Options{})
	ps := pats(t, "R^o S^o T^o")
	cat := testCatalog(t)
	u := q(t, "Q(x) :- R(x).\nQ(x) :- S(x).")
	e, _ := c.Plan(u, ps)

	if hit := c.Answers(e, cat); hit.Full != nil || hit.CachedRules != 0 {
		t.Fatal("cold answer cache must miss")
	}
	c.StoreAnswers(e, cat, []*engine.Rel{rel("a", "b"), rel("b")})

	hit := c.Answers(e, cat)
	if hit.Full == nil {
		t.Fatalf("both disjuncts stored; want a full hit, got %+v", hit)
	}
	if hit.CachedRules != 2 {
		t.Fatalf("reuse accounting = %d, want 2", hit.CachedRules)
	}
	// Union semantics: "b" appears in both disjuncts, deduped in Full.
	if hit.Full.Len() != 2 {
		t.Fatalf("full hit has %d rows, want 2", hit.Full.Len())
	}

	// An α-variant of the same union hits the same answers.
	e2, _ := c.Plan(q(t, "Q(v) :- S(v).\nQ(v) :- R(v)."), ps)
	if h := c.Answers(e2, cat); h.Full == nil {
		t.Fatal("α-renamed, disjunct-swapped union must reuse the answers")
	}
	if st := c.Stats(); st.AnswerHits != 2 {
		t.Fatalf("answer hits = %d, want 2", st.AnswerHits)
	}
}

func TestAnswerPartialCoverage(t *testing.T) {
	c := New(Options{})
	ps := pats(t, "R^o S^o T^o")
	cat := testCatalog(t)
	e, _ := c.Plan(q(t, "Q(x) :- R(x).\nQ(x) :- S(x)."), ps)
	c.StoreAnswers(e, cat, []*engine.Rel{rel("a", "b"), nil}) // only disjunct 0

	hit := c.Answers(e, cat)
	if hit.Full != nil {
		t.Fatal("one uncovered disjunct must not be a full hit")
	}
	if !hit.Covered[0] || hit.Covered[1] {
		t.Fatalf("coverage = %v, want [true false]", hit.Covered)
	}
	if hit.CachedRules != 1 || len(hit.Rows[0]) != 2 {
		t.Fatalf("partial reuse = %d rules / %d rows, want 1 / 2", hit.CachedRules, len(hit.Rows[0]))
	}
	if st := c.Stats(); st.PartialReuseRules != 1 {
		t.Fatalf("PartialReuseRules = %d, want 1", st.PartialReuseRules)
	}
}

func TestAnswerGenerationInvalidation(t *testing.T) {
	c := New(Options{})
	ps := pats(t, "R^o S^o T^o")
	cat := testCatalog(t)
	e, _ := c.Plan(q(t, "Q(x) :- R(x)."), ps)
	c.StoreAnswers(e, cat, []*engine.Rel{rel("a")})
	if c.Answers(e, cat).Full == nil {
		t.Fatal("want a hit before invalidation")
	}
	cat.Invalidate()
	if c.Answers(e, cat).Full != nil {
		t.Fatal("bumped catalog generation must orphan the cached answers")
	}
	// A different catalog value never shares answers either.
	if c.Answers(e, testCatalog(t)).Full != nil {
		t.Fatal("a different catalog must not share answers")
	}
}

// TestAnswerTTLInjectedClock pins TTL expiry to a deterministic clock:
// Options.Now replaces time.Now, so the boundary is exact — no sleeps,
// no flake margin. This is the same injection seam sources.VirtualClock
// gives the replica runtime.
func TestAnswerTTLInjectedClock(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	c := New(Options{TTL: time.Minute, Now: clock})
	ps := pats(t, "R^o S^o T^o")
	cat := testCatalog(t)
	e, _ := c.Plan(q(t, "Q(x) :- R(x)."), ps)
	c.StoreAnswers(e, cat, []*engine.Rel{rel("a")})

	advance(time.Minute - time.Second)
	if c.Answers(e, cat).Full == nil {
		t.Fatal("one second before the TTL boundary must still hit")
	}
	advance(2 * time.Second)
	if c.Answers(e, cat).Full != nil {
		t.Fatal("one second past the TTL boundary must miss")
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("TTL expiry must count as an eviction")
	}
	assertIndex(t, c)

	// Re-storing under the advanced clock starts a fresh window.
	c.StoreAnswers(e, cat, []*engine.Rel{rel("a")})
	advance(30 * time.Second)
	if c.Answers(e, cat).Full == nil {
		t.Fatal("a re-stored answer gets a fresh TTL window")
	}
}

func TestAnswerTTLAndFalseCores(t *testing.T) {
	c := New(Options{TTL: time.Millisecond})
	ps := pats(t, "R^o S^o T^o")
	cat := testCatalog(t)
	e, _ := c.Plan(q(t, "Q(x) :- R(x)."), ps)
	c.StoreAnswers(e, cat, []*engine.Rel{rel("a")})
	time.Sleep(5 * time.Millisecond)
	if c.Answers(e, cat).Full != nil {
		t.Fatal("expired answers must miss")
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("TTL expiry must count as an eviction")
	}

	// A statically unsatisfiable disjunct is covered with no rows, on any
	// catalog, without storage.
	c2 := New(Options{})
	e2, _ := c2.Plan(q(t, `Q(x) :- R(x), not R(x).`), ps)
	hit := c2.Answers(e2, cat)
	if hit.Full == nil || hit.Full.Len() != 0 {
		t.Fatalf("unsatisfiable disjunct must be a full empty hit, got %+v", hit)
	}
}

func TestAnswerLRUBounds(t *testing.T) {
	c := New(Options{MaxAnswerEntries: 1})
	ps := pats(t, "R^o S^o T^o")
	cat := testCatalog(t)
	e1, _ := c.Plan(q(t, "Q(x) :- R(x)."), ps)
	e2, _ := c.Plan(q(t, "Q(x) :- S(x)."), ps)
	c.StoreAnswers(e1, cat, []*engine.Rel{rel("a")})
	c.StoreAnswers(e2, cat, []*engine.Rel{rel("b")}) // evicts e1's answers
	if _, answers := c.Len(); answers != 1 {
		t.Fatalf("answer entries = %d, want 1", answers)
	}
	if c.Answers(e1, cat).Full != nil {
		t.Fatal("evicted answers must miss")
	}
	if c.Answers(e2, cat).Full == nil {
		t.Fatal("resident answers must hit")
	}

	// Byte bound: a single oversized entry still stores (bounds keep at
	// least one entry), but a second pushes the first out.
	cb := New(Options{MaxAnswerBytes: 1})
	cb.StoreAnswers(e1, cat, []*engine.Rel{rel("a")})
	cb.StoreAnswers(e2, cat, []*engine.Rel{rel("b")})
	if _, answers := cb.Len(); answers != 1 {
		t.Fatalf("byte-bounded answer entries = %d, want 1", answers)
	}
	assertIndex(t, c)
	assertIndex(t, cb)
}

func TestDisableAnswers(t *testing.T) {
	c := New(Options{DisableAnswers: true})
	ps := pats(t, "R^o S^o T^o")
	cat := testCatalog(t)
	e, _ := c.Plan(q(t, "Q(x) :- R(x)."), ps)
	c.StoreAnswers(e, cat, []*engine.Rel{rel("a")})
	if hit := c.Answers(e, cat); hit.Full != nil || hit.CachedRules != 0 {
		t.Fatal("DisableAnswers must never serve rows")
	}
	if _, answers := c.Len(); answers != 0 {
		t.Fatal("DisableAnswers must not store rows")
	}
}

func TestEquivScanMechanism(t *testing.T) {
	core := func(src string) logic.CQ {
		r := q(t, src).Rules[0]
		r.HeadPred = canonHeadPred
		return r
	}
	install := func(c *Cache, key string, stored logic.CQ) {
		c.installAnswerLocked(&ansEntry{
			key: key + "\x1ffp", catFP: "fp", core: stored, sig: coreSig(stored),
			rel: engine.Frozen([]engine.Row{{engine.V("a")}}), created: time.Now(),
		})
	}
	// scan looks want up and returns what it found and the nodes charged.
	scan := func(c *Cache, want logic.CQ, catFP string, budget int) (*ansEntry, int) {
		left := budget
		a := c.equivScanLocked(want, coreSig(want), catFP, &left)
		return a, budget - left
	}
	c := New(Options{})
	c.mu.Lock()
	defer c.mu.Unlock()
	// A non-minimal core (as a spent planning budget leaves one) is not
	// isomorphic to its minimal form, hence under a different key; the
	// mutual containment test finds it.
	install(c, "k", core("Q(x) :- R(x, y), R(x, z), not S(x)."))
	want := core("Q(x) :- R(x, y), not S(x).")
	a, nodes := scan(c, want, "fp", 10000)
	if a == nil {
		t.Fatal("equivalent core must be found")
	}
	if nodes <= 0 {
		t.Fatal("the test must charge its containment nodes")
	}
	// Same signature, different meaning: tested and rejected.
	if a, spent := scan(c, core("Q(x) :- R(x, x), not S(x)."), "fp", 10000); a != nil || spent <= 0 {
		t.Fatalf("non-equivalent core of the same signature: found %v, %d nodes; want a paid-for refusal", a != nil, spent)
	}
	// What the signature tells apart is refused before any containment
	// test starts.
	for _, src := range []string{
		`Q(x) :- R(x, "c"), not S(x).`,     // a positive constant
		`Q(x) :- R(x, y), not S("c").`,     // a negated constant
		`Q(x) :- R(x, y).`,                 // a negated predicate
		`Q(x) :- R(x, y), T(x), not S(x).`, // a positive predicate
		`Q(x) :- R(x, y, y), not S(x).`,    // an arity
		`Q("c") :- R("c", y), not S("c").`, // a head constant (and R's)
		`Q(x, x) :- R(x, y), not S(x).`,    // the head's arity
	} {
		if a, spent := scan(c, core(src), "fp", 10000); a != nil || spent != 0 {
			t.Errorf("%s: found %v, %d nodes; want refused with the budget untouched", src, a != nil, spent)
		}
	}
	// Wrong fingerprint and exhausted budget refuse.
	if a, spent := scan(c, want, "other-fp", 10000); a != nil || spent != 0 {
		t.Fatal("fingerprint mismatch must refuse, untested")
	}
	if a, _ := scan(c, want, "fp", 0); a != nil {
		t.Fatal("exhausted budget must refuse")
	}
	// The cost of a lookup does not depend on what else is cached.
	for i := 0; i < 1000; i++ {
		install(c, fmt.Sprint("other", i), core(fmt.Sprintf(`Q(x) :- R(x, "c%d"), not S(x).`, i)))
	}
	if a, spent := scan(c, want, "fp", 10000); a == nil || spent != nodes {
		t.Fatalf("beside 1000 entries of other signatures: found %v, %d nodes; want found, %d nodes", a != nil, spent, nodes)
	}
	if err := checkIndexLocked(c); err != nil {
		t.Fatal(err)
	}

	cOff := New(Options{EquivScanLimit: -1})
	cOff.mu.Lock()
	defer cOff.mu.Unlock()
	install(cOff, "k", want)
	if a, spent := scan(cOff, want, "fp", 10000); a != nil || spent != 0 {
		t.Fatal("disabled scan must refuse")
	}
}

func TestPurge(t *testing.T) {
	c := New(Options{})
	ps := pats(t, "R^o S^o T^o")
	cat := testCatalog(t)
	e, _ := c.Plan(q(t, "Q(x) :- R(x)."), ps)
	c.StoreAnswers(e, cat, []*engine.Rel{rel("a")})
	c.Purge()
	if p, a := c.Len(); p != 0 || a != 0 {
		t.Fatalf("after Purge: %d plans, %d answers; want 0/0", p, a)
	}
	assertIndex(t, c)
	if _, info := c.Plan(q(t, "Q(x) :- R(x)."), ps); info.Hit {
		t.Fatal("purged plan must miss")
	}
}
