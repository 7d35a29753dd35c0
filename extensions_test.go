package ucqn

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/sources"
)

func TestViewsUnfoldFacade(t *testing.T) {
	v := NewViews()
	if err := v.Add(MustParseQuery("Subject(id, sp) :- LabA(id, sp).\nSubject(id, sp) :- LabB(id, sp).")); err != nil {
		t.Fatal(err)
	}
	if err := v.Add(MustParseQuery(`Healthy(id) :- Screen(id).`)); err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(`Q(id) :- Subject(id, sp), not Healthy(id).`)
	u, err := v.Unfold(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Rules) != 2 {
		t.Fatalf("unfolded = %s", u)
	}
	ps := MustParsePatterns(`LabA^oo LabB^oo Screen^i`)
	if !Feasible(u, ps).Feasible {
		t.Error("unfolded plan must be feasible")
	}
}

func TestProgramFacade(t *testing.T) {
	p := NewProgram()
	rules, err := ParseRules(`
		Stock(s) :- WA(s).
		Stock(s) :- WB(s).
		Order(s) :- Stock(s), Price(s, pr).
	`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if err := p.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	compiled, err := p.Compile("Order")
	if err != nil {
		t.Fatal(err)
	}
	if len(compiled.Rules) != 2 {
		t.Fatalf("compiled = %s", compiled)
	}
	ps := MustParsePatterns(`WA^o WB^o Price^io`)
	if !Feasible(compiled, ps).Feasible {
		t.Error("compiled plan must be feasible")
	}
}

func TestFeasibleUnderFacade(t *testing.T) {
	u := MustParseQuery(`
		Q(x, y) :- not T(z), R(x, z), B(x, y).
		Q(x, y) :- W(x, y).
	`)
	ps := MustParsePatterns(`T^o R^oo B^oi W^oo S^o`)
	chain := MustParseINDs(`R[1] < S[0]; S[0] < T[0]`)
	if Feasible(u, ps).Feasible {
		t.Fatal("infeasible without constraints")
	}
	if !FeasibleUnder(u, ps, chain).Feasible {
		t.Error("feasible under the chained dependencies")
	}
}

func TestINDOptimizeFacade(t *testing.T) {
	u := MustParseQuery(`
		Q(x, y) :- not S(z), R(x, z), B(x, y).
		Q(x, y) :- T(x, y).
	`)
	ps := MustParsePatterns(`S^o R^oo B^oi T^oo`)
	inds, err := ParseINDs(`R[1] < S[0]`)
	if err != nil {
		t.Fatal(err)
	}
	if Feasible(u, ps).Feasible {
		t.Fatal("unoptimized query must be infeasible")
	}
	opt := inds.Optimize(u)
	if !Feasible(opt, ps).Feasible {
		t.Error("optimized query must be feasible")
	}
	in := NewInstance().MustAdd("R", "x", "z").MustAdd("S", "z")
	if !inds.Holds(in) {
		t.Error("Holds must see the satisfied dependency")
	}
}

func TestOptimizeOrderFacade(t *testing.T) {
	q := MustParseQuery(`Q(x, y) :- R1(x, w), R2(w, y), not L(x).`)
	ps := MustParsePatterns(`R1^oo R2^io L^i`)
	opt, ok := OptimizeOrder(q, ps)
	if !ok {
		t.Fatal("orderable")
	}
	if got := opt.Rules[0].Body[1].String(); got != "not L(x)" {
		t.Errorf("filter not hoisted: %s", opt)
	}
	if !Equivalent(q, opt) {
		t.Error("optimization must preserve equivalence")
	}
}

func TestAcyclicRuleFacade(t *testing.T) {
	if !AcyclicRule(MustParseRule(`Q(x) :- E(x, y), E(y, z).`)) {
		t.Error("chain is acyclic")
	}
	if AcyclicRule(MustParseRule(`Q(x) :- E(x, y), E(y, z), E(z, x).`)) {
		t.Error("triangle is cyclic")
	}
}

// swapSource answers from whichever table it was last pointed at: a
// source whose data changes behind the caller's back.
type swapSource struct {
	*Table // name, arity, patterns and stats
	mu     sync.Mutex
	cur    *Table
}

func (s *swapSource) Call(ctx context.Context, p Pattern, inputs [][]string) ([][]Tuple, error) {
	s.mu.Lock()
	cur := s.cur
	s.mu.Unlock()
	return cur.Call(ctx, p, inputs)
}

func (s *swapSource) swap(row string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur = sources.MustTable("R", 1, s.Patterns(), []Tuple{{row}})
}

// A CachedCatalog's call caches serve the catalog's current generation
// only: after the source's data changed, both QueryCache.InvalidateCatalog
// and Catalog.ResetStats make every later execution, cached or not,
// fetch the new rows, and the answer tier stores those.
func TestCachedCatalogForgetsEarlierGenerations(t *testing.T) {
	ps := MustParsePatterns(`R^o`)
	src := &swapSource{Table: sources.MustTable("R", 1, ps.Patterns("R"), nil)}
	src.swap("a")
	base, err := NewCatalog(src)
	if err != nil {
		t.Fatal(err)
	}
	cat, _, err := CachedCatalog(base)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(`Q(x) :- R(x).`)
	qc := NewQueryCache(QueryCacheOptions{})
	check := func(when, want string) {
		t.Helper()
		for _, opts := range [][]ExecOption{{WithQueryCache(qc)}, nil, {WithQueryCache(qc)}} {
			rel := execRel(t, q, ps, cat, opts...)
			if rel.Len() != 1 || rel.Rows()[0][0].S != want {
				t.Errorf("%s, %d options: %s, want {%s}", when, len(opts), rel, want)
			}
		}
	}
	check("before any change", "a")
	src.swap("b")
	qc.InvalidateCatalog(cat)
	check("after InvalidateCatalog", "b")
	src.swap("c")
	cat.ResetStats()
	check("after ResetStats", "c")
}

func TestCachedCatalogFacade(t *testing.T) {
	in := NewInstance()
	for i := 0; i < 20; i++ {
		in.MustAdd("R", xval(i), "z0")
	}
	in.MustAdd("T", "z0", "y0")
	ps := MustParsePatterns(`R^oo T^io`)
	base, err := in.Catalog(ps)
	if err != nil {
		t.Fatal(err)
	}
	cat, caches, err := CachedCatalog(base)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(`Q(x, y) :- R(x, z), T(z, y).`)
	// Within a query the runtime already dedupes the 20 identical T
	// lookups into one call; the cache's job is repeats across queries.
	ans, prof, err := execProfiled(q, ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 20 {
		t.Errorf("answers = %d, want 20", ans.Len())
	}
	if prof.Calls.Deduped != 19 {
		t.Errorf("deduped = %d, want 19 (20 identical T lookups)", prof.Calls.Deduped)
	}
	if ans2, err := execAnswer(q, ps, cat); err != nil || ans2.Len() != 20 {
		t.Fatalf("second run: %v, %d answers", err, ans2.Len())
	}
	totalHits := 0
	for _, c := range caches {
		h, _ := c.HitsMisses()
		totalHits += h
	}
	if totalHits != 2 {
		t.Errorf("cache hits = %d, want 2 (the second run's R scan and T lookup)", totalHits)
	}
	// The wrapped catalog reports the inner tables' real remote traffic:
	// R scanned once, T looked up once, everything else served locally.
	if st := cat.TotalStats(); st.Calls != 2 {
		t.Errorf("wrapped TotalStats.Calls = %d, want 2", st.Calls)
	}
	// The wrapped single source constructor works too.
	single := NewCachedSource(base.Source("T"))
	if _, err := single.Call(context.Background(), "io", [][]string{{"z0"}}); err != nil {
		t.Fatal(err)
	}
}

func xval(i int) string {
	return string(rune('a' + i%26))
}

func TestRuntimeFacade(t *testing.T) {
	in := NewInstance()
	for i := 0; i < 12; i++ {
		in.MustAdd("R", xval(i), "z"+xval(i%3))
	}
	for i := 0; i < 3; i++ {
		in.MustAdd("T", "z"+xval(i), "y"+xval(i))
	}
	ps := MustParsePatterns(`R^oo T^io`)
	base, err := in.Catalog(ps)
	if err != nil {
		t.Fatal(err)
	}
	// Put a fault injector in front of every source; the runtime's retry
	// policy must absorb the injected failures.
	var flaky []Source
	for _, name := range base.Names() {
		flaky = append(flaky, NewFlakySource(base.Source(name), FlakyConfig{FailFirst: 1}))
	}
	cat, err := NewCatalog(flaky...)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(`Q(x, y) :- R(x, z), T(z, y).`)

	rt := NewRuntime()
	rt.Retry = RetryPolicy{MaxAttempts: 3}
	ans := execRel(t, q, ps, cat, WithRuntime(rt))
	if ans.Len() != 12 {
		t.Errorf("answers = %d, want 12", ans.Len())
	}
	seq := execRel(t, q, ps, in.MustCatalog(ps), WithRuntime(SequentialRuntime()))
	if !ans.Equal(seq) {
		t.Error("runtime answers must match the sequential baseline")
	}
	// StatsReporter lets the wrapped catalog report inner traffic: the
	// injected failures never reach the tables, so only the 4 successful
	// distinct calls (1 R scan + 3 T lookups) are metered.
	if st := cat.TotalStats(); st.Calls != 4 {
		t.Errorf("wrapped TotalStats.Calls = %d, want 4", st.Calls)
	}
	var _ StatsReporter = NewFlakySource(base.Source("R"), FlakyConfig{})
	if err := Transient(errEnv); !IsTransient(err) || IsTransient(errEnv) {
		t.Error("Transient/IsTransient classification broken")
	}
}

var errEnv = errors.New("env down")
