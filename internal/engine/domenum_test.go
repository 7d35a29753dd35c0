package engine

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/sources"
)

// enumerate is enumerateDomain on rt under a background context; it
// fails the test on an error.
func enumerate(t *testing.T, rt *Runtime, cat *sources.Catalog, seeds []string, maxCalls int) DomResult {
	t.Helper()
	dom, err := rt.enumerateDomain(context.Background(), cat, seeds, maxCalls, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	return dom
}

// Example 8 of the paper: the dismissed rule Q1(x,y) :- not S(z), R(x,z),
// B(x,y) is re-admitted to the underestimate as
// Q1(x,y) :- R(x,z), not S(z), dom(y), B(x,y).
func TestExample8ImprovedUnderestimate(t *testing.T) {
	u := ucq(t, `
		Q(x, y) :- not S(z), R(x, z), B(x, y).
		Q(x, y) :- T(x, y).
	`)
	ps := pats(t, `S^o R^oo B^oi T^oo`)
	// B(a, b): y=b is reachable through the domain (it appears in R), so
	// the improved underestimate finds the answer (a, b) that the plain
	// underestimate misses.
	in := NewInstance().
		MustAdd("R", "a", "b").
		MustAdd("B", "a", "b").
		MustAdd("S", "c").
		MustAdd("T", "t1", "t2")
	cat := in.MustCatalog(ps)
	res, err := answerStar(u, ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Under.Contains(RowOf("a", "b")) {
		t.Fatal("plain underestimate must miss (a, b)")
	}
	improved, rules, dom, err := defaultRuntime.ImproveUnder(context.Background(), mustPlan(t, u, ps), res.Under, ps, cat, 10_000, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !improved.Contains(RowOf("a", "b")) {
		t.Errorf("improved underestimate = %s, want to contain (a, b); dom = %v", improved, dom.Values)
	}
	if len(rules.Rules) != 1 {
		t.Fatalf("improved rules = %s", rules)
	}
	// The improved rule has the shape of Example 8.
	got := rules.Rules[0].String()
	want := "Q(x, y) :- R(x, z), not S(z), __dom(y), B(x, y)"
	if got != want {
		t.Errorf("improved rule = %q, want %q", got, want)
	}
	// The improved underestimate is still sound: contained in ground truth.
	truth, err := AnswerNaive(u, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range improved.Rows() {
		if !truth.Contains(row) {
			t.Errorf("improved underestimate row %s is not a true answer", row)
		}
	}
}

func TestEnumerateDomainFixpoint(t *testing.T) {
	// R^oo seeds {a, b}; F^io maps a→c, c→d; d reachable only through
	// two rounds of chaining.
	in := NewInstance().
		MustAdd("R", "a", "b").
		MustAdd("F", "a", "c").
		MustAdd("F", "c", "d").
		MustAdd("F", "x", "y") // x unreachable: never enumerated as input
	ps := pats(t, `R^oo F^io`)
	cat := in.MustCatalog(ps)
	dom := enumerate(t, DefaultRuntime(), cat, nil, 10_000)
	want := []string{"a", "b", "c", "d"}
	if len(dom.Values) != len(want) {
		t.Fatalf("dom = %v, want %v", dom.Values, want)
	}
	for i, v := range want {
		if dom.Values[i] != v {
			t.Fatalf("dom = %v, want %v", dom.Values, want)
		}
	}
	if dom.Truncated {
		t.Error("fixpoint must complete within budget")
	}
	if dom.Calls == 0 {
		t.Error("enumeration must issue calls")
	}
}

func TestEnumerateDomainBudget(t *testing.T) {
	in := NewInstance()
	for i := 0; i < 50; i++ {
		in.MustAdd("R", string(rune('a'+i%26))+string(rune('0'+i/26)), "v")
	}
	ps := pats(t, `R^oo F^io`)
	in.MustAdd("F", "a0", "z9")
	cat := in.MustCatalog(ps)
	dom := enumerate(t, DefaultRuntime(), cat, nil, 3)
	if !dom.Truncated || dom.TruncatedBy != nil {
		t.Errorf("tiny budget must truncate, blaming no source; calls = %d, values = %d, by %v", dom.Calls, len(dom.Values), dom.TruncatedBy)
	}
	if dom.Calls > 3 {
		t.Errorf("budget exceeded: %d calls", dom.Calls)
	}
}

func TestEnumerateDomainSeeds(t *testing.T) {
	in := NewInstance().MustAdd("F", "seed", "out")
	ps := pats(t, `F^io`)
	cat := in.MustCatalog(ps)
	dom := enumerate(t, DefaultRuntime(), cat, []string{"seed"}, 100)
	if len(dom.Values) != 2 {
		t.Errorf("dom = %v, want [out seed]", dom.Values)
	}
}

func TestImprovedUnderRuleGuards(t *testing.T) {
	u := ucq(t, `Q(x, y) :- R(x, z), B(x, y).`)
	ps := pats(t, `R^oo`) // B has no pattern at all
	plans := core.ComputePlans(u, ps)
	if _, ok := ImprovedUnderRule(plans.Rules[0].Ans, plans.Rules[0].Unanswerable, ps); ok {
		t.Error("improvement must be refused when a relation has no pattern")
	}
	// Complete rules cannot be improved.
	u2 := ucq(t, `Q(x) :- R(x, z).`)
	plans2 := core.ComputePlans(u2, ps)
	if _, ok := ImprovedUnderRule(plans2.Rules[0].Ans, plans2.Rules[0].Unanswerable, ps); ok {
		t.Error("complete rule must not be improved")
	}
}

// A source that panics or fails while the domain is enumerated is
// contained by the caller's runtime: a failed call that the runtime does
// not retry drops that call, the enumeration goes on with the others,
// Truncated says the domain may be short, and every value found is one
// the healthy run finds too; a failure the runtime retries costs
// nothing. Under ImproveUnder the panic costs the improvement nothing it
// could have had without the source.
func TestEnumerateDomainContainsFailingSources(t *testing.T) {
	in := NewInstance().
		MustAdd("R", "a", "b").
		MustAdd("F", "a", "c").
		MustAdd("F", "c", "d")
	ps := pats(t, `R^oo F^io`)
	healthy := enumerate(t, DefaultRuntime(), in.MustCatalog(ps), nil, 10_000)
	if healthy.Truncated || healthy.TruncatedBy != nil {
		t.Fatalf("the healthy run must reach the fixpoint, truncated by %v", healthy.TruncatedBy)
	}
	base := in.MustCatalog(ps)
	flaky := func() sources.Source { return sources.NewFlaky(base.Source("F"), sources.FlakyConfig{FailFirst: 1}) }
	for _, c := range []struct {
		name string
		rt   *Runtime
		f    sources.Source
		by   []string // nil: the fixpoint is reached
	}{
		{"panicking", NewRuntime(), panicSource{Table: base.Source("F").(*sources.Table)}, []string{"F"}},
		{"flaky, retried", NewRuntime(), flaky(), nil},
		{"flaky, not retried", SequentialRuntime(), flaky(), []string{"F"}},
	} {
		dom := enumerate(t, c.rt, sources.MustCatalog(base.Source("R"), c.f), nil, 10_000)
		if c.by == nil {
			if dom.Truncated || !slices.Equal(dom.Values, healthy.Values) {
				t.Errorf("%s: a retried failure must reach the fixpoint %v, got %v (truncated %v by %v)", c.name, healthy.Values, dom.Values, dom.Truncated, dom.TruncatedBy)
			}
			continue
		}
		if !dom.Truncated || !slices.Equal(dom.TruncatedBy, c.by) {
			t.Errorf("%s: a failed call must mark the domain truncated by %v, got %v by %v", c.name, c.by, dom.Truncated, dom.TruncatedBy)
		}
		want := map[string]bool{}
		for _, v := range healthy.Values {
			want[v] = true
		}
		for _, v := range dom.Values {
			if !want[v] {
				t.Errorf("%s: value %q is not in the healthy domain %v", c.name, v, healthy.Values)
			}
		}
	}

	// Example 8 beside a source no rule reads, which panics on every call
	// or, under a per-call timeout, hangs until its context is done: the
	// improvement truncates the domain by that source instead of failing
	// or hanging, and still finds (a, b).
	u := ucq(t, `
		Q(x, y) :- not S(z), R(x, z), B(x, y).
		Q(x, y) :- T(x, y).
	`)
	ps = pats(t, `S^o R^oo B^oi T^oo P^io`)
	ex := NewInstance().MustAdd("R", "a", "b").MustAdd("B", "a", "b").MustAdd("S", "c").MustAdd("T", "t1", "t2")
	timed := NewRuntime()
	timed.CallTimeout = 2 * time.Millisecond
	for _, c := range []struct {
		name string
		rt   *Runtime
		p    sources.Source
	}{
		{"panicking", DefaultRuntime(), panicSource{Table: sources.MustTable("P", 2, []access.Pattern{"io"}, nil)}},
		{"hung", timed, sources.NewFlaky(sources.MustTable("P", 2, []access.Pattern{"io"}, nil), sources.FlakyConfig{FailEveryN: 1, Hang: true})},
	} {
		var srcs []sources.Source
		for _, name := range []string{"S", "R", "B", "T"} {
			srcs = append(srcs, ex.MustCatalog(ps).Source(name))
		}
		cat := sources.MustCatalog(append(srcs, c.p)...)
		res, err := answerStar(u, ps, cat)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		improved, _, dom, err := c.rt.ImproveUnder(ctx, mustPlan(t, u, ps), res.Under, ps, cat, 10_000, Opts{})
		cancel()
		if err != nil {
			t.Fatalf("%s: a failing source must not fail the improvement: %v", c.name, err)
		}
		if !dom.Truncated || !slices.Equal(dom.TruncatedBy, []string{"P"}) || !improved.Contains(RowOf("a", "b")) {
			t.Errorf("%s: truncated = %v by %v, improved = %s; want truncated by P and (a, b) found", c.name, dom.Truncated, dom.TruncatedBy, improved)
		}
	}
}

// The rounds issue every distinct call exactly once: each (relation,
// pattern, input vector) reaches its source once, the vectors a pattern
// was called with are exactly the k-vectors over the final domain, and
// the domain is the closure a naive loop over the stored tuples reaches.
// G's two-input pattern makes a round's new vectors mix old and new
// values; the seed gives round 0 vectors of its own.
func TestEnumerateDomainCallsEachVectorOnce(t *testing.T) {
	data := map[string][][]string{
		"R": {{"a", "b"}},
		"F": {{"a", "c"}, {"c", "d"}, {"s", "e"}, {"x", "y"}},
		"G": {{"a", "b", "g"}, {"g", "d", "h"}, {"e", "s", "k"}, {"z", "z", "w"}},
	}
	ps := pats(t, `R^oo F^io F^oi G^iio`)
	seeds := []string{"s"}
	in := NewInstance()
	for rel, rows := range data {
		for _, row := range rows {
			in.MustAdd(rel, row...)
		}
	}

	closure := map[string]bool{}
	for _, s := range seeds {
		closure[s] = true
	}
	for grew := true; grew; {
		grew = false
		for rel, rows := range data {
			for _, p := range ps.Patterns(rel) {
				for _, row := range rows {
					callable := true
					for j, v := range row {
						callable = callable && (!p.Input(j) || closure[v])
					}
					for _, v := range row {
						if callable && !closure[v] {
							closure[v], grew = true, true
						}
					}
				}
			}
		}
	}
	var want []string
	for v := range closure {
		want = append(want, v)
	}
	slices.Sort(want)

	for _, rt := range []*Runtime{NewRuntime(), SequentialRuntime()} {
		cat := in.MustCatalog(ps)
		var mu sync.Mutex
		issued := map[string]int{}
		for _, rel := range cat.Names() {
			cat.Source(rel).(*sources.Table).OnCall = func(p access.Pattern, inputs []string) {
				mu.Lock()
				issued[rel+"^"+string(p)+"("+strings.Join(inputs, ",")+")"]++
				mu.Unlock()
			}
		}
		dom := enumerate(t, rt, cat, seeds, 10_000)
		if !slices.Equal(dom.Values, want) || dom.Truncated {
			t.Fatalf("dom = %v (truncated %v), want the closure %v", dom.Values, dom.Truncated, want)
		}
		calls := 0
		for call, n := range issued {
			if n != 1 {
				t.Errorf("%s issued %d times, want once", call, n)
			}
			calls += n
		}
		if dom.Calls != calls {
			t.Errorf("DomResult.Calls = %d, the sources saw %d", dom.Calls, calls)
		}
		// Every k-vector over the final domain, per pattern, and nothing else.
		for _, rel := range cat.Names() {
			for _, p := range ps.Patterns(rel) {
				vecs := [][]string{nil}
				for j := 0; j < p.InputCount(); j++ {
					var next [][]string
					for _, v := range vecs {
						for _, d := range dom.Values {
							next = append(next, append(slices.Clone(v), d))
						}
					}
					vecs = next
				}
				for _, v := range vecs {
					if issued[rel+"^"+string(p)+"("+strings.Join(v, ",")+")"] == 0 {
						t.Errorf("%s^%s%v never issued", rel, p, v)
					}
				}
				calls -= len(vecs)
			}
		}
		if calls != 0 {
			t.Errorf("%d calls issued outside the vectors over the final domain", calls)
		}
	}
}

// A budget of no calls — zero or negative — issues none and reports the
// domain truncated, blaming no source.
func TestEnumerateDomainZeroBudget(t *testing.T) {
	in := NewInstance().MustAdd("R", "a", "b").MustAdd("F", "a", "c")
	ps := pats(t, `R^oo F^io`)
	for _, maxCalls := range []int{0, -1} {
		cat := in.MustCatalog(ps)
		dom := enumerate(t, DefaultRuntime(), cat, []string{"a"}, maxCalls)
		if got := cat.TotalStats().Calls; got != 0 || dom.Calls != 0 {
			t.Errorf("maxCalls %d: %d calls reached the sources, %d counted; want none", maxCalls, got, dom.Calls)
		}
		if !dom.Truncated || dom.TruncatedBy != nil || !slices.Equal(dom.Values, []string{"a"}) {
			t.Errorf("maxCalls %d: dom = %v, truncated %v by %v; want the seed alone, truncated by no source", maxCalls, dom.Values, dom.Truncated, dom.TruncatedBy)
		}
	}
}
