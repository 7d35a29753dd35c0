package engine

import (
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/sources"
)

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
	res, err := RunAnswerStar(u, ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Under.Contains(RowOf("a", "b")) {
		t.Fatal("plain underestimate must miss (a, b)")
	}
	improved, rules, dom, err := ImproveUnder(res, ps, cat, 10_000)
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
	dom := EnumerateDomain(cat, nil, 10_000)
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
	dom := EnumerateDomain(cat, nil, 3)
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
	dom := EnumerateDomain(cat, []string{"seed"}, 100)
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
// contained: the call counts as failed, the enumeration goes on with the
// other calls, Truncated says the domain may be short, and every value
// found is one the healthy run finds too. Under ImproveUnder the panic
// costs the improvement nothing it could have had without the source.
func TestEnumerateDomainContainsFailingSources(t *testing.T) {
	in := NewInstance().
		MustAdd("R", "a", "b").
		MustAdd("F", "a", "c").
		MustAdd("F", "c", "d")
	ps := pats(t, `R^oo F^io`)
	healthy := EnumerateDomain(in.MustCatalog(ps), nil, 10_000)
	if healthy.Truncated || healthy.TruncatedBy != nil {
		t.Fatalf("the healthy run must reach the fixpoint, truncated by %v", healthy.TruncatedBy)
	}
	base := in.MustCatalog(ps)
	for _, c := range []struct {
		name string
		f    sources.Source
	}{
		{"panicking", panicSource{Table: base.Source("F").(*sources.Table)}},
		{"flaky", sources.NewFlaky(base.Source("F"), sources.FlakyConfig{FailFirst: 1})},
	} {
		dom := EnumerateDomain(sources.MustCatalog(base.Source("R"), c.f), nil, 10_000)
		if !dom.Truncated || !slices.Equal(dom.TruncatedBy, []string{"F"}) {
			t.Errorf("%s: a failed call must mark the domain truncated by F, got %v by %v", c.name, dom.Truncated, dom.TruncatedBy)
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

	// Example 8 beside a source no rule reads, which panics on every call.
	u := ucq(t, `
		Q(x, y) :- not S(z), R(x, z), B(x, y).
		Q(x, y) :- T(x, y).
	`)
	ps = pats(t, `S^o R^oo B^oi T^oo P^io`)
	ex := NewInstance().MustAdd("R", "a", "b").MustAdd("B", "a", "b").MustAdd("S", "c").MustAdd("T", "t1", "t2")
	var srcs []sources.Source
	for _, name := range []string{"S", "R", "B", "T"} {
		srcs = append(srcs, ex.MustCatalog(ps).Source(name))
	}
	srcs = append(srcs, panicSource{Table: sources.MustTable("P", 2, []access.Pattern{"io"}, nil)})
	cat := sources.MustCatalog(srcs...)
	res, err := RunAnswerStar(u, ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	improved, _, dom, err := ImproveUnder(res, ps, cat, 10_000)
	if err != nil {
		t.Fatalf("a panicking source must not fail the improvement: %v", err)
	}
	if !dom.Truncated || !slices.Equal(dom.TruncatedBy, []string{"P"}) || !improved.Contains(RowOf("a", "b")) {
		t.Errorf("truncated = %v by %v, improved = %s; want truncated by P and (a, b) found", dom.Truncated, dom.TruncatedBy, improved)
	}
}
