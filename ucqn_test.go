package ucqn

import (
	"testing"

	"repro/internal/workload"
)

// The paper's worked examples, exercised through the public API.
func TestPaperExamplesFacade(t *testing.T) {
	for _, ex := range workload.PaperExamples() {
		t.Run(ex.Name, func(t *testing.T) {
			if got := Executable(ex.Query, ex.Patterns); got != ex.Executable {
				t.Errorf("Executable = %v, want %v", got, ex.Executable)
			}
			if got := Orderable(ex.Query, ex.Patterns); got != ex.Orderable {
				t.Errorf("Orderable = %v, want %v", got, ex.Orderable)
			}
			res := Feasible(ex.Query, ex.Patterns)
			if res.Feasible != ex.Feasible {
				t.Errorf("Feasible = %v, want %v (%s)", res.Feasible, ex.Feasible, res)
			}
		})
	}
}

func TestQuickstartFlow(t *testing.T) {
	q := MustParseQuery(`Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).`)
	ps := MustParsePatterns(`B^ioo B^oio C^oo L^o`)

	if Executable(q, ps) {
		t.Fatal("not executable as written")
	}
	ordered, ok := Reorder(q, ps)
	if !ok {
		t.Fatal("must be orderable")
	}
	if !Executable(ordered, ps) {
		t.Fatal("reordered query must be executable")
	}

	in := NewInstance()
	if err := in.ParseInto(`
		B("i1", "knuth", "taocp").
		C("i1", "knuth").
		L("i2").
	`); err != nil {
		t.Fatal(err)
	}
	cat, err := in.Catalog(ps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := execAnswer(ordered, ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Errorf("answer = %s", got)
	}
	st := cat.TotalStats()
	if st.Calls == 0 {
		t.Error("evaluation must have called sources")
	}
}

func TestFacadeHelpers(t *testing.T) {
	q := MustParseRule(`Q(x) :- F(x), F(y).`)
	m := Minimize(q)
	if len(m.Body) != 1 {
		t.Errorf("Minimize = %s", m)
	}
	u := MustParseQuery("Q(x) :- F(x), G(x).\nQ(x) :- F(x).")
	mu := MinimizeUnion(u)
	if len(mu.Rules) != 1 {
		t.Errorf("MinimizeUnion = %s", mu)
	}
	if !Contained(mu, u) || !Contained(u, mu) || !Equivalent(mu, u) {
		t.Error("minimized union must be equivalent")
	}
	if !Satisfiable(u) {
		t.Error("u is satisfiable")
	}
	if Satisfiable(MustParseQuery(`Q(x) :- R(x), not R(x).`)) {
		t.Error("complementary pair is unsatisfiable")
	}
	if Var("x") == Const("x") || Null.IsVar() {
		t.Error("term constructors broken")
	}
}

func TestFacadeBaselines(t *testing.T) {
	q := MustParseRule(`Q(x) :- F(x), B(x), B(y), F(z).`)
	ps := MustParsePatterns(`F^o B^i`)
	want := Feasible(MustParseQuery(`Q(x) :- F(x), B(x), B(y), F(z).`), ps).Feasible
	for name, got := range map[string]func() (bool, error){
		"CQStable":     func() (bool, error) { return CQStable(q, ps) },
		"CQStableStar": func() (bool, error) { return CQStableStar(q, ps) },
	} {
		v, err := got()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
}

func TestFeasibleLimitedBudget(t *testing.T) {
	u, ps := workload.CaseSplitFamily(8)
	if _, err := FeasibleLimited(u, ps, 3); err != ErrBudget {
		t.Errorf("tiny budget must return ErrBudget, got %v", err)
	}
	res, err := FeasibleLimited(u, ps, 10_000_000)
	if err != nil || !res.Feasible {
		t.Errorf("big budget must decide: %v %v", res, err)
	}
}

func TestAnswerStarFacade(t *testing.T) {
	q := MustParseQuery(`
		Q(x, y) :- not S(z), R(x, z), B(x, y).
		Q(x, y) :- T(x, y).
	`)
	ps := MustParsePatterns(`S^o R^oo B^oi T^oo`)
	in := NewInstance().
		MustAdd("R", "a", "b").
		MustAdd("B", "a", "b").
		MustAdd("S", "c").
		MustAdd("T", "t1", "t2")
	cat, err := in.Catalog(ps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := execStar(q, ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete() {
		t.Error("must not be complete (R/S mismatch)")
	}
	improved, _, dom, err := execImproveUnder(q, ps, cat, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if improved.Len() <= res.Under.Len() {
		t.Errorf("improved %d must exceed under %d (dom=%v)", improved.Len(), res.Under.Len(), dom.Values)
	}
}
