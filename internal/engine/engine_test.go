package engine

import (
	"context"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/sources"
)

func pats(t *testing.T, src string) *access.Set {
	t.Helper()
	s, err := parser.ParsePatterns(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ucq(t *testing.T, src string) logic.UCQ {
	t.Helper()
	u, err := parser.ParseUCQ(src)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// mustPlan is core.NewPlan for a query the test expects to plan.
func mustPlan(t *testing.T, u logic.UCQ, ps *access.Set) core.Plan {
	t.Helper()
	p, err := core.NewPlan(u, ps)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// eval plans u (core.NewPlan) and runs the plan on rt under o into
// ANSWER*'s sink: the materialized answer (every rule's rows, ansₒ), the
// profile and — in partial-results mode — the report (partialReport).
func eval(ctx context.Context, rt *Runtime, u logic.UCQ, ps *access.Set, cat *sources.Catalog, o Opts) (*Rel, Profile, *Report, error) {
	p, err := core.NewPlan(u, ps)
	if err != nil {
		return nil, Profile{}, nil, err
	}
	st := NewStarSink(p)
	prof, rep, err := rt.Run(ctx, p, cat, Answered{}, o, st.Sink())
	if err != nil {
		return nil, Profile{}, nil, err
	}
	st.Fill(&rep)
	return rep.Over, prof, partialReport(rep, o), nil
}

// partialReport is rep under o.Partial and nil otherwise: the report the
// degradation assertions read, as the facade's Result.Incompleteness
// projects it.
func partialReport(rep Report, o Opts) *Report {
	if !o.Partial {
		return nil
	}
	return &rep
}

// answer is ANSWER(u, D) on rt: eval under the zero Opts, the answer
// alone.
func answer(ctx context.Context, rt *Runtime, u logic.UCQ, ps *access.Set, cat *sources.Catalog) (*Rel, error) {
	rel, _, _, err := eval(ctx, rt, u, ps, cat, Opts{})
	return rel, err
}

// streamQuery plans u and streams the plan on rt under the zero Opts.
func streamQuery(ctx context.Context, rt *Runtime, u logic.UCQ, ps *access.Set, cat *sources.Catalog) (*Stream, error) {
	p, err := core.NewPlan(u, ps)
	if err != nil {
		return nil, err
	}
	return rt.StreamEval(ctx, p, cat, Answered{}, Opts{}), nil
}

// answerStar is ANSWER* of u (one run of its plan) on the default
// runtime under the zero Opts.
func answerStar(u logic.UCQ, ps *access.Set, cat *sources.Catalog) (Report, error) {
	p, err := core.NewPlan(u, ps)
	if err != nil {
		return Report{}, err
	}
	star, _, _, err := runStar(context.Background(), defaultRuntime, p, cat, Opts{})
	return star, err
}

// runStar runs p materialized on rt under o into ANSWER*'s sink, as
// the facade's Exec does, and returns the
// report beside the profile and, under o.Partial, the report again
// (partialReport).
func runStar(ctx context.Context, rt *Runtime, p core.Plan, cat *sources.Catalog, o Opts) (Report, Profile, *Report, error) {
	st := NewStarSink(p)
	prof, rep, err := rt.Run(ctx, p, cat, Answered{}, o, st.Sink())
	st.Fill(&rep)
	return rep, prof, partialReport(rep, o), err
}

// bookstore is the instance behind Examples 1 and 2.
func bookstore(t *testing.T) *Instance {
	t.Helper()
	in := NewInstance()
	if err := in.ParseInto(`
		B("i1", "knuth", "taocp").
		B("i2", "knuth", "concrete").
		B("i3", "date", "dbintro").
		C("i1", "knuth").
		C("i3", "date").
		L("i3").
	`); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestInstanceBasics(t *testing.T) {
	in := bookstore(t)
	if got := in.Relations(); len(got) != 3 {
		t.Errorf("Relations = %v", got)
	}
	if in.Arity("B") != 3 || in.Arity("Z") != -1 {
		t.Error("Arity lookup wrong")
	}
	if !in.Has("L", "i3") || in.Has("L", "i1") {
		t.Error("Has lookup wrong")
	}
	if in.Size() != 6 {
		t.Errorf("Size = %d, want 6", in.Size())
	}
	if err := in.Add("B", "only", "two"); err == nil {
		t.Error("arity mismatch must be rejected")
	}
	adom := in.ActiveDomain()
	if len(adom) != 8 {
		t.Errorf("ActiveDomain = %v, want 8 values", adom)
	}
}

// Example 1 executed end to end: reorder, then evaluate through the
// limited sources; the result matches ground truth.
func TestExample1EndToEnd(t *testing.T) {
	in := bookstore(t)
	ps := pats(t, `B^ioo B^oio C^oo L^o`)
	cat := in.MustCatalog(ps)
	q := ucq(t, `Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).`)

	ordered, ok := core.ReorderUCQ(q, ps)
	if !ok {
		t.Fatal("Example 1 must be orderable")
	}
	got, err := answer(context.Background(), defaultRuntime, ordered, ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnswerNaive(q, in)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("limited evaluation = %s, ground truth = %s", got, want)
	}
	// The only catalog book not in the library: i1/knuth/taocp.
	if got.Len() != 1 || !got.Contains(RowOf("i1", "knuth", "taocp")) {
		t.Errorf("answer = %s", got)
	}
	// As written the query is not executable, but it is orderable:
	// planning picks ANSWERABLE's order and the answer is the same.
	if asWritten, err := answer(context.Background(), defaultRuntime, q, ps, cat); err != nil || !asWritten.Equal(got) {
		t.Errorf("as written: answer %s, err %v; want %s", asWritten, err, got)
	}
}

func TestNegationAsFilter(t *testing.T) {
	in := NewInstance().MustAdd("R", "a").MustAdd("R", "b").MustAdd("S", "b")
	ps := pats(t, `R^o S^i`)
	cat := in.MustCatalog(ps)
	got, err := answer(context.Background(), defaultRuntime, ucq(t, `Q(x) :- R(x), not S(x).`), ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Contains(RowOf("a")) {
		t.Errorf("answer = %s, want (a)", got)
	}
}

func TestConstantsInBody(t *testing.T) {
	in := NewInstance().
		MustAdd("B", "i1", "knuth", "taocp").
		MustAdd("B", "i2", "date", "dbintro")
	ps := pats(t, `B^oio`)
	cat := in.MustCatalog(ps)
	got, err := answer(context.Background(), defaultRuntime, ucq(t, `Q(i, t) :- B(i, "knuth", t).`), ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Contains(RowOf("i1", "taocp")) {
		t.Errorf("answer = %s", got)
	}
}

// Example 4/5: the infeasible query yields a complete answer at runtime
// when the answerable part of the dismissed rule is empty on D.
func TestExample5RuntimeComplete(t *testing.T) {
	u := ucq(t, `
		Q(x, y) :- not S(z), R(x, z), B(x, y).
		Q(x, y) :- T(x, y).
	`)
	ps := pats(t, `S^o R^oo B^oi T^oo`)

	// Every R.z value appears in S (the foreign key of Example 6), so
	// R(x,z), not S(z) is empty and the answer is complete.
	in := NewInstance().
		MustAdd("R", "x1", "z1").
		MustAdd("S", "z1").
		MustAdd("B", "x1", "y1").
		MustAdd("T", "t1", "t2")
	res, err := answerStar(u, ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Errorf("answer must be complete: %s", res.String())
	}
	if res.Under.Len() != 1 || !res.Under.Contains(RowOf("t1", "t2")) {
		t.Errorf("underestimate = %s", res.Under)
	}
	// Ground truth agrees.
	truth, err := AnswerNaive(u, in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Under.Equal(truth) {
		t.Errorf("under = %s, truth = %s", res.Under, truth)
	}
}

// Example 7: when R(x,z), not S(z) holds, the overestimate contains a
// null tuple (a, null), and no numeric completeness bound is given.
func TestExample7NullTuple(t *testing.T) {
	u := ucq(t, `
		Q(x, y) :- not S(z), R(x, z), B(x, y).
		Q(x, y) :- T(x, y).
	`)
	ps := pats(t, `S^o R^oo B^oi T^oo`)
	in := NewInstance().
		MustAdd("R", "a", "b").
		MustAdd("S", "c").
		MustAdd("B", "a", "y1").
		MustAdd("T", "t1", "t2")
	res, err := answerStar(u, ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete() {
		t.Fatal("answer must not be known complete")
	}
	if !res.Delta.Contains(Row{V("a"), NullValue}) {
		t.Errorf("Δ = %s, want to contain (a, null)", res.Delta)
	}
	if res.RatioValid {
		t.Error("no numeric completeness bound when Δ has nulls (Example 7)")
	}
	report := res.String()
	if !containsStr(report, "not known to be complete") {
		t.Errorf("report = %q", report)
	}
}

// A ratio is reported when Δ is null-free: drop the B literal so rule 1
// is fully answerable except for one dismissed rule producing null-free
// extras.
func TestCompletenessRatio(t *testing.T) {
	u := ucq(t, `
		Q(x) :- T(x).
		Q(x) :- R(x, z), B(z).
	`)
	ps := pats(t, `T^o R^oo B^i`)
	in := NewInstance().
		MustAdd("T", "t1").
		MustAdd("R", "r1", "z1").
		MustAdd("B", "z1")
	res, err := answerStar(u, ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	// Rule 2's B(z) is unanswerable (B^i, z bound though... z is bound by
	// R, so B(z) is answerable as a filter call). Wait: B^i with z bound
	// is callable, so rule 2 is fully answerable and the query complete.
	if !res.Complete() {
		t.Fatalf("expected complete: %s", res.String())
	}

	// Now make the head variable come from an unanswerable literal-free
	// rule: U(y) with U^i and y in the head of a separate rule.
	u2 := ucq(t, `
		Q(x) :- T(x).
		Q(x) :- R(x, z), U(x, w).
	`)
	ps2 := pats(t, `T^o R^oo U^ii`)
	in2 := NewInstance().
		MustAdd("T", "t1").
		MustAdd("R", "r1", "z1")
	res2, err := answerStar(u2, ps2, in2.MustCatalog(ps2))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Complete() {
		t.Fatal("rule 2 has unanswerable U, so completeness is unknown")
	}
	// Δ = {(r1)} (x is bound in the answerable part, so no null).
	if res2.Delta.HasNull() {
		t.Errorf("Δ = %s must be null-free", res2.Delta)
	}
	if !res2.RatioValid || res2.Ratio != 0.5 {
		t.Errorf("ratio = %v (valid=%v), want 0.5", res2.Ratio, res2.RatioValid)
	}
	if !containsStr(res2.String(), "at least 0.50 complete") {
		t.Errorf("report = %q", res2.String())
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return len(sub) == 0
}
