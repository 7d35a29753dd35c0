package ucqn

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/workload"
)

// randomSetup draws a schema, pattern set, and query generator config
// small enough that the Π₂ᴾ containment check stays tractable.
func randomSetup(seed int64) (*workload.Gen, workload.Schema, *PatternSet, workload.QueryConfig) {
	g := workload.New(seed)
	s := g.Schema(4, 1, 2)
	ps := g.Patterns(s, 0.5, 2)
	cfg := workload.QueryConfig{PosLits: 3, NegLits: 1, VarPool: 4, ConstProb: 0.1, HeadVars: 1, DomainSize: 5}
	return g, s, ps, cfg
}

// Proposition 4: Q ⊑ ans(Q) for every query.
func TestProposition4Property(t *testing.T) {
	g, s, ps, cfg := randomSetup(101)
	for i := 0; i < 150; i++ {
		u := g.UCQ(s, 2, cfg)
		a := AnswerablePart(u, ps)
		if !Contained(u, a) {
			t.Fatalf("Proposition 4 violated for\n%s\nans =\n%s\npatterns %s", u, a, ps)
		}
	}
}

// Corollary 17: Q is feasible iff ans(Q) ⊑ Q. FEASIBLE must agree with
// the direct containment formulation.
func TestCorollary17Property(t *testing.T) {
	g, s, ps, cfg := randomSetup(102)
	checked := 0
	for i := 0; i < 120; i++ {
		u := g.UCQ(s, 2, cfg)
		res, err := FeasibleLimited(u, ps, 200_000)
		if err != nil {
			continue
		}
		a := AnswerablePart(u, ps)
		direct := !a.HasNull() && Contained(a.DropFalseRules(), u)
		if a.HasNull() {
			direct = false
		}
		if res.Feasible != direct {
			t.Fatalf("FEASIBLE (%v) disagrees with ans(Q) ⊑ Q (%v) on\n%s\npatterns %s", res.Feasible, direct, u, ps)
		}
		checked++
	}
	if checked < 60 {
		t.Errorf("only %d/120 cases checked within budget", checked)
	}
}

// Theorem 16: ans(Q) is minimal among executable queries containing Q.
// We construct E executable and Q ⊑ E by construction (Q adds literals
// to E's rules and drops rules), then verify Q ⊑ ans(Q) ⊑ E.
func TestTheorem16Property(t *testing.T) {
	g, s, ps, cfg := randomSetup(103)
	tested := 0
	for i := 0; i < 500 && tested < 60; i++ {
		e := g.UCQ(s, 2, cfg)
		ordered, ok := Reorder(e, ps)
		if !ok {
			continue // need an executable E
		}
		// Build Q ⊑ E: keep the first rule only, with an extra literal.
		q := logic.UCQ{Rules: []logic.CQ{ordered.Rules[0].Clone()}}
		extra := g.CQ(s, cfg)
		q.Rules[0].Body = append(q.Rules[0].Body, extra.Body...)
		if !Contained(q, ordered) {
			t.Fatalf("construction broken: Q not contained in E\nQ=%s\nE=%s", q, ordered)
		}
		a := AnswerablePart(q, ps).DropFalseRules()
		if a.HasNull() {
			continue
		}
		if !Contained(q, a) {
			t.Fatalf("Q ⊑ ans(Q) violated\nQ=%s\nans=%s", q, a)
		}
		if !Contained(a, ordered) {
			t.Fatalf("Theorem 16 violated: ans(Q) ⋢ E\nQ=%s\nans=%s\nE=%s\npatterns %s", q, a, ordered, ps)
		}
		tested++
	}
	if tested < 30 {
		t.Errorf("only %d cases engaged; generator mis-tuned", tested)
	}
}

// Theorem 18 reduction: P ⊑ Q iff the reduced query is feasible.
func TestTheorem18ReductionProperty(t *testing.T) {
	g, s, _, cfg := randomSetup(104)
	cfg.NegLits = 0 // keep the containment instances cheap and exact
	agree, disagreeBudget := 0, 0
	for i := 0; i < 80; i++ {
		p := g.UCQ(s, 2, cfg)
		q := g.UCQ(s, 2, cfg)
		want := Contained(p, q)
		reduced, rps, err := ReduceContToFeasible(p, q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := FeasibleLimited(reduced, rps, 500_000)
		if err != nil {
			disagreeBudget++
			continue
		}
		if res.Feasible != want {
			t.Fatalf("Theorem 18 reduction broken: contained=%v feasible=%v\nP=%s\nQ=%s\nreduced=%s\npatterns=%s",
				want, res.Feasible, p, q, reduced, rps)
		}
		agree++
	}
	if agree < 50 {
		t.Errorf("only %d/80 decided (budget exceeded %d times)", agree, disagreeBudget)
	}
}

// Proposition 20 reduction: P ⊑ Q iff L is feasible, for CQ¬ pairs.
func TestProposition20ReductionProperty(t *testing.T) {
	g, s, _, cfg := randomSetup(105)
	agree := 0
	for i := 0; i < 80; i++ {
		p := g.CQ(s, cfg)
		q := g.CQ(s, cfg)
		q.HeadArgs = append([]logic.Term(nil), p.HeadArgs...)
		// Head variables of q must occur in q's body positively; force by
		// reusing p's head only when q already covers it.
		if !q.HeadSafe() {
			continue
		}
		want := Contained(logic.AsUnion(p), logic.AsUnion(q))
		l, lps, err := ReduceContCQToFeasible(p, q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := FeasibleLimited(logic.AsUnion(l), lps, 500_000)
		if err != nil {
			continue
		}
		if res.Feasible != want {
			t.Fatalf("Proposition 20 reduction broken: contained=%v feasible=%v\nP=%s\nQ=%s\nL=%s\npatterns=%s",
				want, res.Feasible, p, q, l, lps)
		}
		agree++
	}
	if agree < 20 {
		t.Errorf("only %d/80 cases engaged", agree)
	}
}

// Engine agreement: for executable queries, evaluation through limited
// sources equals ground-truth evaluation.
func TestEngineAgreementProperty(t *testing.T) {
	g, s, ps, cfg := randomSetup(106)
	tested := 0
	for i := 0; i < 150 && tested < 80; i++ {
		u := g.UCQ(s, 2, cfg)
		ordered, ok := Reorder(u, ps)
		if !ok {
			continue
		}
		in := engine.NewInstance()
		if err := in.LoadFacts(g.Facts(s, 12, 6)); err != nil {
			t.Fatal(err)
		}
		cat, err := in.Catalog(ps)
		if err != nil {
			t.Fatal(err)
		}
		got, err := execAnswer(ordered, ps, cat)
		if err != nil {
			t.Fatalf("Answer failed on executable query %s: %v", ordered, err)
		}
		want, err := execNaive(u, in)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("engine disagreement on\n%s\nlimited: %s\nnaive: %s", ordered, got, want)
		}
		tested++
	}
	if tested < 40 {
		t.Errorf("only %d cases engaged", tested)
	}
}

// ANSWER* sandwich: under ⊆ truth, and every true answer is covered by
// some overestimate row (equal on non-null positions).
func TestEstimateSandwichProperty(t *testing.T) {
	g, s, ps, cfg := randomSetup(107)
	for i := 0; i < 100; i++ {
		u := g.UCQ(s, 2, cfg)
		in := engine.NewInstance()
		if err := in.LoadFacts(g.Facts(s, 10, 5)); err != nil {
			t.Fatal(err)
		}
		cat, err := in.Catalog(ps)
		if err != nil {
			t.Fatal(err)
		}
		res, err := execStar(u, ps, cat)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := execNaive(u, in)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Under.Rows() {
			if !truth.Contains(row) {
				t.Fatalf("underestimate unsound: %s not a true answer of\n%s", row, u)
			}
		}
		for _, row := range truth.Rows() {
			if !coveredBy(row, res.Over) {
				t.Fatalf("overestimate incomplete: true answer %s not covered for\n%s\nover = %s", row, u, res.Over)
			}
		}
		if res.Complete && !res.Under.Equal(truth) {
			t.Fatalf("ANSWER* claimed completeness falsely for\n%s", u)
		}
	}
}

// coveredBy reports whether some row of rel equals row on all non-null
// positions (the subsumption reading of null, Example 7).
func coveredBy(row engine.Row, rel *engine.Rel) bool {
	if rel.Contains(row) {
		return true
	}
	for _, o := range rel.Rows() {
		if len(o) != len(row) {
			continue
		}
		match := true
		for j := range o {
			if !o[j].Null && o[j] != row[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// Feasibility is invariant under rule order and body order permutations.
func TestFeasibilityPermutationInvariance(t *testing.T) {
	g, s, ps, cfg := randomSetup(108)
	for i := 0; i < 40; i++ {
		u := g.UCQ(s, 2, cfg)
		res1, err1 := FeasibleLimited(u, ps, 200_000)
		perm := u.Clone()
		perm.Rules[0], perm.Rules[1] = perm.Rules[1], perm.Rules[0]
		for r := range perm.Rules {
			perm.Rules[r] = workload.Reversed(perm.Rules[r])
		}
		res2, err2 := FeasibleLimited(perm, ps, 200_000)
		if err1 != nil || err2 != nil {
			continue
		}
		if res1.Feasible != res2.Feasible {
			t.Fatalf("feasibility not permutation-invariant:\n%s (%v)\nvs\n%s (%v)", u, res1.Feasible, perm, res2.Feasible)
		}
	}
}

// Parser round trip under quick: printing any generated query and
// re-parsing yields the same query.
func TestParserRoundTripQuick(t *testing.T) {
	g, s, _, cfg := randomSetup(109)
	f := func(n uint8) bool {
		_ = n
		u := g.UCQ(s, 1+int(n)%3, cfg)
		r, err := ParseQuery(u.String())
		if err != nil {
			t.Logf("reparse error: %v for\n%s", err, u)
			return false
		}
		return r.Equal(u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Rel set algebra properties under quick.
func TestRelAlgebraQuick(t *testing.T) {
	mkRel := func(vals []uint8) *engine.Rel {
		r := engine.NewRel()
		for _, v := range vals {
			r.Add(engine.RowOf(fmt.Sprintf("a%d", v%8), fmt.Sprintf("b%d", v/8%4)))
		}
		return r
	}
	f := func(xs, ys []uint8) bool {
		a, b := mkRel(xs), mkRel(ys)
		d := a.Minus(b)
		for _, row := range d.Rows() {
			if b.Contains(row) || !a.Contains(row) {
				return false
			}
		}
		// (a \ b) ∪ (a ∩ b) = a
		u := engine.NewRel()
		u.AddAll(d)
		for _, row := range a.Rows() {
			if b.Contains(row) {
				u.Add(row)
			}
		}
		return u.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Containment is reflexive and transitive on generated queries.
func TestContainmentOrderProperties(t *testing.T) {
	g, s, _, cfg := randomSetup(110)
	cfg.NegLits = 0
	for i := 0; i < 60; i++ {
		a := g.UCQ(s, 1, cfg)
		if !Contained(a, a) {
			t.Fatalf("containment not reflexive on %s", a)
		}
		// a ∧ extra ⊑ a.
		b := a.Clone()
		b.Rules[0].Body = append(b.Rules[0].Body, g.CQ(s, cfg).Body...)
		if !Contained(b, a) {
			t.Fatalf("adding literals must narrow: %s ⋢ %s", b, a)
		}
		// a ⊑ a ∨ c.
		c := g.UCQ(s, 1, cfg)
		union := logic.UCQ{Rules: append(a.Clone().Rules, c.Rules...)}
		if !Contained(a, union) {
			t.Fatalf("disjunct must be contained in union")
		}
	}
}
