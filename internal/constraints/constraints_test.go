package constraints

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/workload"
)

func TestParse(t *testing.T) {
	s, err := Parse(`R[1] < S[0]; T[0,1] < U[1,0]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 {
		t.Fatalf("parsed %d INDs", len(s))
	}
	if s[0].From != "R" || s[0].FromCols[0] != 1 || s[0].To != "S" || s[0].ToCols[0] != 0 {
		t.Errorf("IND 0 = %+v", s[0])
	}
	if got := s[1].String(); got != "T[[0 1]] ⊆ U[[1 0]]" {
		t.Logf("String() = %q (format informational)", got)
	}
	for _, bad := range []string{`R < S[0]`, `R[] < S[0]`, `R[0] < S[0,1]`, `R[x] < S[0]`, `R[0] < S[0]; garbage`} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestHoldsAndViolations(t *testing.T) {
	s := MustParse(`R[1] < S[0]`)
	in := engine.NewInstance().
		MustAdd("R", "x1", "z1").
		MustAdd("S", "z1")
	if !s.Holds(in) {
		t.Error("dependency satisfied but Holds is false")
	}
	in.MustAdd("R", "x2", "z9")
	if s.Holds(in) || s.Violations(in) != 1 {
		t.Errorf("want 1 violation, got %d", s.Violations(in))
	}
	// A projection of two values is not matched by one whose values
	// joined by the key separator read alike.
	pair := MustParse(`T[0,1] < U[0,1]`)
	in.MustAdd("T", "a\x1fb", "c").MustAdd("U", "a", "b\x1fc")
	if got := pair.Violations(in); got != 1 {
		t.Errorf("T(a\\x1fb, c) against U(a, b\\x1fc): %d violations, want 1", got)
	}
}

// Example 6 of the paper: with R.z ⊆ S.z the first disjunct of the
// Example 4 plan is refuted at compile time, and the query becomes
// feasible after semantic optimization.
func TestExample6SemanticOptimization(t *testing.T) {
	u := parser.MustUCQ(`
		Q(x, y) :- not S(z), R(x, z), B(x, y).
		Q(x, y) :- T(x, y).
	`)
	ps := parser.MustPatterns(`S^o R^oo B^oi T^oo`)
	inds := MustParse(`R[1] < S[0]`)

	if core.Feasible(u, ps).Feasible {
		t.Fatal("without constraints the query is infeasible")
	}
	opt := inds.Optimize(u)
	if len(opt.Rules) != 1 {
		t.Fatalf("optimizer kept %d rules, want 1:\n%s", len(opt.Rules), opt)
	}
	res := core.Feasible(opt, ps)
	if !res.Feasible {
		t.Errorf("optimized query must be feasible: %v", res)
	}
}

func TestRefutesRuleRequiresFullCover(t *testing.T) {
	// S has arity 2; the IND pins only column 0, so ¬S(z, w) is not
	// refuted (some S-tuple has z in column 0, but maybe not (z, w)).
	inds := MustParse(`R[1] < S[0]`)
	r := parser.MustCQ(`Q(x) :- R(x, z), S(z, w), not S(z, w).`)
	// This rule is unsatisfiable syntactically anyway; use a cleaner one:
	r2 := parser.MustCQ(`Q(x) :- R(x, z), T(w), not S(z, w).`)
	if inds.RefutesRule(r2) {
		t.Error("partial-cover dependency must not refute a wider negated literal")
	}
	_ = r
	// Full cover with arity-1 S refutes.
	r3 := parser.MustCQ(`Q(x) :- R(x, z), not S(z).`)
	if !inds.RefutesRule(r3) {
		t.Error("Example 6 shape must be refuted")
	}
	// Mismatched variables do not refute.
	r4 := parser.MustCQ(`Q(x) :- R(x, z), S(w), not S(x).`)
	if inds.RefutesRule(r4) {
		t.Error("different variable must not be refuted")
	}
}

func TestMultiColumnIND(t *testing.T) {
	inds := MustParse(`E[0,2] < F[1,0]`)
	r := parser.MustCQ(`Q(x) :- E(x, y, z), not F(z, x).`)
	if !inds.RefutesRule(r) {
		t.Error("multi-column dependency must refute")
	}
	r2 := parser.MustCQ(`Q(x) :- E(x, y, z), not F(x, z).`)
	if inds.RefutesRule(r2) {
		t.Error("swapped columns must not refute")
	}
}

// Optimize preserves semantics on instances satisfying the constraints:
// answers agree with the unoptimized query.
func TestOptimizePreservesSemantics(t *testing.T) {
	u := parser.MustUCQ(`
		Q(x, y) :- not S(z), R(x, z), B(x, y).
		Q(x, y) :- T(x, y).
	`)
	inds := MustParse(`R[1] < S[0]`)
	opt := inds.Optimize(u)
	g := workload.New(77)
	s := workload.Schema{Relations: []workload.RelDef{
		{Name: "R", Arity: 2}, {Name: "S", Arity: 1}, {Name: "B", Arity: 2}, {Name: "T", Arity: 2},
	}}
	for trial := 0; trial < 25; trial++ {
		in := engine.NewInstance()
		if err := in.LoadFacts(g.FactsWithInclusion(s, 8, 6, "R", 1, "S", 0)); err != nil {
			t.Fatal(err)
		}
		if !inds.Holds(in) {
			t.Fatal("generator must satisfy the dependency")
		}
		a, err := engine.AnswerNaive(u, in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := engine.AnswerNaive(opt, in)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("optimization changed answers:\noriginal %s\noptimized %s", a, b)
		}
	}
}
