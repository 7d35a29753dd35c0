package program

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/mediator"
	"repro/internal/parser"
	"repro/internal/workload"
)

func prog(t *testing.T, src string) *Program {
	t.Helper()
	p := New()
	rules, err := parser.ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if err := p.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestCompileTwoLevels(t *testing.T) {
	p := prog(t, `
		Sub(id, sp) :- LabA(id, sp).
		Sub(id, sp) :- LabB(id, sp).
		Good(id) :- Sub(id, sp), Consent(id).
	`)
	u, err := p.Compile("Good")
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Rules) != 2 {
		t.Fatalf("compiled = %s", u)
	}
	for _, r := range u.Rules {
		for _, l := range r.Body {
			if p.IDB(l.Atom.Pred) {
				t.Errorf("compiled rule still mentions IDB predicate: %s", r)
			}
		}
	}
}

func TestCompileThreeLevelHierarchy(t *testing.T) {
	p := prog(t, `
		L1(x) :- E1(x).
		L1(x) :- E2(x).
		L2(x) :- L1(x), E3(x).
		L3(x, y) :- L2(x), L2(y), E4(x, y).
	`)
	u, err := p.Compile("L3")
	if err != nil {
		t.Fatal(err)
	}
	// L2 has 2 disjuncts; L3 joins two L2s: 4 compiled rules.
	if len(u.Rules) != 4 {
		t.Fatalf("compiled %d rules, want 4:\n%s", len(u.Rules), u)
	}
}

func TestCompileNegatedIDB(t *testing.T) {
	p := prog(t, `
		Bad(x) :- Flag(x).
		Bad(x) :- Block(x).
		Ok(x) :- All(x), not Bad(x).
	`)
	u, err := p.Compile("Ok")
	if err != nil {
		t.Fatal(err)
	}
	got := u.Rules[0].String()
	if !strings.Contains(got, "not Flag(") || !strings.Contains(got, "not Block(") {
		t.Errorf("negated IDB not expanded: %s", got)
	}
	// A negated IDB with a join underneath is rejected.
	p2 := prog(t, `
		Bad(x) :- Flag(x), Extra(x, y).
		Ok(x) :- All(x), not Bad(x).
	`)
	if _, err := p2.Compile("Ok"); err == nil {
		t.Error("negated IDB with existential variables must be rejected")
	}
}

func TestRecursionRejected(t *testing.T) {
	p := prog(t, `
		A(x) :- B(x).
		B(x) :- A(x).
	`)
	if _, err := p.Compile("A"); err == nil || !strings.Contains(err.Error(), "recursion") {
		t.Errorf("recursion must be rejected, got %v", err)
	}
	p2 := prog(t, `A(x) :- A(x), E(x).`)
	if _, err := p2.Compile("A"); err == nil {
		t.Error("self-recursion must be rejected")
	}
}

func TestCompileUnknownPredicate(t *testing.T) {
	p := prog(t, `A(x) :- E(x).`)
	if _, err := p.Compile("Zzz"); err == nil {
		t.Error("unknown predicate must be rejected")
	}
}

func TestArityConflictRejected(t *testing.T) {
	p := New()
	if err := p.Add(parser.MustCQ(`A(x) :- E(x).`)); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(parser.MustCQ(`A(x, y) :- E2(x, y).`)); err == nil {
		t.Error("arity conflict must be rejected")
	}
}

func TestProgramParseAndAddAll(t *testing.T) {
	p := New()
	if err := p.Parse("A(x) :- E(x).\nA(x) :- F(x).", parser.ParseUCQ); err != nil {
		t.Fatal(err)
	}
	if err := p.AddAll(parser.MustUCQ(`B(x) :- G(x).`)); err != nil {
		t.Fatal(err)
	}
	if err := p.Parse("garbage", parser.ParseUCQ); err == nil {
		t.Error("Parse must propagate parser errors")
	}
	if !p.IDB("A") || !p.IDB("B") || p.IDB("E") {
		t.Error("IDB lookup wrong")
	}
	if got := p.Predicates(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("Predicates = %v", got)
	}
	order, err := p.CheckNonrecursive()
	if err != nil || len(order) != 2 {
		t.Errorf("CheckNonrecursive = %v %v", order, err)
	}
	u, err := p.Compile("A")
	if err != nil || len(u.Rules) != 2 {
		t.Errorf("Compile(A) = %v %v", u, err)
	}
}

func TestProgramDiamondDependency(t *testing.T) {
	// A diamond (not a tree) is still nonrecursive and compiles.
	p := prog(t, `
		Base(x) :- E(x).
		Left(x) :- Base(x), L(x).
		Right(x) :- Base(x), R(x).
		Top(x) :- Left(x), Right(x).
	`)
	u, err := p.Compile("Top")
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Rules) != 1 || len(u.Rules[0].Body) != 4 {
		t.Errorf("diamond compile = %s", u)
	}
}

// Compiled programs agree with bottom-up materialization on random
// instances.
func TestCompileSemantics(t *testing.T) {
	src := `
		L1(x) :- E1(x).
		L1(x) :- E2(x).
		L2(x) :- L1(x), E3(x).
		Top(x, y) :- L2(x), E4(x, y), not L1(y).
	`
	p := prog(t, src)
	compiled, err := p.Compile("Top")
	if err != nil {
		t.Fatal(err)
	}
	order, err := p.CheckNonrecursive()
	if err != nil {
		t.Fatal(err)
	}
	g := workload.New(33)
	s := workload.Schema{Relations: []workload.RelDef{
		{Name: "E1", Arity: 1}, {Name: "E2", Arity: 1}, {Name: "E3", Arity: 1}, {Name: "E4", Arity: 2},
	}}
	for trial := 0; trial < 20; trial++ {
		edb := engine.NewInstance()
		if err := edb.LoadFacts(g.Facts(s, 6, 4)); err != nil {
			t.Fatal(err)
		}
		// Bottom-up: materialize IDB predicates in dependency order.
		mat := engine.NewInstance()
		for _, rel := range []string{"E1", "E2", "E3", "E4"} {
			for _, row := range edb.Rows(rel) {
				mat.MustAdd(rel, row...)
			}
		}
		for _, h := range order {
			def := logic.UCQ{Rules: p.defOf(h)}
			rel, err := engine.AnswerNaive(def, mat)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rel.Rows() {
				vals := make([]string, len(row))
				for i, v := range row {
					vals[i] = v.S
				}
				mat.MustAdd(h, vals...)
			}
		}
		want, err := engine.AnswerNaive(parser.MustUCQ(`Q(x, y) :- Top(x, y).`), mat)
		if err != nil {
			t.Fatal(err)
		}
		got, err := engine.AnswerNaive(compiled, edb)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("compiled program disagrees with bottom-up on trial %d:\ncompiled: %s\nbottom-up: %s\nprogram:\n%s",
				trial, got, want, compiled)
		}
	}
}

// Unfolding multiplies: each Pk doubles its literals and squares its
// rules, so P4 is 2¹⁶ = 65 536 disjuncts. Compile refuses it with the
// named error before building the product, while P3's 256 compile.
func TestCompileStopsAtUnfoldLimit(t *testing.T) {
	p := prog(t, `
		P0(x) :- A(x).
		P0(x) :- B(x).
		P1(x) :- P0(x), P0(x).
		P2(x) :- P1(x), P1(x).
		P3(x) :- P2(x), P2(x).
		P4(x) :- P3(x), P3(x).
	`)
	start := time.Now()
	_, err := p.Compile("P4")
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("Compile took %s, want it refused before the product is built", elapsed)
	}
	if !errors.Is(err, mediator.ErrUnfoldLimit) {
		t.Fatalf("Compile(P4) = %v, want %v", err, mediator.ErrUnfoldLimit)
	}
	p3 := prog(t, `
		P0(x) :- A(x).
		P0(x) :- B(x).
		P1(x) :- P0(x), P0(x).
		P2(x) :- P1(x), P1(x).
		P3(x) :- P2(x), P2(x).
	`)
	if u, err := p3.Compile("P3"); err != nil || len(u.Rules) != 256 {
		t.Fatalf("Compile(P3) = %d rules, %v; want 256", len(u.Rules), err)
	}
}
