package constraints

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/workload"
)

func TestChaseAddsImpliedAtom(t *testing.T) {
	inds := MustParse(`R[1] < S[0]`)
	q := parser.MustCQ(`Q(x) :- R(x, z).`)
	chased, done := inds.Chase(q, DefaultChaseRounds)
	if !done {
		t.Fatal("chase must reach a fixpoint")
	}
	if len(chased.Body) != 2 || chased.Body[1].Atom.Pred != "S" {
		t.Fatalf("chased = %s", chased)
	}
	if chased.Body[1].Atom.Args[0] != q.Body[0].Atom.Args[1] {
		t.Errorf("projected term not propagated: %s", chased)
	}
	// Idempotent: chasing again adds nothing.
	again, _ := inds.Chase(chased, DefaultChaseRounds)
	if len(again.Body) != len(chased.Body) {
		t.Errorf("chase not idempotent: %s", again)
	}
}

func TestChaseExposesUnsatisfiability(t *testing.T) {
	inds := MustParse(`R[1] < S[0]`)
	q := parser.MustCQ(`Q(x) :- R(x, z), not S(z).`)
	if inds.SatisfiableUnder(q) {
		t.Error("Example 6 rule must be unsatisfiable under the dependency")
	}
	// Without the negation it stays satisfiable.
	q2 := parser.MustCQ(`Q(x) :- R(x, z), S(z).`)
	if !inds.SatisfiableUnder(q2) {
		t.Error("positive rule must stay satisfiable")
	}
}

// The chase follows dependency chains the direct RefutesRule check
// cannot see.
func TestChaseFollowsChains(t *testing.T) {
	inds := MustParse(`R[1] < S[0]; S[0] < T[0]`)
	q := parser.MustCQ(`Q(x) :- R(x, z), not T(z).`)
	if inds.RefutesRule(q) {
		t.Fatal("the direct check must NOT see the two-step chain (that is the point)")
	}
	if inds.SatisfiableUnder(q) {
		t.Error("the chase must refute through the chain R ⊆ S ⊆ T")
	}
}

func TestChasePartialCoverDoesNotRefute(t *testing.T) {
	// S has arity 2, the dependency pins only column 0: ¬S(z, w) is not
	// refuted (the implied S-tuple may differ in column 1).
	inds := MustParse(`R[1] < S[0]`)
	q := parser.MustCQ(`Q(x) :- R(x, z), W(w), not S(z, w).`)
	if !inds.SatisfiableUnder(q) {
		t.Error("partial cover must not refute")
	}
}

func TestChaseCyclicBudget(t *testing.T) {
	// E[1] ⊆ E[0] keeps generating new atoms with fresh variables.
	inds := MustParse(`E[1] < E[0]`)
	q := parser.MustCQ(`Q(x) :- E(x, y).`)
	chased, done := inds.Chase(q, 3)
	if done {
		t.Error("cyclic chase must hit the round cap")
	}
	if len(chased.Body) <= 1 {
		t.Error("cyclic chase must still add implied atoms")
	}
	if len(chased.Body) > 5 {
		t.Errorf("round cap not respected: %d atoms", len(chased.Body))
	}
}

func TestFeasibleUnder(t *testing.T) {
	u := parser.MustUCQ(`
		Q(x, y) :- not S(z), R(x, z), B(x, y).
		Q(x, y) :- T(x, y).
	`)
	ps := parser.MustPatterns(`S^o R^oo B^oi T^oo`)
	inds := MustParse(`R[1] < S[0]`)
	if core.Feasible(u, ps).Feasible {
		t.Fatal("infeasible without constraints")
	}
	res := FeasibleUnder(u, ps, inds)
	if !res.Feasible {
		t.Errorf("feasible under the dependency: %v", res)
	}
}

// ANSWER* on the chase-optimized query (what WithINDs + WithAnswerStar
// run) certifies completeness at compile time: the Example 4 view under
// the Example 6 foreign key plans without the null rule, so ANSWER*
// reports a complete answer with no overestimate gap.
func TestAnswerStarUnder(t *testing.T) {
	u := parser.MustUCQ(`
		Q(x, y) :- not S(z), R(x, z), B(x, y).
		Q(x, y) :- T(x, y).
	`)
	ps := parser.MustPatterns(`S^o R^oo B^oi T^oo`)
	inds := MustParse(`R[1] < S[0]`)
	in := engine.NewInstance()
	in.MustAdd("R", "x1", "z1")
	in.MustAdd("S", "z1")
	in.MustAdd("B", "x1", "y1")
	in.MustAdd("T", "t1", "t2")
	if !inds.Holds(in) {
		t.Fatal("instance must satisfy the dependency")
	}
	cat, err := in.Catalog(ps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunAnswerStar(inds.OptimizeChase(u), ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Over.HasNull() {
		t.Errorf("optimized ANSWER* must be complete and null-free: %s", res.Report())
	}
	// Sound: equals the unoptimized underestimate's answers (and ground
	// truth) on this legal instance.
	plain, err := engine.RunAnswerStar(u, ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Under.Equal(plain.Under) {
		t.Errorf("answers differ: %s vs %s", res.Under, plain.Under)
	}
}

// Chase preserves answers on instances satisfying the dependencies.
func TestChasePreservesSemantics(t *testing.T) {
	inds := MustParse(`R[1] < S[0]`)
	queries := []string{
		`Q(x) :- R(x, z).`,
		`Q(x) :- R(x, z), not S(z).`,
		`Q(x) :- R(x, z), S(z).`,
	}
	g := workload.New(123)
	s := workload.Schema{Relations: []workload.RelDef{
		{Name: "R", Arity: 2}, {Name: "S", Arity: 1},
	}}
	for trial := 0; trial < 20; trial++ {
		in := engine.NewInstance()
		if err := in.LoadFacts(g.FactsWithInclusion(s, 6, 5, "R", 1, "S", 0)); err != nil {
			t.Fatal(err)
		}
		for _, qs := range queries {
			q := parser.MustCQ(qs)
			chased, _ := inds.Chase(q, DefaultChaseRounds)
			a, err := engine.AnswerNaive(logic.AsUnion(q), in)
			if err != nil {
				t.Fatal(err)
			}
			b, err := engine.AnswerNaive(logic.AsUnion(chased), in)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Equal(b) {
				t.Fatalf("chase changed answers for %q on a legal instance:\n%s\nvs\n%s", qs, a, b)
			}
		}
	}
}
