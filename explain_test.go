package ucqn

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

func TestExplainFeasibleFacade(t *testing.T) {
	// Example 9 is feasible via containment; the explanation must carry
	// a verifiable witness.
	q := MustParseQuery(`Q(x) :- F(x), B(x), B(y), F(z).`)
	ps := MustParsePatterns(`F^o B^i`)
	ex := ExplainFeasible(q, ps)
	if !ex.Result.Feasible || ex.Result.Verdict != VerdictContainment {
		t.Fatalf("explanation = %+v", ex.Result)
	}
	if len(ex.Witnesses) != 1 {
		t.Fatalf("witnesses = %d", len(ex.Witnesses))
	}
	over := ex.Result.Plans.Over.Rules[0]
	if err := VerifyWitness(over, q, ex.Witnesses[0]); err != nil {
		t.Errorf("witness does not verify: %v", err)
	}
	// Fast-path verdicts carry no witnesses.
	ex2 := ExplainFeasible(MustParseQuery(`Q(x) :- F(x).`), ps)
	if ex2.Result.Verdict != VerdictUnderEqualsOver || len(ex2.Witnesses) != 0 {
		t.Errorf("fast path explanation = %+v", ex2)
	}
}

func TestExplainContainedFacade(t *testing.T) {
	p := MustParseRule(`Q(x) :- R(x).`)
	q := MustParseQuery("Q(x) :- R(x), not S(x).\nQ(x) :- R(x), S(x).")
	w, ok := ExplainContained(p, q)
	if !ok {
		t.Fatal("containment expected")
	}
	if err := VerifyWitness(p, q, w); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if !strings.Contains(w.String(), "conjoin") {
		t.Errorf("witness rendering: %s", w)
	}
}

func TestAnswerProfiledFacade(t *testing.T) {
	in := NewInstance().MustAdd("R", "a", "k").MustAdd("T", "k", "v")
	ps := MustParsePatterns(`R^oo T^io`)
	cat, err := in.Catalog(ps)
	if err != nil {
		t.Fatal(err)
	}
	rel, prof, err := execProfiled(MustParseQuery(`Q(x, y) :- R(x, z), T(z, y).`), ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || prof.Calls.Total != 2 {
		t.Errorf("rel=%d calls=%d", rel.Len(), prof.Calls.Total)
	}
}

// Semantic differential test: when the checker claims P ⊑ Q, answers
// must be contained on every random instance; when it denies it, a
// random search often finds a counterexample (and any counterexample
// found must coincide with a denial).
func TestContainmentSemanticSoundness(t *testing.T) {
	g := workload.New(202)
	s := g.Schema(3, 1, 2)
	cfg := workload.QueryConfig{PosLits: 3, NegLits: 1, VarPool: 3, ConstProb: 0.1, HeadVars: 1, DomainSize: 3}
	claims, refuted := 0, 0
	for i := 0; i < 80; i++ {
		p := g.UCQ(s, 1, cfg)
		q := g.UCQ(s, 2, cfg)
		claimed := Contained(p, q)
		foundCounterexample := false
		for trial := 0; trial < 15; trial++ {
			in := engine.NewInstance()
			if err := in.LoadFacts(g.Facts(s, 4, 3)); err != nil {
				t.Fatal(err)
			}
			ap, err := execNaive(p, in)
			if err != nil {
				t.Fatal(err)
			}
			aq, err := execNaive(q, in)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range ap.Rows() {
				if !aq.Contains(row) {
					foundCounterexample = true
				}
			}
			if foundCounterexample {
				break
			}
		}
		if claimed {
			claims++
			if foundCounterexample {
				t.Fatalf("checker claims %s ⊑ %s but a counterexample instance exists", p, q)
			}
		} else if foundCounterexample {
			refuted++
		}
	}
	if claims == 0 {
		t.Error("no positive containment claims exercised; generator mis-tuned")
	}
	if refuted == 0 {
		t.Error("no denial was confirmed by a counterexample; test too weak")
	}
}
