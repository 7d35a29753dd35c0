package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/sources"
	"repro/internal/workload"
)

func TestAnswerParallelMatchesSequential(t *testing.T) {
	g := workload.New(91)
	s := g.Schema(4, 1, 2)
	ps := g.Patterns(s, 0.4, 2)
	cfg := workload.QueryConfig{PosLits: 3, NegLits: 1, VarPool: 4, ConstProb: 0.1, HeadVars: 1, DomainSize: 5}
	tested := 0
	for i := 0; i < 100 && tested < 40; i++ {
		u := g.UCQ(s, 4, cfg)
		ordered, ok := core.ReorderUCQ(u, ps)
		if !ok {
			continue
		}
		in := NewInstance()
		if err := in.LoadFacts(g.Facts(s, 12, 6)); err != nil {
			t.Fatal(err)
		}
		cat := in.MustCatalog(ps)
		seq, err := answer(context.Background(), defaultRuntime, ordered, ps, cat)
		if err != nil {
			t.Fatal(err)
		}
		par, err := answerParallel(ordered, ps, cat)
		if err != nil {
			t.Fatal(err)
		}
		if !seq.Equal(par) {
			t.Fatalf("parallel answer differs:\nseq %s\npar %s\nplan %s", seq, par, ordered)
		}
		tested++
	}
	if tested < 20 {
		t.Errorf("only %d plans engaged", tested)
	}
}

func TestAnswerParallelErrorPropagates(t *testing.T) {
	in := NewInstance().MustAdd("R", "a")
	ps := pats(t, `R^o`)
	cat := in.MustCatalog(ps)
	u := ucq(t, "Q(x) :- R(x).\nQ(x) :- Z(x).")
	if _, err := answerParallel(u, ps, cat); err == nil {
		t.Error("rule error must propagate")
	}
}

// When several rules fail, every failure must be reported — not just
// whichever goroutine lost the race.
func TestAnswerParallelAggregatesErrors(t *testing.T) {
	in := NewInstance().MustAdd("R", "a")
	ps := pats(t, `R^o Z1^o Z2^o`)
	cat := in.MustCatalog(pats(t, `R^o`)) // Z1/Z2 declared but unpublished
	u := ucq(t, "Q(x) :- Z1(x).\nQ(x) :- Z2(x).\nQ(x) :- R(x).")
	_, err := answerParallel(u, ps, cat)
	if err == nil {
		t.Fatal("rule errors must propagate")
	}
	for _, want := range []string{"rule 1", "Z1", "rule 2", "Z2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
}

func TestAnswerParallelManyRules(t *testing.T) {
	in := NewInstance()
	var src string
	for i := 0; i < 20; i++ {
		in.MustAdd(fmt.Sprintf("R%d", i), fmt.Sprintf("v%d", i))
		src += fmt.Sprintf("Q(x) :- R%d(x).\n", i)
	}
	u := ucq(t, src)
	ps := pats(t, patternsFor(20))
	cat := in.MustCatalog(ps)
	rel, err := answerParallel(u, ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 20 {
		t.Errorf("answers = %d, want 20", rel.Len())
	}
}

// answerParallel is answer with the rules evaluated concurrently, one
// goroutine per rule (Opts.Parallel).
func answerParallel(u logic.UCQ, ps *access.Set, cat *sources.Catalog) (*Rel, error) {
	rel, _, _, err := eval(context.Background(), NewRuntime(), u, ps, cat, Opts{Parallel: true})
	return rel, err
}

func patternsFor(n int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += fmt.Sprintf("R%d^o ", i)
	}
	return out
}
