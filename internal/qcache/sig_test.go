package qcache

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/containment"
	"repro/internal/logic"
	"repro/internal/minimize"
	"repro/internal/workload"
)

// parentCoreSig is coreSig as it was rendered with one fmt.Sprintf per
// literal and per constant, kept as the reference for the partition
// of cores into the answer tier's buckets.
func parentCoreSig(c logic.CQ) string {
	var parts []string
	for _, l := range c.Body {
		pred := fmt.Sprintf("%s/%d", l.Atom.Pred, len(l.Atom.Args))
		if l.Negated {
			pred = "!" + pred
		}
		parts = append(parts, pred)
		for k, t := range l.Atom.Args {
			if !t.IsVar() {
				parts = append(parts, fmt.Sprintf("%s#%d=%s", pred, k, t))
			}
		}
	}
	sort.Strings(parts)
	var b strings.Builder
	fmt.Fprintf(&b, "%d", len(c.HeadArgs))
	for k, t := range c.HeadArgs {
		if !t.IsVar() {
			fmt.Fprintf(&b, " %d=%s", k, t)
		}
	}
	for i, p := range parts {
		if i == 0 || p != parts[i-1] {
			b.WriteString(" ")
			b.WriteString(p)
		}
	}
	return b.String()
}

// The one-pass signature draws the same partition as the parent's: over
// the canonical cores a plan miss computes for the cold_plan universe
// and for random workload draws, old signature ↦ new signature is a
// bijection, so every bucket holds the same entries.
func TestCoreSigPartitionMatchesParent(t *testing.T) {
	var cores []logic.CQ
	add := func(u logic.UCQ) {
		budget := 20000
		for _, cr := range minimize.Cores(u, &budget) {
			cr.HeadPred = canonHeadPred
			if canon, _ := containment.CanonicalForm(cr); !canon.False {
				cores = append(cores, canon)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4096; i++ {
		add(workload.ColdPlanQuery(rng, i))
	}
	g := workload.New(7)
	for i := 0; i < 2000; i++ {
		s := g.Schema(3, 1, 3)
		cfg := workload.QueryConfig{PosLits: 1 + i%4, NegLits: i % 3, VarPool: 4, ConstProb: 0.3, HeadVars: i % 3, DomainSize: 3}
		add(g.UCQ(s, 1+i%2, cfg))
	}
	// Head constants and null, which no generated core has.
	add(logic.UCQ{Rules: []logic.CQ{
		{HeadPred: "Q", HeadArgs: []logic.Term{logic.Var("x"), logic.Const("a")}, Body: []logic.Literal{logic.Pos(logic.NewAtom("R", logic.Var("x")))}},
		{HeadPred: "Q", HeadArgs: []logic.Term{logic.Var("x"), logic.Null}, Body: []logic.Literal{logic.Pos(logic.NewAtom("R", logic.Var("x")))}},
		{HeadPred: "Q", HeadArgs: []logic.Term{logic.Var("x"), logic.Const("null")}, Body: []logic.Literal{logic.Pos(logic.NewAtom("R", logic.Var("x")))}},
		{HeadPred: "Q", HeadArgs: []logic.Term{logic.Var("x"), logic.Var("y")}, Body: []logic.Literal{logic.Pos(logic.NewAtom("R", logic.Var("x"), logic.Null)), logic.Pos(logic.NewAtom("R", logic.Var("y"), logic.Const("null")))}},
	}})
	toNew, toOld := map[string]string{}, map[string]string{}
	for _, c := range cores {
		old, sig := parentCoreSig(c), coreSig(c)
		if prev, ok := toNew[old]; ok && prev != sig {
			t.Fatalf("parent signature %q maps to %q and %q", old, prev, sig)
		}
		if prev, ok := toOld[sig]; ok && prev != old {
			t.Fatalf("signature %q comes from parent signatures %q and %q", sig, prev, old)
		}
		toNew[old], toOld[sig] = sig, old
	}
	if len(toNew) < 1000 {
		t.Fatalf("only %d distinct signatures over %d cores: the corpus is too uniform", len(toNew), len(cores))
	}
}
