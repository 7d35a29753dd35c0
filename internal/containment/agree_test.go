package containment

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/workload"
)

// instance is one containment workload: a query Q and the probes P a
// checker for Q is asked about, in order, so that later probes meet the
// memo the earlier ones left.
type instance struct {
	name   string
	q      logic.UCQ
	probes []logic.CQ
}

// agreeCap bounds every search agreeWithOracle runs but Explain's:
// the test is Π₂ᴾ-complete, and a few random draws need millions of
// nodes. Both checkers must then give up at the same node.
const agreeCap = 1000

// agreeWithOracle holds the checker to the reference search on one
// instance, with the acyclic fast path on and off: the same verdicts
// and the same Nodes, MemoHits and AcyclicHits after every probe; under
// ContainsLimited, ErrBudget at exactly the same budgets (see budgets);
// from Explain, on instances small enough to run it unbounded, the same
// witness, which Verify accepts.
func agreeWithOracle(t *testing.T, in instance) {
	t.Helper()
	nodes := 0
	for _, disable := range []bool{false, true} {
		got, want := NewChecker(in.q), newRefChecker(in.q)
		got.DisableAcyclic, want.DisableAcyclic = disable, disable
		for _, p := range in.probes {
			g, gerr := got.ContainsLimited(p, agreeCap)
			w, werr := want.ContainsLimited(p, agreeCap)
			if g != w || gerr != werr || got.Nodes != want.Nodes || got.MemoHits != want.MemoHits || got.AcyclicHits != want.AcyclicHits {
				t.Fatalf("%s (acyclic off: %v): %s ⊑ Q\nQ = %s\ngot  %v, %v nodes=%d memo=%d acyclic=%d\nwant %v, %v nodes=%d memo=%d acyclic=%d",
					in.name, disable, p, in.q, g, gerr, got.Nodes, got.MemoHits, got.AcyclicHits, w, werr, want.Nodes, want.MemoHits, want.AcyclicHits)
			}
		}
		nodes = max(nodes, want.Nodes)
		for _, p := range in.probes {
			full := newRefChecker(in.q)
			full.DisableAcyclic = disable
			_, _ = full.ContainsLimited(p, agreeCap)
			for _, budget := range budgets(full.Nodes) {
				got, want := NewChecker(in.q), newRefChecker(in.q)
				got.DisableAcyclic, want.DisableAcyclic = disable, disable
				g, gerr := got.ContainsLimited(p, budget)
				w, werr := want.ContainsLimited(p, budget)
				if g != w || gerr != werr || got.Nodes != want.Nodes {
					t.Fatalf("%s (acyclic off: %v): %s ⊑ Q under %d nodes\nQ = %s\ngot  %v, %v after %d nodes\nwant %v, %v after %d nodes",
						in.name, disable, p, budget, in.q, g, gerr, got.Nodes, w, werr, want.Nodes)
				}
			}
		}
	}
	if nodes > 200 {
		return // Explain has no budget and no shortcut for tried images
	}
	got, want := NewChecker(in.q), newRefChecker(in.q)
	for _, p := range in.probes {
		gw, g := got.Explain(p)
		ww, w := want.Explain(p)
		if g != w || got.Nodes != want.Nodes || got.MemoHits != want.MemoHits {
			t.Fatalf("%s: Explain(%s)\nQ = %s\ngot  %v nodes=%d memo=%d\nwant %v nodes=%d memo=%d",
				in.name, p, in.q, g, got.Nodes, got.MemoHits, w, want.Nodes, want.MemoHits)
		}
		if !g {
			continue
		}
		if gs, ws := gw.String(), ww.String(); gs != ws {
			t.Fatalf("%s: Explain(%s)\nQ = %s\ngot witness\n%s\nwant\n%s", in.name, p, in.q, gs, ws)
		}
		if err := got.Verify(p, gw); err != nil {
			t.Fatalf("%s: the witness for %s fails Verify: %v\n%s", in.name, p, err, gw)
		}
	}
}

// budgets lists the node budgets to try on a search of n nodes: each of
// 1..n up to n = 100, else 1..50 and fifty more spread up to n.
func budgets(n int) []int {
	var out []int
	for b := 1; b <= n; b++ {
		if n <= 100 || b <= 50 || b%(n/50) == 0 || b == n {
			out = append(out, b)
		}
	}
	return out
}

// looseNegatives rewrites one argument of q's last negative literal to
// a variable occurring nowhere else, which a total mapping assigns by
// ranging over P's terms (the paper's Example 3 has such variables).
func looseNegatives(rng *rand.Rand, q logic.CQ) logic.CQ {
	q = q.Clone()
	for i := len(q.Body) - 1; i >= 0; i-- {
		if l := q.Body[i]; l.Negated && len(l.Atom.Args) > 0 {
			l.Atom.Args[rng.Intn(len(l.Atom.Args))] = logic.Var("n")
			break
		}
	}
	return q
}

// minimizationProbes are the candidates minimization tests against r:
// r without one body literal, for each literal.
func minimizationProbes(r logic.CQ) []logic.CQ {
	var out []logic.CQ
	for i := range r.Body {
		body := append(append([]logic.Literal(nil), r.Body[:i]...), r.Body[i+1:]...)
		out = append(out, logic.CQ{HeadPred: r.HeadPred, HeadArgs: r.HeadArgs, Body: body})
	}
	return out
}

// randomInstances draws n instances from workload.Gen: a UCQ¬ Q and
// probes that are random CQ¬ rules over the same head, Q's own rules,
// and Q's first rule minus each literal.
func randomInstances(seed int64, n int) []instance {
	g := workload.New(seed)
	rng := rand.New(rand.NewSource(seed))
	var out []instance
	for i := 0; i < n; i++ {
		s := g.Schema(2+rng.Intn(3), 1, 2)
		cfg := workload.QueryConfig{
			PosLits: 1 + rng.Intn(3), NegLits: rng.Intn(3), VarPool: 2 + rng.Intn(3),
			ConstProb: 0.15, HeadVars: rng.Intn(3), DomainSize: 3,
		}
		q := g.UCQ(s, 1+rng.Intn(3), cfg)
		if rng.Intn(2) == 0 {
			q.Rules[0] = looseNegatives(rng, q.Rules[0])
		}
		in := instance{name: fmt.Sprintf("seed %d draw %d", seed, i), q: q}
		for k := 0; k < 3; k++ {
			p := g.UCQ(s, 1, cfg).Rules[0]
			if rng.Intn(4) == 0 {
				p = looseNegatives(rng, p)
			}
			in.probes = append(in.probes, p)
		}
		in.probes = append(in.probes, q.Rules...)
		in.probes = append(in.probes, minimizationProbes(q.Rules[0])...)
		out = append(out, in)
	}
	return out
}

func TestCheckerAgreesWithOracle(t *testing.T) {
	var ins []instance
	ins = append(ins, randomInstances(1, 80)...)

	// Theorem 18: P ⊑ Q iff Q' = P' ∨ Q is feasible, which FEASIBLE
	// decides by testing every rule of ans(Q') ≡ P ∨ Q against Q'.
	g := workload.New(18)
	s := g.Schema(3, 1, 2)
	cfg := workload.QueryConfig{PosLits: 2, NegLits: 1, VarPool: 3, ConstProb: 0.1, HeadVars: 1, DomainSize: 3}
	for i := 0; i < 25; i++ {
		p, q := g.UCQ(s, 2, cfg), g.UCQ(s, 2, cfg)
		reduced, _, err := ReduceContToFeasible(p, q)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, instance{name: fmt.Sprintf("Thm. 18 draw %d", i), q: reduced, probes: append(p.Clone().Rules, q.Clone().Rules...)})
	}

	// FEASIBLE's containment test on the E3 families: ans(Q) is R(x)
	// for the case split, and every rule is its own answer for both.
	r := parser.MustCQ(`Q(x) :- R(x).`)
	for _, n := range []int{1, 2, 3, 4} {
		u, _ := workload.CaseSplitFamily(n)
		ins = append(ins, instance{name: fmt.Sprintf("case split %d", n), q: u, probes: append([]logic.CQ{r}, u.Rules[1:]...)})
		u, _ = workload.EasyFamily(n)
		ins = append(ins, instance{name: fmt.Sprintf("easy %d", n), q: u, probes: u.Rules})
	}

	// A plan miss minimizing the rules the cold_plan workload serves:
	// each text padded with redundant literals, tested without each of
	// its literals in turn.
	for i, text := range []string{
		`Q(x, y) :- R(x, z), S(z, y), R(x, u), not L(x), R(x, "k1"), S(z, y).`,
		`Q(x, y) :- R(x, z), S(z, y), R(x, u), not L(x), R(x, "k"), R(w, z), S(z, y).`,
		`Q(x) :- R(x, z), R(x, u), not L(z), not L(u), S(z, v), S(u, w).`,
		`Q(x, y) :- R(x, y), not S(y, "c"), R(x, z), not S(z, "c"), L(x).`,
		`Q(x, null) :- R(x, z), S(z, z), R(x, w), not S(w, n).`,
	} {
		rule := parser.MustCQ(text)
		ins = append(ins, instance{name: fmt.Sprintf("cold_plan-shaped %d", i), q: logic.AsUnion(rule), probes: minimizationProbes(rule)})
		padded := workload.PadRedundant(logic.AsUnion(rule)).Rules[0]
		ins = append(ins, instance{name: fmt.Sprintf("cold_plan-shaped %d padded", i), q: logic.AsUnion(padded), probes: append(minimizationProbes(padded), rule)})
	}

	for _, in := range ins {
		agreeWithOracle(t, in)
	}
}

// FuzzCheckerAgreesWithOracle is TestCheckerAgreesWithOracle's
// comparison over instances drawn from a fuzzed seed, from the corpus
// under testdata/fuzz.
func FuzzCheckerAgreesWithOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, in := range randomInstances(seed, 2) {
			agreeWithOracle(t, in)
		}
	})
}

// Checkers used from several goroutines at once share the scratch
// pool; every verdict must be the one a lone checker reaches (run it
// under -race).
func TestCheckersShareScratchConcurrently(t *testing.T) {
	ins := randomInstances(3, 40)
	type verdict struct {
		ok  bool
		err error
	}
	decide := func(in instance) []verdict {
		c := NewChecker(in.q)
		var out []verdict
		for _, p := range in.probes {
			ok, err := c.ContainsLimited(p, agreeCap)
			out = append(out, verdict{ok, err})
		}
		return out
	}
	want := make([][]verdict, len(ins))
	for i, in := range ins {
		want[i] = decide(in)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g % 2; i < len(ins); i += 2 {
				if got := decide(ins[i]); !slices.Equal(got, want[i]) {
					t.Errorf("%s: concurrent verdicts %v, alone %v", ins[i].name, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// The parent's acyclic fast path decided a disjunct with no literals
// before aligning heads, so Q("a") :- true contained every query of the
// same head predicate; the compiled checker aligns the heads first, on
// both paths.
func TestAcyclicEmptyBodyAlignsHeads(t *testing.T) {
	q := logic.CQ{HeadPred: "Q", HeadArgs: []logic.Term{logic.Const("a")}}
	for _, src := range []string{`Q("b") :- R(x).`, `Q(x) :- R(x).`} {
		for _, disable := range []bool{false, true} {
			c := NewChecker(logic.AsUnion(q))
			c.DisableAcyclic = disable
			if c.Contains(cq(t, src)) {
				t.Errorf("%s ⊑ Q(\"a\") :- true with the acyclic path off: %v", src, disable)
			}
		}
	}
	if !ContainedCQ(cq(t, `Q("a") :- R(x).`), q) {
		t.Error(`Q("a") :- R(x) must be contained in Q("a") :- true`)
	}
}
