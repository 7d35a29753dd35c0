// Command paperbench regenerates every experiment of DESIGN.md
// (E1–E23 and E26–E28; E24 is the serving harness, cmd/ucqnload, and E25
// a benchmark beside its oracle, internal/engine): the
// reproduction of the algorithms, worked examples, and
// complexity claims of Nash & Ludäscher (EDBT 2004). Each experiment
// prints one table; EXPERIMENTS.md records the expected shapes.
//
// Usage:
//
//	paperbench [-run E3] [-quick]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	ucqn "repro"
	"repro/internal/access"
	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lichang"
	"repro/internal/logic"
	"repro/internal/server"
	"repro/internal/sources"
	"repro/internal/workload"
)

var (
	quick    = flag.Bool("quick", false, "smaller sizes for a fast smoke run")
	benchOut = flag.String("bench-out", "", "write the bench report of the experiment being run (E26–E28, with -run) to this path")
)

func main() {
	run := flag.String("run", "", "run only this experiment id (e.g. E3); default all")
	flag.Parse()

	experiments := []struct {
		id   string
		name string
		fn   func()
	}{
		{"E1", "ANSWERABLE: outputs and quadratic scaling (Fig. 1, Prop. 2)", e1},
		{"E2", "PLAN*: under/overestimates and scaling (Fig. 2, Ex. 4)", e2},
		{"E3", "FEASIBLE: cheap certificates vs Π₂ᴾ containment (Fig. 3, Thm. 18)", e3},
		{"E4", "ANSWER*: runtime completeness of infeasible plans (Fig. 4, Ex. 5)", e4},
		{"E5", "paper examples classification (Ex. 1, 3, 4, 9, 10)", e5},
		{"E6", "minimality of ans(Q) (Thm. 16, Prop. 4, Cor. 17)", e6},
		{"E7", "FEASIBLE vs Li–Chang baselines (Sec. 5.3–5.4, Ex. 9–10)", e7},
		{"E8", "foreign keys make infeasible plans runtime-complete (Ex. 6)", e8},
		{"E9", "satisfiability check scaling (Prop. 8)", e9},
		{"E10", "containment ↔ feasibility reductions (Thm. 18, Prop. 20)", e10},
		{"E11", "estimate ladder: under ≤ under+dom ≤ exact ≤ over (Ex. 8)", e11},
		{"E12", "web-service composition: source call accounting (Sec. 1)", e12},
		{"E13", "semantic optimizer under inclusion dependencies (Ex. 6, Sec. 6)", e13},
		{"E14", "ablation: ANSWERABLE order vs call-minimizing order", e14},
		{"E15", "ablation: acyclic containment fast path (CR97, Sec. 5.1)", e15},
		{"E16", "ablation: source-call caching", e16},
		{"E17", "ablation: greedy vs cost-based join order", e17},
		{"E18", "ablation: adornment strategy (selection pushdown)", e18},
		{"E19", "ablation: source-call runtime (dedup, concurrency, retries)", e19},
		{"E20", "streaming pipeline: time-to-first-tuple vs materialized", e20},
		{"E21", "graceful degradation: breaker savings and underestimate size", e21},
		{"E22", "semantic query cache: Zipf repeated workload", e22},
		{"E23", "hedged requests: tail latency with a slow replica", e23},
		{"E26", "crash-safe answer cache: cold start vs warm restart", e26},
		{"E27", "external adapters: batched IN pushdown vs per-call round trips", e27},
		{"E28", "cache fleet: sibling warm start and fleet-wide invalidation", e28},
	}
	found := false
	for _, e := range experiments {
		if *run != "" && !strings.EqualFold(*run, e.id) {
			continue
		}
		found = true
		fmt.Printf("== %s: %s ==\n", e.id, e.name)
		e.fn()
		fmt.Println()
	}
	if !found {
		fmt.Fprintf(os.Stderr, "paperbench: unknown experiment %q\n", *run)
		os.Exit(2)
	}
}

func sizes(full []int, small []int) []int {
	if *quick {
		return small
	}
	return full
}

// timeIt runs fn repeatedly for at least 20ms and returns ns/op.
func timeIt(fn func()) float64 {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		el := time.Since(start)
		if el > 20*time.Millisecond || n > 1<<20 {
			return float64(el.Nanoseconds()) / float64(n)
		}
		n *= 2
	}
}

// --- E1 -----------------------------------------------------------------

func e1() {
	// Part 1: the paper's ans(Q) outputs.
	q1 := ucqn.MustParseRule(`Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).`)
	p1 := ucqn.MustParsePatterns(`B^ioo B^oio C^oo L^o`)
	fmt.Printf("ans(Example 1) = %s\n", core.AnswerablePart(q1, p1))
	q9 := ucqn.MustParseRule(`Q(x) :- F(x), B(x), B(y), F(z).`)
	p9 := ucqn.MustParsePatterns(`F^o B^i`)
	fmt.Printf("ans(Example 9) = %s\n", core.AnswerablePart(q9, p9))

	// Part 2: quadratic scaling on reversed chains.
	fmt.Printf("%8s %14s %10s\n", "n", "ns/op", "ratio")
	var prev float64
	for _, n := range sizes([]int{16, 32, 64, 128, 256}, []int{8, 16, 32}) {
		q, ps := workload.ChainQuery(n)
		rev := workload.Reversed(q)
		t := timeIt(func() { core.AnswerablePart(rev, ps) })
		ratio := 0.0
		if prev > 0 {
			ratio = t / prev
		}
		fmt.Printf("%8d %14.0f %10.2f\n", n, t, ratio)
		prev = t
	}
	fmt.Println("expected: ratio ≈ 4 per doubling (quadratic, Prop. 2)")
}

// --- E2 -----------------------------------------------------------------

func e2() {
	u, ps, _ := example4()
	fmt.Println(ucqn.Plan(u, ps))

	fmt.Printf("\n%8s %14s %10s\n", "n", "ns/op", "ratio")
	var prev float64
	for _, n := range sizes([]int{16, 32, 64, 128, 256}, []int{8, 16, 32}) {
		q, cps := workload.ChainQuery(n)
		rev := logic.AsUnion(workload.Reversed(q))
		t := timeIt(func() { core.ComputePlans(rev, cps) })
		ratio := 0.0
		if prev > 0 {
			ratio = t / prev
		}
		fmt.Printf("%8d %14.0f %10.2f\n", n, t, ratio)
		prev = t
	}
	fmt.Println("expected: ratio ≈ 4 per doubling (PLAN* is quadratic)")
}

// --- E3 -----------------------------------------------------------------

func e3() {
	fmt.Printf("%8s %12s %14s %12s %14s\n", "n", "hard nodes", "hard ns/op", "easy nodes", "easy ns/op")
	for _, n := range sizes([]int{2, 4, 6, 8, 10}, []int{2, 4, 6}) {
		hu, hps := workload.CaseSplitFamily(n)
		res := core.Feasible(hu, hps)
		if !res.Feasible || res.Verdict != core.VerdictContainment {
			fmt.Printf("unexpected verdict for hard n=%d: %v\n", n, res)
			return
		}
		ht := timeIt(func() { core.Feasible(hu, hps) })

		eu, eps := workload.EasyFamily(n)
		eres := core.Feasible(eu, eps)
		if !eres.Feasible || eres.Verdict != core.VerdictUnderEqualsOver {
			fmt.Printf("unexpected verdict for easy n=%d: %v\n", n, eres)
			return
		}
		et := timeIt(func() { core.Feasible(eu, eps) })
		fmt.Printf("%8d %12d %14.0f %12d %14.0f\n", n, res.Nodes, ht, eres.Nodes, et)
	}
	fmt.Println("expected: hard nodes grow superlinearly with n; easy stays flat (fast certificate)")
}

// --- E4 -----------------------------------------------------------------

// example4 is the paper's infeasible view of Examples 4–8 — the union
// E4, E8 and E11 run ANSWER* on, and E2 and E13 plan — with its access
// patterns and its schema for the instance generators.
func example4() (logic.UCQ, *access.Set, workload.Schema) {
	u := ucqn.MustParseQuery(`
		Q(x, y) :- not S(z), R(x, z), B(x, y).
		Q(x, y) :- T(x, y).
	`)
	ps := ucqn.MustParsePatterns(`S^o R^oo B^oi T^oo`)
	s := workload.Schema{Relations: []workload.RelDef{
		{Name: "R", Arity: 2}, {Name: "S", Arity: 1}, {Name: "B", Arity: 2}, {Name: "T", Arity: 2},
	}}
	return u, ps, s
}

// answerStar runs ANSWER* for u over a fresh catalog of in and adds the
// run's source traffic to total.
func answerStar(u logic.UCQ, ps *access.Set, in *engine.Instance, total *sources.Stats) (engine.AnswerStar, *sources.Catalog) {
	cat := in.MustCatalog(ps)
	res, err := engine.RunAnswerStar(u, ps, cat)
	if err != nil {
		panic(err)
	}
	total.Add(cat.TotalStats())
	return res, cat
}

func e4() {
	u, ps, s := example4()
	trials := 200
	if *quick {
		trials = 50
	}
	fmt.Printf("%24s %10s %12s %12s %8s %8s\n", "instance family", "complete", "avg |ans_u|", "avg |Δ|", "calls", "tuples")
	for _, fam := range []struct {
		name string
		fk   bool
	}{{"random", false}, {"R.z ⊆ S.z (Ex. 6)", true}} {
		g := workload.New(42)
		complete, sumU, sumD := 0, 0, 0
		var traffic sources.Stats
		for i := 0; i < trials; i++ {
			var facts = g.Facts(s, 6, 8)
			if fam.fk {
				facts = g.FactsWithInclusion(s, 6, 8, "R", 1, "S", 0)
			}
			in := engine.NewInstance()
			if err := in.LoadFacts(facts); err != nil {
				panic(err)
			}
			res, _ := answerStar(u, ps, in, &traffic)
			if res.Complete {
				complete++
			}
			sumU += res.Under.Len()
			sumD += res.Delta.Len()
		}
		fmt.Printf("%24s %9.0f%% %12.2f %12.2f %8d %8d\n", fam.name,
			100*float64(complete)/float64(trials),
			float64(sumU)/float64(trials), float64(sumD)/float64(trials),
			traffic.Calls, traffic.TuplesReturned)
	}
	fmt.Println("expected: the FK family reports complete answers far more often, despite the query being infeasible; calls and tuples (summed over the trials) are those of the overestimate plan alone")
}

// --- E5 -----------------------------------------------------------------

func e5() {
	fmt.Printf("%-12s %-11s %-10s %-9s %s\n", "example", "executable", "orderable", "feasible", "verdict")
	for _, ex := range workload.PaperExamples() {
		res := ucqn.Feasible(ex.Query, ex.Patterns)
		fmt.Printf("%-12s %-11v %-10v %-9v %s\n", ex.Name,
			ucqn.Executable(ex.Query, ex.Patterns),
			ucqn.Orderable(ex.Query, ex.Patterns),
			res.Feasible, res.Verdict)
	}
	fmt.Println("expected: matches the paper's prose (Ex. 1 orderable; Ex. 3/9/10 feasible-not-orderable; Ex. 4 infeasible)")
}

// --- E6 -----------------------------------------------------------------

func e6() {
	g := workload.New(7)
	s := g.Schema(4, 1, 2)
	ps := g.Patterns(s, 0.5, 2)
	cfg := workload.QueryConfig{PosLits: 3, NegLits: 1, VarPool: 4, ConstProb: 0.1, HeadVars: 1, DomainSize: 5}
	trials := 300
	if *quick {
		trials = 60
	}
	prop4, thm16, engaged := 0, 0, 0
	for i := 0; i < trials; i++ {
		e := g.UCQ(s, 2, cfg)
		ordered, ok := core.ReorderUCQ(e, ps)
		if !ok {
			continue
		}
		q := logic.UCQ{Rules: []logic.CQ{ordered.Rules[0].Clone()}}
		q.Rules[0].Body = append(q.Rules[0].Body, g.CQ(s, cfg).Body...)
		a := core.AnswerableUCQ(q, ps).DropFalseRules()
		if a.HasNull() {
			continue
		}
		engaged++
		if ucqn.Contained(q, a) {
			prop4++
		}
		if ucqn.Contained(a, ordered) {
			thm16++
		}
	}
	fmt.Printf("cases engaged:              %d\n", engaged)
	fmt.Printf("Prop. 4  (Q ⊑ ans(Q)):      %d/%d\n", prop4, engaged)
	fmt.Printf("Thm. 16  (ans(Q) ⊑ E):      %d/%d\n", thm16, engaged)
	fmt.Println("expected: both properties hold in every engaged case")
}

// --- E7 -----------------------------------------------------------------

func e7() {
	g := workload.New(13)
	s := g.Schema(4, 1, 2)
	ps := g.Patterns(s, 0.55, 2)
	cfg := workload.QueryConfig{PosLits: 4, NegLits: 0, VarPool: 4, ConstProb: 0.1, HeadVars: 1, DomainSize: 5}
	trials := 200
	if *quick {
		trials = 40
	}
	queries := make([]logic.UCQ, trials)
	for i := range queries {
		queries[i] = g.UCQ(s, 3, cfg)
	}
	type algo struct {
		name string
		fn   func(logic.UCQ) bool
	}
	algos := []algo{
		{"FEASIBLE", func(u logic.UCQ) bool { return core.Feasible(u, ps).Feasible }},
		{"UCQstable", func(u logic.UCQ) bool { v, _ := lichang.UCQStable(u, ps); return v }},
		{"UCQstable*", func(u logic.UCQ) bool { v, _ := lichang.UCQStableStar(u, ps); return v }},
	}
	verdicts := make([][]bool, len(algos))
	times := make([]float64, len(algos))
	for ai, a := range algos {
		verdicts[ai] = make([]bool, trials)
		start := time.Now()
		for i, u := range queries {
			verdicts[ai][i] = a.fn(u)
		}
		times[ai] = float64(time.Since(start).Nanoseconds()) / float64(trials)
	}
	disagreements := 0
	feasibleCount := 0
	for i := 0; i < trials; i++ {
		if verdicts[0][i] {
			feasibleCount++
		}
		for ai := 1; ai < len(algos); ai++ {
			if verdicts[ai][i] != verdicts[0][i] {
				disagreements++
			}
		}
	}
	fmt.Printf("%-12s %14s\n", "algorithm", "ns/query")
	for ai, a := range algos {
		fmt.Printf("%-12s %14.0f\n", a.name, times[ai])
	}
	fmt.Printf("queries: %d (feasible: %d)   disagreements: %d\n", trials, feasibleCount, disagreements)
	fmt.Println("expected: zero disagreements; UCQstable pays for minimization, UCQstable* and FEASIBLE are close")
}

// --- E8 -----------------------------------------------------------------

func e8() {
	// Same as E4 but sweeping the inclusion rate: what fraction of R
	// tuples violate the FK determines how often completeness is
	// detected.
	u, ps, _ := example4()
	trials := 150
	if *quick {
		trials = 30
	}
	fmt.Printf("%14s %12s %8s %8s\n", "FK violations", "complete", "calls", "tuples")
	for _, extra := range []int{0, 1, 2, 4} {
		complete := 0
		var traffic sources.Stats
		for i := 0; i < trials; i++ {
			in := engine.NewInstance()
			// S covers the base domain; R references it, plus `extra`
			// dangling tuples.
			for d := 0; d < 6; d++ {
				in.MustAdd("S", fmt.Sprintf("z%d", d))
				in.MustAdd("R", fmt.Sprintf("x%d", d), fmt.Sprintf("z%d", d))
			}
			for e := 0; e < extra; e++ {
				in.MustAdd("R", fmt.Sprintf("xx%d", e), fmt.Sprintf("dangling%d", e))
			}
			in.MustAdd("B", "x0", "y0")
			in.MustAdd("T", "t1", "t2")
			if res, _ := answerStar(u, ps, in, &traffic); res.Complete {
				complete++
			}
		}
		fmt.Printf("%14d %11.0f%% %8d %8d\n", extra, 100*float64(complete)/float64(trials), traffic.Calls, traffic.TuplesReturned)
	}
	fmt.Println("expected: 100% complete at 0 violations, 0% once dangling R tuples exist; calls and tuples (summed over the trials) are those of the overestimate plan alone")
}

// --- E9 -----------------------------------------------------------------

func e9() {
	fmt.Printf("%8s %14s %10s\n", "n", "ns/op", "ratio")
	var prev float64
	for _, n := range sizes([]int{64, 128, 256, 512}, []int{32, 64}) {
		q, _ := workload.ChainQuery(n)
		// Add a complementary pair at the end so the scan is full-length.
		q.Body = append(q.Body, logic.Neg(q.Body[0].Atom))
		t := timeIt(func() { ucqn.Satisfiable(logic.AsUnion(q)) })
		ratio := 0.0
		if prev > 0 {
			ratio = t / prev
		}
		fmt.Printf("%8d %14.0f %10.2f\n", n, t, ratio)
		prev = t
	}
	fmt.Println("expected: ratio ≈ 2 per doubling (near-linear with hashing; the paper states quadratic as an upper bound)")
}

// --- E10 ----------------------------------------------------------------

func e10() {
	g := workload.New(31)
	s := g.Schema(4, 1, 2)
	cfg := workload.QueryConfig{PosLits: 3, NegLits: 0, VarPool: 4, ConstProb: 0.1, HeadVars: 1, DomainSize: 5}
	trials := 150
	if *quick {
		trials = 30
	}
	agreeU, agreeC, totalU, totalC := 0, 0, 0, 0
	for i := 0; i < trials; i++ {
		p := g.UCQ(s, 2, cfg)
		q := g.UCQ(s, 2, cfg)
		want := ucqn.Contained(p, q)
		red, rps, err := ucqn.ReduceContToFeasible(p, q)
		if err != nil {
			continue
		}
		res, err := ucqn.FeasibleLimited(red, rps, 500_000)
		if err != nil {
			continue
		}
		totalU++
		if res.Feasible == want {
			agreeU++
		}

		pc, qc := g.CQ(s, cfg), g.CQ(s, cfg)
		qc.HeadArgs = append([]logic.Term(nil), pc.HeadArgs...)
		if !qc.HeadSafe() {
			continue
		}
		wantC := ucqn.Contained(logic.AsUnion(pc), logic.AsUnion(qc))
		l, lps, err := ucqn.ReduceContCQToFeasible(pc, qc)
		if err != nil {
			continue
		}
		resC, err := ucqn.FeasibleLimited(logic.AsUnion(l), lps, 500_000)
		if err != nil {
			continue
		}
		totalC++
		if resC.Feasible == wantC {
			agreeC++
		}
	}
	fmt.Printf("Thm. 18  CONT(UCQ¬) → FEASIBLE(UCQ¬):  %d/%d agree\n", agreeU, totalU)
	fmt.Printf("Prop. 20 CONT(CQ¬)  → FEASIBLE(CQ¬):   %d/%d agree\n", agreeC, totalC)
	fmt.Println("expected: full agreement (the reductions are exact)")
}

// --- E11 ----------------------------------------------------------------

func e11() {
	g := workload.New(51)
	u, ps, s := example4()
	trials := 150
	if *quick {
		trials = 30
	}
	var sumU, sumI, sumX, sumO float64
	var traffic sources.Stats // ANSWER* only: taken before ImproveUnder enumerates the domain
	ladder := 0
	for i := 0; i < trials; i++ {
		in := engine.NewInstance()
		if err := in.LoadFacts(g.Facts(s, 8, 6)); err != nil {
			panic(err)
		}
		res, cat := answerStar(u, ps, in, &traffic)
		improved, _, _, err := engine.ImproveUnder(res, ps, cat, 100_000)
		if err != nil {
			panic(err)
		}
		truth, err := engine.AnswerNaive(u, in)
		if err != nil {
			panic(err)
		}
		sumU += float64(res.Under.Len())
		sumI += float64(improved.Len())
		sumX += float64(truth.Len())
		sumO += float64(res.Over.Len())
		if res.Under.Len() <= improved.Len() && improved.Len() <= truth.Len() {
			ladder++
		}
	}
	n := float64(trials)
	fmt.Printf("avg |ans_u| = %.2f ≤ avg |ans_u+dom| = %.2f ≤ avg |exact| = %.2f   (avg |ans_o| = %.2f, with nulls)\n",
		sumU/n, sumI/n, sumX/n, sumO/n)
	fmt.Printf("ladder held in %d/%d instances\n", ladder, trials)
	fmt.Printf("ANSWER* source traffic over the %d instances: %d calls, %d tuples (domain enumeration not counted)\n", trials, traffic.Calls, traffic.TuplesReturned)
	fmt.Println("expected: ladder holds in every instance; dom closes part of the gap")
}

// --- E12 ----------------------------------------------------------------

func e12() {
	fmt.Printf("%8s %12s %14s %12s\n", "fan-out", "calls", "tuples", "ns/op")
	for _, n := range sizes([]int{2, 4, 8, 16}, []int{2, 4}) {
		q, ps := workload.StarQuery(n)
		g := workload.New(int64(n))
		in := engine.NewInstance()
		// 40 x-values; each Ri maps x to one y-value so bindings stay
		// constant and fan-out is the only variable; S filters half.
		for x := 0; x < 40; x++ {
			xv := fmt.Sprintf("x%d", x)
			for i := 1; i <= n; i++ {
				in.MustAdd(fmt.Sprintf("R%d", i), xv, fmt.Sprintf("y%d_%d", i, x))
			}
			if x%2 == 0 {
				in.MustAdd("S", xv)
			}
		}
		_ = g
		cat, err := in.Catalog(ps)
		if err != nil {
			panic(err)
		}
		uq := logic.AsUnion(q)
		t := timeIt(func() {
			if _, err := engine.Answer(uq, ps, cat); err != nil {
				panic(err)
			}
		})
		cat.ResetStats()
		if _, err := engine.Answer(uq, ps, cat); err != nil {
			panic(err)
		}
		st := cat.TotalStats()
		fmt.Printf("%8d %12d %14d %12.0f\n", n, st.Calls, st.TuplesReturned, t)
	}
	fmt.Println("expected: calls grow with fan-out times bindings; the negated filter adds one call per surviving binding")
}

// --- E13 ----------------------------------------------------------------

func e13() {
	u, ps, _ := example4()
	inds := ucqn.MustParseINDs(`R[1] < S[0]`)
	before := ucqn.Feasible(u, ps)
	opt := inds.Optimize(u)
	after := ucqn.Feasible(opt, ps)
	fmt.Printf("%-28s rules=%d feasible=%v (%s)\n", "without constraints:", len(u.Rules), before.Feasible, before.Verdict)
	fmt.Printf("%-28s rules=%d feasible=%v (%s)\n", "with R[1] ⊆ S[0]:", len(opt.Rules), after.Feasible, after.Verdict)

	// The chase-based optimizer additionally follows dependency chains
	// R ⊆ S ⊆ T that the direct literal match cannot see.
	chain := ucqn.MustParseINDs(`R[1] < S[0]; S[0] < T[0]`)
	u2 := ucqn.MustParseQuery(`
		Q(x, y) :- not T(z), R(x, z), B(x, y).
		Q(x, y) :- W(x, y).
	`)
	ps2 := ucqn.MustParsePatterns(`T^o R^oo B^oi W^oo S^o`)
	direct := chain.Optimize(u2)
	chased := chain.OptimizeChase(u2)
	fmt.Printf("%-28s direct optimizer keeps %d rules; chase keeps %d; FeasibleUnder=%v\n",
		"chain R ⊆ S ⊆ T:", len(direct.Rules), len(chased.Rules),
		ucqn.FeasibleUnder(u2, ps2, chain).Feasible)
	fmt.Println("expected: the dependency refutes the dismissed rule at compile time; only the chase sees the two-step chain")
}

// --- E14 ----------------------------------------------------------------

func e14() {
	// R1 produces many bindings; the filter ¬L removes 90% of them;
	// R2 then fans out. ANSWERABLE discovers R1, R2, ¬L in one pass
	// (filter last); the optimizer schedules the filter first.
	q := ucqn.MustParseQuery(`Q(x, y) :- R1(x, w), R2(w, y), not L(x).`)
	ps := ucqn.MustParsePatterns(`R1^oo R2^io L^i`)
	in := ucqn.NewInstance()
	for i := 0; i < 100; i++ {
		in.MustAdd("R1", fmt.Sprintf("x%d", i), fmt.Sprintf("w%d", i))
		in.MustAdd("R2", fmt.Sprintf("w%d", i), fmt.Sprintf("y%d", i))
		if i%10 != 0 {
			in.MustAdd("L", fmt.Sprintf("x%d", i)) // filters 90%
		}
	}
	ordered, _ := ucqn.Reorder(q, ps)
	optimized, _ := ucqn.OptimizeOrder(q, ps)
	fmt.Printf("%-20s %-44s %8s %8s\n", "plan", "order", "calls", "tuples")
	for _, v := range []struct {
		name string
		q    ucqn.Query
	}{{"ANSWERABLE order", ordered}, {"optimized order", optimized}} {
		cat, err := in.Catalog(ps)
		if err != nil {
			panic(err)
		}
		if _, err := ucqn.Exec(context.Background(), v.q, ps, cat); err != nil {
			panic(err)
		}
		st := cat.TotalStats()
		fmt.Printf("%-20s %-44s %8d %8d\n", v.name, v.q.Rules[0].String()[len("Q(x, y) :- "):], st.Calls, st.TuplesReturned)
	}
	fmt.Println("expected: scheduling the ¬L filter before R2 cuts the R2 calls by ~90%")
}

// --- E15 ----------------------------------------------------------------

func e15() {
	// Adversarial family for backtracking: is a boolean chain of length
	// d+1 contained in... equivalently, does the chain map into a
	// complete binary tree of depth d? It does not (every downward path
	// is too short), but naive backtracking discovers this only after
	// exploring every partial root-to-leaf embedding (≈2^d dead ends).
	// The semijoin program over the chain's join tree decides in
	// polynomial time. (On easy instances the fast path has constant
	// overhead; this family is where it pays.)
	fmt.Printf("%8s %16s %16s %10s\n", "depth", "fast ns/op", "slow ns/op", "speedup")
	for _, d := range sizes([]int{6, 8, 10, 12}, []int{6, 8}) {
		p := treeRule(d)
		q := logic.AsUnion(chainRule(d + 1))
		c0 := containmentChecker(q, false)
		if c0.Contains(p) {
			fmt.Printf("unexpected containment at depth %d\n", d)
			return
		}
		fast := timeIt(func() {
			c := containmentChecker(q, false)
			c.Contains(p)
		})
		slow := timeIt(func() {
			c := containmentChecker(q, true)
			c.Contains(p)
		})
		fmt.Printf("%8d %16.0f %16.0f %9.1fx\n", d, fast, slow, slow/fast)
	}
	fmt.Println("expected: speedup grows exponentially with depth (backtracking explores every partial embedding)")
}

// chainRule is the boolean chain query E(x0,x1), …, E(x{n-1},xn).
func chainRule(n int) logic.CQ {
	q := logic.CQ{HeadPred: "Q"}
	for i := 0; i < n; i++ {
		q.Body = append(q.Body, logic.Pos(logic.NewAtom("E",
			logic.Var(fmt.Sprintf("x%d", i)), logic.Var(fmt.Sprintf("x%d", i+1)))))
	}
	return q
}

// treeRule is the boolean query whose body lists the edges of a complete
// binary tree of the given depth.
func treeRule(depth int) logic.CQ {
	q := logic.CQ{HeadPred: "Q"}
	var rec func(node string, d int)
	rec = func(node string, d int) {
		if d == 0 {
			return
		}
		for _, side := range []string{"l", "r"} {
			child := node + side
			q.Body = append(q.Body, logic.Pos(logic.NewAtom("E", logic.Var(node), logic.Var(child))))
			rec(child, d-1)
		}
	}
	rec("t", depth)
	return q
}

func containmentChecker(q logic.UCQ, disableAcyclic bool) *containment.Checker {
	c := containment.NewChecker(q)
	c.DisableAcyclic = disableAcyclic
	return c
}

// --- E16 ----------------------------------------------------------------

func e16() {
	// Join with many repeated lookup keys: 200 R-tuples share 10 z
	// values, so the per-binding loop calls T^io 200 times but only 10
	// distinct ways. Run under the sequential runtime so the cache (not
	// the runtime's own deduplication) does the collapsing.
	q := ucqn.MustParseQuery(`Q(x, y) :- R(x, z), T(z, y).`)
	ps := ucqn.MustParsePatterns(`R^oo T^io`)
	in := ucqn.NewInstance()
	for i := 0; i < 200; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%10))
	}
	for z := 0; z < 10; z++ {
		in.MustAdd("T", fmt.Sprintf("z%d", z), fmt.Sprintf("y%d", z))
	}
	seq := ucqn.SequentialRuntime()
	fmt.Printf("%-10s %14s %14s\n", "catalog", "remote calls", "cache hits")
	plain, err := in.Catalog(ps)
	if err != nil {
		panic(err)
	}
	if _, err := seq.Answer(context.Background(), q, ps, plain); err != nil {
		panic(err)
	}
	st := plain.TotalStats()
	fmt.Printf("%-10s %14d %14s\n", "plain", st.Calls, "-")

	base, err := in.Catalog(ps)
	if err != nil {
		panic(err)
	}
	cached, caches, err := ucqn.CachedCatalog(base)
	if err != nil {
		panic(err)
	}
	if _, err := seq.Answer(context.Background(), q, ps, cached); err != nil {
		panic(err)
	}
	// The wrapped catalog reports the inner tables' real remote traffic.
	st2 := cached.TotalStats()
	hits := 0
	for _, c := range caches {
		h, _ := c.HitsMisses()
		hits += h
	}
	fmt.Printf("%-10s %14d %14d\n", "cached", st2.Calls, hits)
	fmt.Println("expected: caching collapses the 200 T lookups to 10 remote calls")
}

// --- E17 ----------------------------------------------------------------

func e17() {
	// Big(x,w) has 500 tuples, Small(x,v) has 5; both are callable
	// first. The greedy order (no statistics) starts with Big and pays
	// one Small call per Big tuple; the cost-based order starts with
	// Small.
	q := ucqn.MustParseQuery(`Q(x) :- Big(x, w), Small(x, v).`)
	ps := ucqn.MustParsePatterns(`Big^oo Big^io Small^oo Small^io`)
	in := ucqn.NewInstance()
	for i := 0; i < 500; i++ {
		in.MustAdd("Big", fmt.Sprintf("x%d", i), fmt.Sprintf("w%d", i))
	}
	for i := 0; i < 5; i++ {
		in.MustAdd("Small", fmt.Sprintf("x%d", i), fmt.Sprintf("v%d", i))
	}
	st := ucqn.StatsFromCardinalities(map[string]int{"Big": 500, "Small": 5})
	greedy, _ := ucqn.OptimizeOrder(q, ps)
	costed, _ := ucqn.CostOrder(q, ps, st)
	fmt.Printf("%-18s %-34s %8s %8s\n", "planner", "order", "calls", "tuples")
	for _, v := range []struct {
		name string
		q    ucqn.Query
	}{{"greedy", greedy}, {"cost-based", costed}} {
		cat, err := in.Catalog(ps)
		if err != nil {
			panic(err)
		}
		if _, err := ucqn.Exec(context.Background(), v.q, ps, cat); err != nil {
			panic(err)
		}
		stx := cat.TotalStats()
		fmt.Printf("%-18s %-34s %8d %8d\n", v.name, v.q.Rules[0].String()[len("Q(x) :- "):], stx.Calls, stx.TuplesReturned)
	}
	fmt.Println("expected: starting with the small relation cuts calls by ~100x")
}

// --- E18 ----------------------------------------------------------------

func e18() {
	// T supports both a keyed lookup (T^io) and a full scan (T^oo).
	// Executability is identical either way; the tuples shipped differ
	// by the relation size ("bound is easier", [Ull88]).
	q := ucqn.MustParseRule(`Q(x, y) :- R(x, z), T(z, y).`)
	ps := ucqn.MustParsePatterns(`R^oo T^io T^oo`)
	in := ucqn.NewInstance()
	for i := 0; i < 10; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i))
	}
	for i := 0; i < 1000; i++ {
		in.MustAdd("T", fmt.Sprintf("z%d", i), fmt.Sprintf("y%d", i))
	}
	fmt.Printf("%-16s %-10s %8s %10s\n", "strategy", "T pattern", "calls", "tuples")
	for _, strat := range []struct {
		name string
		s    access.AdornStrategy
	}{{"most-inputs", access.PreferMostInputs}, {"fewest-inputs", access.PreferFewestInputs}} {
		steps, ok := access.AdornInOrderPrefer(q.Body, ps, strat.s)
		if !ok {
			panic("not executable")
		}
		cat, err := in.Catalog(ps)
		if err != nil {
			panic(err)
		}
		rel, err := engine.AnswerSteps(q, steps, cat)
		if err != nil {
			panic(err)
		}
		if rel.Len() != 10 {
			panic("wrong answer count")
		}
		st := cat.TotalStats()
		fmt.Printf("%-16s %-10s %8d %10d\n", strat.name, steps[1].Pattern, st.Calls, st.TuplesReturned)
	}
	fmt.Println("expected: identical answers; the pushdown strategy ships ~50x fewer tuples (the runtime dedups the repeated scan to one fetch; per-binding it was ~1000x)")
}

// --- E19 ----------------------------------------------------------------

func e19() {
	// The source-call runtime ablation: the per-binding loop vs the
	// deduplicating concurrent runtime vs the same runtime retrying
	// injected transient failures. Answers are identical in every row;
	// only the traffic differs.
	n := 400
	if *quick {
		n = 80
	}
	q := ucqn.MustParseQuery(`Q(x, y) :- R(x, z), T(z, y).`)
	ps := ucqn.MustParsePatterns(`R^oo T^io`)
	in := ucqn.NewInstance()
	for i := 0; i < n; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%10))
	}
	for z := 0; z < 10; z++ {
		in.MustAdd("T", fmt.Sprintf("z%d", z), fmt.Sprintf("y%d", z))
	}

	catalog := func(cfg *ucqn.FlakyConfig) *ucqn.Catalog {
		base, err := in.Catalog(ps)
		if err != nil {
			panic(err)
		}
		if cfg == nil {
			return base
		}
		var wrapped []ucqn.Source
		for _, name := range base.Names() {
			wrapped = append(wrapped, ucqn.NewFlakySource(base.Source(name), *cfg))
		}
		cat, err := ucqn.NewCatalog(wrapped...)
		if err != nil {
			panic(err)
		}
		return cat
	}

	retry := ucqn.NewRuntime()
	retry.Retry = ucqn.RetryPolicy{MaxAttempts: 4}
	rows := []struct {
		name  string
		rt    *ucqn.Runtime
		flaky *ucqn.FlakyConfig
	}{
		{"sequential", ucqn.SequentialRuntime(), nil},
		{"dedup", ucqn.NewRuntime(), nil},
		{"dedup+flaky", retry, &ucqn.FlakyConfig{FailFirst: 2}},
	}
	fmt.Printf("%-14s %8s %8s %8s %8s\n", "runtime", "calls", "dedup", "retries", "answers")
	for _, row := range rows {
		cat := catalog(row.flaky)
		rel, prof, err := row.rt.AnswerProfiled(context.Background(), q, ps, cat)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-14s %8d %8d %8d %8d\n",
			row.name, prof.TotalCalls(), prof.TotalDeduped(), prof.TotalRetries(), rel.Len())
	}
	fmt.Printf("expected: dedup collapses the %d T lookups to 10 distinct calls; retries absorb the injected failures with identical answers\n", n)
}

// --- E20 ----------------------------------------------------------------

func e20() {
	// The streaming pipeline ablation: pipelined execution vs the
	// materializing evaluator over sources with a simulated network round
	// trip. Answers and source calls are identical; what changes is when
	// the first answer arrives and how many bindings sit resident.
	n := 300
	if *quick {
		n = 60
	}
	delay := 500 * time.Microsecond
	q := ucqn.MustParseQuery(`Q(x, y) :- R(x, z), S(z, w), T(w, y).`)
	ps := ucqn.MustParsePatterns(`R^oo S^io T^io`)
	in := ucqn.NewInstance()
	for i := 0; i < n; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i))
		in.MustAdd("S", fmt.Sprintf("z%d", i), fmt.Sprintf("w%d", i))
		in.MustAdd("T", fmt.Sprintf("w%d", i), fmt.Sprintf("y%d", i))
	}

	rt := ucqn.NewRuntime()
	rt.BatchSize = 16 // small batches, so streaming shows its latency edge

	fmt.Printf("%-14s %12s %12s %8s %8s %8s\n",
		"mode", "first-tuple", "total", "calls", "peak", "answers")
	for _, streamed := range []bool{false, true} {
		base, err := in.Catalog(ps)
		if err != nil {
			panic(err)
		}
		cat, err := ucqn.DelayedCatalog(base, delay)
		if err != nil {
			panic(err)
		}
		opts := []ucqn.ExecOption{ucqn.WithRuntime(rt), ucqn.WithProfile()}
		name := "materialized"
		if streamed {
			opts = append(opts, ucqn.WithStreaming())
			name = "streamed"
		}
		res, err := ucqn.Exec(context.Background(), q, ps, cat, opts...)
		if err != nil {
			panic(err)
		}
		rel, err := res.Rel()
		if err != nil {
			panic(err)
		}
		prof, ok := res.Profile()
		if !ok {
			panic("profile not available")
		}
		ttft := prof.TimeToFirst
		if ttft == 0 {
			ttft = prof.Elapsed // materialized: nothing arrives before the end
		}
		fmt.Printf("%-14s %12s %12s %8d %8d %8d\n",
			name, ttft.Round(time.Microsecond), prof.Elapsed.Round(time.Microsecond),
			prof.TotalCalls(), prof.PeakBindings(), rel.Len())
	}
	fmt.Println("expected: identical calls and answers; the pipeline's first tuple arrives well before the materialized total, with far fewer bindings resident")
}

// --- E21 ----------------------------------------------------------------

func e21() {
	// Graceful degradation. Part 1: the circuit breaker's call savings
	// when every disjunct of a union touches one dead source — bare
	// retries pay the full schedule per disjunct, the breaker opens once
	// and fails the rest fast. Part 2: the degraded answer as a runtime
	// underestimate — its size shrinks monotonically with the fraction
	// of sources killed, and the report accounts for every drop.
	deadRules := 8
	if *quick {
		deadRules = 4
	}
	src := "Q(x) :- R(x).\n"
	for i := 0; i < deadRules; i++ {
		src += fmt.Sprintf("Q(x) :- S(%q, x).\n", fmt.Sprintf("c%d", i))
	}
	q := ucqn.MustParseQuery(src)
	ps := ucqn.MustParsePatterns(`R^o S^io`)
	in := ucqn.NewInstance()
	for i := 0; i < 40; i++ {
		in.MustAdd("R", fmt.Sprintf("r%d", i))
	}
	rt := func() *ucqn.Runtime {
		rt := ucqn.NewRuntime()
		rt.Concurrency = 1
		rt.Retry = ucqn.RetryPolicy{MaxAttempts: 4}
		return rt
	}
	kill := func(useBreaker bool) (*ucqn.Catalog, *ucqn.FlakySource) {
		base, err := in.Catalog(ps)
		if err != nil {
			panic(err)
		}
		var srcs []ucqn.Source
		var flaky *ucqn.FlakySource
		for _, name := range base.Names() {
			s := base.Source(name)
			if name == "S" {
				flaky = ucqn.NewFlakySource(s, ucqn.FlakyConfig{FailEveryN: 1})
				s = flaky
				if useBreaker {
					s = ucqn.NewBreaker(flaky, ucqn.BreakerConfig{Window: 4, Threshold: 2, Cooldown: time.Hour})
				}
			}
			srcs = append(srcs, s)
		}
		cat, err := ucqn.NewCatalog(srcs...)
		if err != nil {
			panic(err)
		}
		return cat, flaky
	}

	fmt.Printf("%-14s %10s %10s %8s\n", "mode", "dead-calls", "dropped", "answers")
	for _, useBreaker := range []bool{false, true} {
		cat, flaky := kill(useBreaker)
		res, err := ucqn.Exec(context.Background(), q, ps, cat,
			ucqn.WithRuntime(rt()), ucqn.WithPartialResults())
		if err != nil {
			panic(err)
		}
		rel, err := res.Rel()
		if err != nil {
			panic(err)
		}
		inc, _ := res.Incompleteness()
		name := "bare-retries"
		if useBreaker {
			name = "breaker"
		}
		fmt.Printf("%-14s %10d %10d %8d\n", name, flaky.Injected(), len(inc.Failed), rel.Len())
	}
	fmt.Printf("expected: identical degraded answers; bare retries pay %d×4 calls to the dead source, the breaker at most its window (4)\n\n", deadRules)

	// Part 2: a wide union with one relation per disjunct; kill a growing
	// fraction of the sources and watch the certified underestimate
	// shrink while the report keeps the books.
	wide := 8
	var wsrc, wpat string
	for i := 0; i < wide; i++ {
		wsrc += fmt.Sprintf("Q(x) :- R%d(x).\n", i)
		wpat += fmt.Sprintf("R%d^o ", i)
	}
	wq := ucqn.MustParseQuery(wsrc)
	wps := ucqn.MustParsePatterns(wpat)
	win := ucqn.NewInstance()
	for i := 0; i < wide; i++ {
		for j := 0; j < 10; j++ {
			win.MustAdd(fmt.Sprintf("R%d", i), fmt.Sprintf("v%d_%d", i, j))
		}
	}
	fmt.Printf("%-8s %10s %10s %8s %8s\n", "killed", "survived", "dropped", "answers", "ratio")
	for _, frac := range []int{0, 25, 50, 75} {
		dead := map[string]bool{}
		for i := 0; i < wide*frac/100; i++ {
			dead[fmt.Sprintf("R%d", i)] = true
		}
		base, err := win.Catalog(wps)
		if err != nil {
			panic(err)
		}
		var srcs []ucqn.Source
		for _, name := range base.Names() {
			s := base.Source(name)
			if dead[name] {
				flaky := ucqn.NewFlakySource(s, ucqn.FlakyConfig{FailEveryN: 1})
				s = ucqn.NewBreaker(flaky, ucqn.BreakerConfig{Window: 4, Threshold: 2, Cooldown: time.Hour})
			}
			srcs = append(srcs, s)
		}
		cat, err := ucqn.NewCatalog(srcs...)
		if err != nil {
			panic(err)
		}
		res, err := ucqn.Exec(context.Background(), wq, wps, cat,
			ucqn.WithRuntime(rt()), ucqn.WithPartialResults())
		if err != nil {
			panic(err)
		}
		rel, err := res.Rel()
		if err != nil {
			panic(err)
		}
		inc, _ := res.Incompleteness()
		ratio, _ := inc.RuleRatio()
		fmt.Printf("%7d%% %10d %10d %8d %8.2f\n",
			frac, inc.RulesSurvived, len(inc.Failed), rel.Len(), ratio)
	}
	fmt.Println("expected: answers shrink by exactly 10 rows per killed source; survived+dropped always totals 8; ratio is the certified completeness floor")
}

func e22() {
	// Semantic query cache under a Zipf-repeated workload: the paper
	// examples' executable forms plus α-renamed and literal-padded
	// variants, requests drawn Zipf(s≈1) so ~90% repeat an earlier
	// query, sources behind a simulated round-trip latency. Three modes:
	// cache off, plan cache only (canonicalization and planning
	// amortized, answers live), and the full two-tier cache.
	delay := 200 * time.Microsecond
	factor := 10
	if *quick {
		factor = 4
	}

	// The paper-instance generator of the test suite: deterministic,
	// with enough value sharing that joins repeat keys.
	instance := func(ps *ucqn.PatternSet) *ucqn.Instance {
		in := ucqn.NewInstance()
		dom := []string{"a", "b", "c", "d"}
		for _, rel := range ps.Relations() {
			ar := ps.Arity(rel)
			for i := 0; i < 8; i++ {
				vals := make([]string, ar)
				for j := range vals {
					vals[j] = dom[(i+2*j)%len(dom)]
				}
				in.MustAdd(rel, vals...)
			}
		}
		return in
	}
	executable := func(ex workload.PaperExample) (ucqn.Query, bool) {
		if ordered, ok := ucqn.Reorder(ex.Query, ex.Patterns); ok {
			return ordered, true
		}
		under := ucqn.Plan(ex.Query, ex.Patterns).Under
		for _, r := range under.Rules {
			if !r.False {
				return under, true
			}
		}
		return ucqn.Query{}, false
	}

	type request struct {
		q  ucqn.Query
		ps *ucqn.PatternSet
		ci int
	}
	var reqs []request
	examples := 0
	for _, ex := range workload.PaperExamples() {
		u, ok := executable(ex)
		if !ok {
			continue
		}
		for _, v := range []ucqn.Query{
			u,
			workload.AlphaRename(u, "z"),
			workload.PadRedundant(u),
			workload.PadRedundant(workload.AlphaRename(u, "zp")),
		} {
			reqs = append(reqs, request{q: v, ps: ex.Patterns, ci: examples})
		}
		examples++
	}
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })

	catalogs := func() []*ucqn.Catalog {
		var cats []*ucqn.Catalog
		for _, ex := range workload.PaperExamples() {
			if _, ok := executable(ex); !ok {
				continue
			}
			base, err := instance(ex.Patterns).Catalog(ex.Patterns)
			if err != nil {
				panic(err)
			}
			cat, err := ucqn.DelayedCatalog(base, delay)
			if err != nil {
				panic(err)
			}
			cats = append(cats, cat)
		}
		return cats
	}

	zipf := rand.NewZipf(rand.New(rand.NewSource(42)), 1.01, 1, uint64(len(reqs)-1))
	seq := make([]int, factor*len(reqs))
	for i := range seq {
		seq[i] = int(zipf.Uint64())
	}

	pctl := func(lat []time.Duration, p float64) time.Duration {
		s := append([]time.Duration(nil), lat...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s[int(p*float64(len(s)-1))]
	}

	fmt.Printf("requests=%d distinct=%d equivalence classes=%d zipf s≈1 latency=%s\n", len(seq), len(reqs), examples, delay)
	fmt.Printf("%-10s %10s %10s %10s %12s %12s\n", "mode", "src-calls", "plan-hits", "ans-hits", "p50", "p99")
	for _, mode := range []string{"off", "plan-only", "full"} {
		var qc *ucqn.QueryCache
		switch mode {
		case "plan-only":
			qc = ucqn.NewQueryCache(ucqn.QueryCacheOptions{DisableAnswers: true})
		case "full":
			qc = ucqn.NewQueryCache(ucqn.QueryCacheOptions{})
		}
		cats := catalogs()
		var lat []time.Duration
		for _, idx := range seq {
			r := reqs[idx]
			var opts []ucqn.ExecOption
			if qc != nil {
				opts = append(opts, ucqn.WithQueryCache(qc))
			}
			start := time.Now()
			res, err := ucqn.Exec(context.Background(), r.q, r.ps, cats[r.ci], opts...)
			if err != nil {
				panic(err)
			}
			if _, err := res.Rel(); err != nil {
				panic(err)
			}
			lat = append(lat, time.Since(start))
		}
		calls := 0
		for _, c := range cats {
			calls += c.TotalStats().Calls
		}
		planHits, ansHits := "-", "-"
		if qc != nil {
			st := qc.Stats()
			planHits, ansHits = fmt.Sprint(st.PlanHits), fmt.Sprint(st.AnswerHits)
		}
		fmt.Printf("%-10s %10d %10s %10s %12s %12s\n", mode, calls, planHits, ansHits,
			pctl(lat, 0.50).Round(time.Microsecond), pctl(lat, 0.99).Round(time.Microsecond))
	}
	fmt.Println("expected: one plan build per equivalence class (variants collapse); the full cache cuts source calls ≥5× and p50 by orders of magnitude; plan-only already beats off (minimal representative plans)")
}

// --- E23 ----------------------------------------------------------------

// slowEveryNth delays every nth call of the wrapped source by extra,
// honoring cancellation — the intermittently slow replica of E23.
type slowEveryNth struct {
	ucqn.Source
	n     int
	extra time.Duration

	mu    sync.Mutex
	calls int
}

func (s *slowEveryNth) Call(ctx context.Context, p access.Pattern, inputs [][]string) ([][]sources.Tuple, error) {
	s.mu.Lock()
	s.calls++
	slow := s.calls%s.n == 0
	s.mu.Unlock()
	if slow {
		t := time.NewTimer(s.extra)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s.Source.Call(ctx, p, inputs)
}

func e23() {
	// Hedged requests over a three-replica source with one replica
	// intermittently slow (every 13th of its calls stalls 150ms).
	// Without hedging the slow replica owns the p99; with hedging the
	// backup attempt races past it for <5% extra calls.
	q := ucqn.MustParseQuery(`Q(y) :- R(x), S(x, z), T(z, y).`)
	ps := ucqn.MustParsePatterns(`R^o S^io T^io`)
	in := ucqn.NewInstance().
		MustAdd("R", "x0").
		MustAdd("S", "x0", "z0").
		MustAdd("T", "z0", "y0")
	base := 2 * time.Millisecond
	// Every 13th slow call of one replica puts ~2.6% of requests in the
	// tail: enough to own the p99, cheap enough that hedging stays under
	// the 5% extra-call bar. The quick run has too few requests for a
	// single slow event to sit at its p99 index, so it slows more often.
	requests, nth := 200, 13
	if *quick {
		requests, nth = 60, 7
	}

	catalog := func(slow bool) *ucqn.Catalog {
		mk := func(slowT bool) *ucqn.Catalog {
			cat, err := ucqn.DelayedCatalog(mustCatalog(in, ps), base)
			if err != nil {
				panic(err)
			}
			if !slowT {
				return cat
			}
			var srcs []ucqn.Source
			for _, name := range cat.Names() {
				src := cat.Source(name)
				if name == "T" {
					src = &slowEveryNth{Source: src, n: nth, extra: 150 * time.Millisecond}
				}
				srcs = append(srcs, src)
			}
			cat, err = ucqn.NewCatalog(srcs...)
			if err != nil {
				panic(err)
			}
			return cat
		}
		cat, _, err := ucqn.ReplicaCatalog(ucqn.ReplicaConfig{Policy: ucqn.RoundRobin{}},
			mk(false), mk(false), mk(slow))
		if err != nil {
			panic(err)
		}
		return cat
	}
	pctl := func(lat []time.Duration, p float64) time.Duration {
		s := append([]time.Duration(nil), lat...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s[int(p*float64(len(s)-1))]
	}

	fmt.Printf("replicas=3 base latency=%s slow replica: +150ms every %dth call requests=%d\n", base, nth, requests)
	fmt.Printf("%-22s %12s %12s %10s %8s %6s %12s\n", "mode", "p50", "p99", "src-calls", "hedges", "wins", "mean-latency")
	for _, mode := range []struct {
		name  string
		slow  bool
		hedge bool
	}{
		{"healthy", false, false},
		{"slow-replica", true, false},
		{"slow-replica+hedging", true, true},
	} {
		cat := catalog(mode.slow)
		rt := ucqn.NewRuntime()
		rt.Retry.BaseDelay = 0
		var opts []ucqn.ExecOption
		opts = append(opts, ucqn.WithRuntime(rt), ucqn.WithProfile())
		if mode.hedge {
			opts = append(opts, ucqn.WithHedging(ucqn.HedgePolicy{Delay: 2 * base}))
		}
		var lat []time.Duration
		calls, hedges, wins := 0, 0, 0
		for i := 0; i < requests; i++ {
			start := time.Now()
			res, err := ucqn.Exec(context.Background(), q, ps, cat, opts...)
			if err != nil {
				panic(err)
			}
			if _, err := res.Rel(); err != nil {
				panic(err)
			}
			lat = append(lat, time.Since(start))
			prof, _ := res.Profile()
			calls += prof.TotalCalls()
			hedges += prof.HedgedCalls()
			wins += prof.HedgeWins()
		}
		// Per-source latency metering (satellite of the replica runtime):
		// the catalog's aggregated stats now carry observed call latency.
		st := cat.TotalStats()
		fmt.Printf("%-22s %12s %12s %10d %8d %6d %12s\n", mode.name,
			pctl(lat, 0.50).Round(time.Microsecond), pctl(lat, 0.99).Round(time.Microsecond),
			calls, hedges, wins, st.MeanLatency().Round(time.Microsecond))
	}
	fmt.Println("expected: the slow replica drives the unhedged p99 to ≥5× healthy; hedging restores p99 to ≤2× healthy for <5% extra calls; mean source latency stays near the base round trip")
}

// --- E26 ----------------------------------------------------------------

func e26() {
	// Cold start vs warm restart through the serving layer: a server
	// opens over an empty persistence directory, serves the fixture mix
	// twice (cold pass pays the source calls; steady pass is the
	// answer-cache regime), shuts down, and a fresh server — new
	// catalogs, same directory — serves the mix again. The warm pass
	// must hit the steady-state call count: the append-only log, not
	// the sources, repopulated the cache. An artificial per-call delay
	// makes the saved round trips visible in the p50.
	delayMS := 2.0
	if *quick {
		delayMS = 1.0
	}
	dir, err := os.MkdirTemp("", "ucqn-e26-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	rep, err := server.RunWarmRestart(context.Background(), dir,
		server.WarmRestartConfig{Tenants: 3, DelayMS: delayMS})
	if err != nil {
		panic(err)
	}

	fmt.Printf("%-8s %10s %12s %12s\n", "pass", "calls", "p50", "mean")
	fmt.Printf("%-8s %10d %12s %12s\n", "cold", rep.ColdCalls, fmtMS(rep.ColdP50MS), fmtMS(rep.ColdMeanMS))
	fmt.Printf("%-8s %10d %12s %12s\n", "steady", rep.SteadyCalls, fmtMS(rep.SteadyP50MS), fmtMS(rep.SteadyMeanMS))
	fmt.Printf("%-8s %10d %12s %12s\n", "warm", rep.WarmCalls, fmtMS(rep.WarmP50MS), fmtMS(rep.WarmMeanMS))
	fmt.Printf("restart recovery: %d entries warm-loaded (%d bytes), %d dropped; sound: %v\n",
		rep.PersistLoads, rep.PersistBytes, rep.PersistDrops, rep.Sound)
	fmt.Println("expected: the warm restart matches the steady-state call count (≈0) with a mean latency orders of magnitude under cold; recovery loads every persisted entry and every answer verifies against ground truth")

	if *benchOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			panic(err)
		}
		data = append(data, '\n')
		if err := server.ValidateBenchReport(data); err != nil {
			panic(err)
		}
		if err := os.WriteFile(*benchOut, data, 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("wrote %s\n", *benchOut)
	}
}

// --- E27 ----------------------------------------------------------------

func e27() {
	// Batched pushdown through the SQL adapter: a fan-out join drives a
	// deduplicated binding group into a SQL-backed relation, once with
	// the adapter's batching property masked (one statement per
	// binding) and once with it live (one IN statement per chunk). The
	// backend's own query counter is the round-trip ground truth, and an
	// injected per-statement latency makes the saving visible in the
	// percentiles — as it would be on a real network.
	cfg := server.BatchPushdownConfig{Bindings: 256, Fanout: 4, Iters: 7, LatencyMS: 1}
	if *quick {
		cfg.Iters = 2
	}
	rep, err := server.RunBatchPushdown(context.Background(), cfg)
	if err != nil {
		panic(err)
	}

	fmt.Printf("%-9s %8s %12s %14s %12s %12s\n", "mode", "calls", "round trips", "bytes on wire", "p50", "p99")
	fmt.Printf("%-9s %8d %12d %14d %12s %12s\n", "per-call",
		rep.PerCall.Calls, rep.PerCall.RoundTrips, rep.PerCall.BytesOnWire, fmtMS(rep.PerCall.P50MS), fmtMS(rep.PerCall.P99MS))
	fmt.Printf("%-9s %8d %12d %14d %12s %12s\n", "batched",
		rep.Batched.Calls, rep.Batched.RoundTrips, rep.Batched.BytesOnWire, fmtMS(rep.Batched.P50MS), fmtMS(rep.Batched.P99MS))
	fmt.Printf("bindings: %d  answers: %d  round-trip ratio: %.0fx  equal answers: %v\n",
		rep.Bindings, rep.Answers, rep.RoundTripRatio, rep.EqualAnswers)
	fmt.Println("expected: the batched mode services the whole binding group in a handful of IN statements (≥10x fewer round trips), moves fewer wire bytes, and returns byte-identical answers")

	if *benchOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			panic(err)
		}
		data = append(data, '\n')
		if err := server.ValidateBenchReport(data); err != nil {
			panic(err)
		}
		if err := os.WriteFile(*benchOut, data, 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("wrote %s\n", *benchOut)
	}
}

// --- E28 ----------------------------------------------------------------

func e28() {
	// Cache-fleet sharing: replica A (the writer) opens over an empty
	// shared directory and serves the fixture mix twice (cold, then
	// steady); replica B joins the live fleet as a reader, refreshes
	// once, and serves the mix at A's steady-state source-call count —
	// the shared directory, not B's sources, pays for the pass. Then an
	// invalidation issued on B (through its durable inbox, not the
	// log) must re-derive the tenant on BOTH replicas.
	delayMS := 2.0
	if *quick {
		delayMS = 1.0
	}
	dir, err := os.MkdirTemp("", "ucqn-e28-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	rep, err := server.RunFleetShare(context.Background(), dir,
		server.FleetShareConfig{Tenants: 3, DelayMS: delayMS})
	if err != nil {
		panic(err)
	}

	fmt.Printf("%-10s %10s %12s %12s\n", "pass", "calls", "p50", "mean")
	fmt.Printf("%-10s %10d %12s %12s\n", "A cold", rep.ColdCalls, fmtMS(rep.ColdP50MS), fmtMS(rep.ColdMeanMS))
	fmt.Printf("%-10s %10d %12s %12s\n", "A steady", rep.SteadyCalls, fmtMS(rep.SteadyP50MS), fmtMS(rep.SteadyMeanMS))
	fmt.Printf("%-10s %10d %12s %12s\n", "B warm", rep.WarmCalls, fmtMS(rep.WarmP50MS), fmtMS(rep.WarmMeanMS))
	fmt.Printf("roles: A=%s B=%s  reader-issued invalidation gen %d re-derived: B paid %d calls, A paid %d; sound: %v\n",
		rep.RoleA, rep.RoleB, rep.InvalidationGen,
		rep.PostInvalidationCallsB, rep.PostInvalidationCallsA, rep.Sound)
	fmt.Println("expected: replica B's warm pass matches A's steady-state call count (≈0) — the fleet directory serviced it — and the fleet-wide invalidation forces both replicas back to the sources for exactly the killed tenant")

	if *benchOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			panic(err)
		}
		data = append(data, '\n')
		if err := server.ValidateBenchReport(data); err != nil {
			panic(err)
		}
		if err := os.WriteFile(*benchOut, data, 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("wrote %s\n", *benchOut)
	}
}

// fmtMS renders a millisecond float at a readable precision.
func fmtMS(ms float64) string {
	return time.Duration(ms * float64(time.Millisecond)).Round(time.Microsecond).String()
}

// mustCatalog builds a catalog or panics (paperbench helper).
func mustCatalog(in *ucqn.Instance, ps *ucqn.PatternSet) *ucqn.Catalog {
	cat, err := in.Catalog(ps)
	if err != nil {
		panic(err)
	}
	return cat
}
