// Command paperbench regenerates the experiments of DESIGN.md: the
// reproduction of the algorithms, worked examples, and complexity
// claims of Nash & Ludäscher (EDBT 2004), E1–E23, and the cache-fleet
// experiment E28 (E24 is the serving harness, cmd/ucqnload, E25 a
// benchmark beside its oracle, internal/engine, and E26/E27 are the
// bench/ workloads churn_persist and remote_batch).
//
// Each experiment is declared once, as an entry of registry: its id
// and title, its full and -quick sizes, the operations it times, the
// table it prints, and a check over its deterministic counts.
// paperbench prints every table and exits 1 when a check fails;
// paperbench_test.go drives the same entries as the BenchmarkPaper
// sub-benchmarks and pins their quick counts in TestPaperCounts.
// EXPERIMENTS.md records the expected shapes.
//
// Usage:
//
//	paperbench [-run E3] [-quick]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	ucqn "repro"
	"repro/internal/access"
	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lichang"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/sources"
	"repro/internal/workload"
)

var benchOut = flag.String("bench-out", "", "write the bench report of the experiment being run (E28, with -run) to this path")

func main() {
	only := flag.String("run", "", "run only this experiment id (e.g. E3); default all")
	quick := flag.Bool("quick", false, "smaller sizes for a fast smoke run")
	flag.Parse()

	found, failed := false, false
	for _, e := range registry {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		found = true
		fmt.Printf("== %s: %s ==\n", e.id, e.title)
		if _, _, _, err := e.run(os.Stdout, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", e.id, err)
			failed = true
		}
		fmt.Println()
	}
	if !found {
		fmt.Fprintf(os.Stderr, "paperbench: unknown experiment %q\n", *only)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// experiment is one registry entry.
type experiment struct {
	id, title string
	// full and quick are the sizes of a full and a -quick run: chain
	// lengths, trials, requests — what a number means is the
	// experiment's own.
	full, quick []int
	// setup builds the experiment at the given sizes: the operations it
	// times (BenchmarkPaper loops over each, and a timing table times the
	// same ones; none means the table itself) and the table it prints.
	setup func(sz []int) ([]op, table)
	// check is the experiment's claim over its counts, at any size (see
	// counts.holds).
	check []string
	// timing is the wall-clock side of the claim, over the counts and
	// the times in nanoseconds. Only the benchmarks assert it: a loaded
	// machine must not fail paperbench.
	timing []string
}

// table prints an experiment's table and returns what it measured.
type table func(w io.Writer) (counts, times)

// op is one timed operation, its setup already done.
type op struct {
	name string
	fn   func()
}

// counts are the deterministic numbers a run measured — source calls,
// tuples, answers, verdicts, cache hits — by name. They depend on the
// sizes, never on the machine.
type counts map[string]int

// String lists the counts as name=value in name order.
func (c counts) String() string {
	var kv []string
	for k, v := range c {
		kv = append(kv, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(kv)
	return strings.Join(kv, " ")
}

// holds returns an error naming each claim that fails over c. A claim
// is "lhs op rhs" with op one of == < <= > >=, each side a sum of terms
// ("a + b"), and each term a count or an integer, optionally scaled
// ("4*rules"). A claim naming no count panics.
func (c counts) holds(claims []string) error {
	var errs []error
	for _, claim := range claims {
		f := strings.Fields(claim)
		i := slices.IndexFunc(f, func(s string) bool { return strings.Trim(s, "<=>") == "" })
		l, r := c.sum(f[:i]), c.sum(f[i+1:])
		if !map[string]bool{"==": l == r, "<": l < r, "<=": l <= r, ">": l > r, ">=": l >= r}[f[i]] {
			errs = append(errs, fmt.Errorf("want %s: got %d vs %d", claim, l, r))
		}
	}
	return errors.Join(errs...)
}

// sum adds up one side of a claim.
func (c counts) sum(terms []string) int {
	n := 0
	for _, t := range terms {
		if t == "+" {
			continue
		}
		k, name, scaled := strings.Cut(t, "*")
		if !scaled {
			k, name = "1", t
		}
		v, err := strconv.Atoi(name)
		if err != nil {
			var ok bool
			if v, ok = c[name]; !ok {
				panic(fmt.Sprintf("a claim names %q, which is no count", name))
			}
		}
		scale, _ := strconv.Atoi(k)
		n += scale * v
	}
	return n
}

// times are the wall-clock numbers a run measured, by name.
type times map[string]time.Duration

// run sets e up at its full or quick sizes, prints its table into w
// and checks its counts. A step that fails panics (see must); run
// reports that as the experiment's error.
func (e experiment) run(w io.Writer, quick bool) (ops []op, c counts, t times, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	sz := e.full
	if quick {
		sz = e.quick
	}
	ops, tab := e.setup(sz)
	if ops == nil {
		ops = []op{{"table", func() { tab(io.Discard) }}}
	}
	c, t = tab(w)
	return ops, c, t, c.holds(e.check)
}

var registry = []experiment{
	{id: "E1", title: "ANSWERABLE: outputs and quadratic scaling (Fig. 1, Prop. 2)",
		full: []int{16, 32, 64, 128, 256}, quick: []int{8, 16, 32}, setup: e1,
		check: []string{"ex1.literals == 3", "ex9.literals == 3"}}, // Example 9 drops B(y)
	{id: "E2", title: "PLAN*: under/overestimates and scaling (Fig. 2, Ex. 4)",
		full: []int{16, 32, 64, 128, 256}, quick: []int{8, 16, 32}, setup: e2,
		check: []string{"under.rules == 1", "over.null == 1"}},
	{id: "E3", title: "FEASIBLE: cheap certificates vs Π₂ᴾ containment (Fig. 3, Thm. 18)",
		full: []int{2, 4, 6, 8, 10}, quick: []int{2, 4, 6}, setup: e3,
		check: []string{"wrong-verdicts == 0", "easy.nodes == 0"}},
	{id: "E4", title: "ANSWER*: runtime completeness of infeasible plans (Fig. 4, Ex. 5)",
		full: []int{200}, quick: []int{50}, setup: e4,
		check: []string{"fk.complete > random.complete", "fk.delta == 0"}},
	{id: "E5", title: "paper examples classification (Ex. 1, 3, 4, 9, 10)", setup: e5,
		check: []string{"example-1.orderable + example-1.feasible == 2", "example-4.feasible == 0",
			"example-3.feasible + example-9.feasible + example-10.feasible == 3",
			"example-3.orderable + example-9.orderable + example-10.orderable == 0"}},
	{id: "E6", title: "minimality of ans(Q) (Thm. 16, Prop. 4, Cor. 17)",
		full: []int{300}, quick: []int{60}, setup: e6,
		check: []string{"engaged > 0", "prop4 == engaged", "thm16 == engaged"}},
	{id: "E7", title: "FEASIBLE vs Li–Chang baselines (Sec. 5.3–5.4, Ex. 9–10)",
		full: []int{200}, quick: []int{40}, setup: e7, check: []string{"disagreements == 0"}},
	{id: "E8", title: "foreign keys make infeasible plans runtime-complete (Ex. 6)",
		full: []int{150}, quick: []int{30}, setup: e8,
		check: []string{"violations-0.complete == trials", "violations-1.complete + violations-2.complete + violations-4.complete == 0"}},
	{id: "E9", title: "satisfiability check scaling (Prop. 8)",
		full: []int{64, 128, 256, 512}, quick: []int{32, 64}, setup: e9, check: []string{"satisfiable == 0"}},
	{id: "E10", title: "containment ↔ feasibility reductions (Thm. 18, Prop. 20)",
		full: []int{150}, quick: []int{30}, setup: e10,
		check: []string{"thm18.agree == thm18.total", "prop20.agree == prop20.total"}},
	{id: "E11", title: "estimate ladder: under ≤ under+dom ≤ exact ≤ over (Ex. 8)",
		full: []int{150}, quick: []int{30}, setup: e11,
		check: []string{"ladder == trials", "improve.calls >= dom.calls"}},
	{id: "E12", title: "web-service composition: source call accounting (Sec. 1)",
		full: []int{2, 4, 8, 16}, quick: []int{2, 4}, setup: e12,
		// R1 is scanned once; R2…Rn and ¬S are called once per x-value.
		check: []string{"fanout-2.calls == 81", "fanout-4.calls == 161"}},
	{id: "E13", title: "semantic optimizer under inclusion dependencies (Ex. 6, Sec. 6)", setup: e13,
		check: []string{"before.feasible == 0", "after.feasible == 1", "chased.rules < direct.rules", "chain.feasible-under == 1"}},
	{id: "E14", title: "ablation: ANSWERABLE order vs call-minimizing order", setup: e14,
		check: []string{"optimized.calls < answerable.calls"}},
	{id: "E15", title: "ablation: acyclic containment fast path (CR97, Sec. 5.1)",
		full: []int{6, 8, 10, 12}, quick: []int{6, 8}, setup: e15, check: []string{"contained == 0"}},
	{id: "E16", title: "ablation: source-call caching", setup: e16,
		check: []string{"cached.calls < plain.calls", "cached.hits > 0"}},
	{id: "E17", title: "ablation: greedy vs cost-based join order", setup: e17,
		check: []string{"cost-based.calls < greedy.calls"}},
	{id: "E18", title: "ablation: adornment strategy (selection pushdown)", setup: e18,
		check: []string{"most-inputs.answers == 10", "fewest-inputs.answers == 10", "most-inputs.tuples < fewest-inputs.tuples"}},
	{id: "E19", title: "ablation: source-call runtime (dedup, concurrency, retries)",
		full: []int{400}, quick: []int{80}, setup: e19,
		check: []string{"dedup.calls < sequential.calls", "differ == 0", "dedup+flaky.retries > 0"}},
	{id: "E20", title: "streaming pipeline: time-to-first-tuple vs materialized",
		full: []int{300}, quick: []int{60}, setup: e20,
		check:  []string{"identical == 1", "streamed.calls <= materialized.calls"},
		timing: []string{"streamed.first < materialized.total"}},
	{id: "E21", title: "graceful degradation: breaker savings and underestimate size",
		full: []int{8}, quick: []int{4}, setup: e21,
		check: []string{"strict.failed == 1", "bare-retries.healthy + breaker.healthy == 2", "breaker.failed-S == 1",
			"breaker.dead-calls <= 4", "breaker.open == 1", "bare-retries.dead-calls >= 4*rules",
			"killed-0.survived + killed-0.dropped == 8", "killed-0.answers == 10*killed-0.survived",
			"killed-25.survived + killed-25.dropped == 8", "killed-25.answers == 10*killed-25.survived",
			"killed-50.survived + killed-50.dropped == 8", "killed-50.answers == 10*killed-50.survived",
			"killed-75.survived + killed-75.dropped == 8", "killed-75.answers == 10*killed-75.survived"}},
	{id: "E22", title: "semantic query cache: Zipf repeated workload",
		full: []int{10}, quick: []int{4}, setup: e22,
		check: []string{"diverged == 0", "5*full.calls <= off.calls", "full.plan-misses == classes",
			"full.plan-hits + classes == requests", "plan-only.answer-hits == 0", "plan-only.plan-hits > 0"},
		timing: []string{"full.p50 < off.p50"}},
	{id: "E23", title: "hedged requests: tail latency with a slow replica",
		full: []int{200, 13}, quick: []int{60, 7}, setup: e23, check: []string{"wrong == 0"},
		// Hedges stay under 5% of the primary calls: 20h < calls − h.
		timing: []string{"slow-replica.p99 >= 5*healthy.p99", "slow-replica+hedging.p99 <= 2*healthy.p99",
			"21*slow-replica+hedging.hedges < slow-replica+hedging.calls"}},
	{id: "E28", title: "cache fleet: sibling warm start and fleet-wide invalidation",
		full: []int{2}, quick: []int{1}, setup: e28,
		check: []string{"sound == 1", "warm.calls == steady.calls", "invalidated.a > 0", "invalidated.b > 0"}},
}

// b2i counts a verdict.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// must returns v, or panics with err: a setup step that fails fails the
// experiment, and run reports the panic as its error.
func must[T any](v T, err error) T {
	noErr(err)
	return v
}

func noErr(err error) {
	if err != nil {
		panic(err)
	}
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

// sized returns one op per size n, named by format, running what
// build(n) returns.
func sized(format string, sz []int, build func(n int) func()) []op {
	var ops []op
	for _, n := range sz {
		ops = append(ops, op{fmt.Sprintf(format, n), build(n)})
	}
	return ops
}

// ratios prints one row per size: its op's ns/op and the ratio to the
// previous size's (the scaling tables of E1, E2 and E9).
func ratios(w io.Writer, sz []int, ops []op) {
	fmt.Fprintf(w, "%8s %14s %10s\n", "n", "ns/op", "ratio")
	var prev float64
	for i, o := range ops {
		t := timeIt(o.fn)
		ratio := 0.0
		if prev > 0 {
			ratio = t / prev
		}
		fmt.Fprintf(w, "%8d %14.0f %10.2f\n", sz[i], t, ratio)
		prev = t
	}
}

// pctl returns the p-quantile of the latency sample.
func pctl(lat []time.Duration, p float64) time.Duration {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(p*float64(len(s)-1))]
}

// wrap rebuilds cat with every source passed through fn.
func wrap(cat *ucqn.Catalog, fn func(name string, src ucqn.Source) ucqn.Source) *ucqn.Catalog {
	var srcs []ucqn.Source
	for _, name := range cat.Names() {
		srcs = append(srcs, fn(name, cat.Source(name)))
	}
	return must(ucqn.NewCatalog(srcs...))
}

// exec runs q through Exec and materializes its answer.
func exec(q ucqn.Query, ps *ucqn.PatternSet, cat *ucqn.Catalog, opts ...ucqn.ExecOption) (*ucqn.Rel, *ucqn.Result) {
	res := must(ucqn.Exec(context.Background(), q, ps, cat, opts...))
	return must(res.Rel()), res
}

// --- The planning experiments: ANSWERABLE, PLAN*, FEASIBLE and the
// containment machinery under them. ---

func e1(sz []int) ([]op, table) {
	ops := sized("chain-%d", sz, func(n int) func() {
		q, ps := workload.ChainQuery(n)
		rev := workload.Reversed(q)
		return func() { core.AnswerablePart(rev, ps) }
	})
	return ops, func(w io.Writer) (counts, times) {
		// Part 1: the paper's ans(Q) outputs.
		a1 := core.AnswerablePart(ucqn.MustParseRule(`Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).`),
			ucqn.MustParsePatterns(`B^ioo B^oio C^oo L^o`))
		fmt.Fprintf(w, "ans(Example 1) = %s\n", a1)
		a9 := core.AnswerablePart(ucqn.MustParseRule(`Q(x) :- F(x), B(x), B(y), F(z).`), ucqn.MustParsePatterns(`F^o B^i`))
		fmt.Fprintf(w, "ans(Example 9) = %s\n", a9)

		// Part 2: quadratic scaling on reversed chains.
		ratios(w, sz, ops)
		fmt.Fprintln(w, "expected: ratio ≈ 4 per doubling (quadratic, Prop. 2)")
		return counts{"ex1.literals": len(a1.Body), "ex9.literals": len(a9.Body)}, nil
	}
}

func e2(sz []int) ([]op, table) {
	ops := sized("chain-%d", sz, func(n int) func() {
		q, ps := workload.ChainQuery(n)
		rev := logic.AsUnion(workload.Reversed(q))
		return func() { core.ComputePlans(rev, ps) }
	})
	return ops, func(w io.Writer) (counts, times) {
		u, ps, _ := example4()
		plan := ucqn.Plan(u, ps)
		fmt.Fprintf(w, "%s\n\n", plan)
		ratios(w, sz, ops)
		fmt.Fprintln(w, "expected: ratio ≈ 4 per doubling (PLAN* is quadratic)")
		return counts{"under.rules": len(plan.Under.DropFalseRules().Rules), "over.null": b2i(plan.Over.HasNull())}, nil
	}
}

func e3(sz []int) ([]op, table) {
	feasible := func(u logic.UCQ, ps *access.Set) func() { return func() { core.Feasible(u, ps) } }
	hard := sized("hard-%d", sz, func(n int) func() { return feasible(workload.CaseSplitFamily(n)) })
	easy := sized("easy-%d", sz, func(n int) func() { return feasible(workload.EasyFamily(n)) })
	return append(hard, easy...), func(w io.Writer) (counts, times) {
		c := counts{}
		fmt.Fprintf(w, "%8s %12s %14s %12s %14s\n", "n", "hard nodes", "hard ns/op", "easy nodes", "easy ns/op")
		for i, n := range sz {
			h, e := core.Feasible(workload.CaseSplitFamily(n)), core.Feasible(workload.EasyFamily(n))
			c["wrong-verdicts"] += b2i(!h.Feasible || h.Verdict != core.VerdictContainment)
			c["wrong-verdicts"] += b2i(!e.Feasible || e.Verdict != core.VerdictUnderEqualsOver)
			c[fmt.Sprintf("hard-%d.nodes", n)] = h.Nodes
			c["easy.nodes"] += e.Nodes
			fmt.Fprintf(w, "%8d %12d %14.0f %12d %14.0f\n", n, h.Nodes, timeIt(hard[i].fn), e.Nodes, timeIt(easy[i].fn))
		}
		fmt.Fprintln(w, "expected: hard nodes grow superlinearly with n; easy stays flat (fast certificate)")
		return c, nil
	}
}

func e5([]int) ([]op, table) {
	return nil, func(w io.Writer) (counts, times) {
		c := counts{}
		fmt.Fprintf(w, "%-12s %-11s %-10s %-9s %s\n", "example", "executable", "orderable", "feasible", "verdict")
		for _, ex := range workload.PaperExamples() {
			res := ucqn.Feasible(ex.Query, ex.Patterns)
			exe, ord := ucqn.Executable(ex.Query, ex.Patterns), ucqn.Orderable(ex.Query, ex.Patterns)
			fmt.Fprintf(w, "%-12s %-11v %-10v %-9v %s\n", ex.Name, exe, ord, res.Feasible, res.Verdict)
			c[ex.Name+".executable"], c[ex.Name+".orderable"], c[ex.Name+".feasible"] = b2i(exe), b2i(ord), b2i(res.Feasible)
		}
		fmt.Fprintln(w, "expected: matches the paper's prose (Ex. 1 orderable; Ex. 3/9/10 feasible-not-orderable; Ex. 4 infeasible)")
		return c, nil
	}
}

func e6(sz []int) ([]op, table) {
	return nil, func(w io.Writer) (counts, times) {
		g := workload.New(7)
		s := g.Schema(4, 1, 2)
		ps := g.Patterns(s, 0.5, 2)
		cfg := workload.QueryConfig{PosLits: 3, NegLits: 1, VarPool: 4, ConstProb: 0.1, HeadVars: 1, DomainSize: 5}
		c := counts{}
		for i := 0; i < sz[0]; i++ {
			// An executable E and a Q ⊑ E; a draw that is not orderable,
			// or whose ans(Q) carries a null, does not engage.
			ordered, ok := core.ReorderUCQ(g.UCQ(s, 2, cfg), ps)
			if !ok {
				continue
			}
			q := logic.UCQ{Rules: []logic.CQ{ordered.Rules[0].Clone()}}
			q.Rules[0].Body = append(q.Rules[0].Body, g.CQ(s, cfg).Body...)
			a := core.AnswerableUCQ(q, ps).DropFalseRules()
			if a.HasNull() {
				continue
			}
			c["engaged"]++
			c["prop4"] += b2i(ucqn.Contained(q, a))
			c["thm16"] += b2i(ucqn.Contained(a, ordered))
		}
		fmt.Fprintf(w, "cases engaged:              %d\n", c["engaged"])
		fmt.Fprintf(w, "Prop. 4  (Q ⊑ ans(Q)):      %d/%d\n", c["prop4"], c["engaged"])
		fmt.Fprintf(w, "Thm. 16  (ans(Q) ⊑ E):      %d/%d\n", c["thm16"], c["engaged"])
		fmt.Fprintln(w, "expected: both properties hold in every engaged case")
		return c, nil
	}
}

func e7(sz []int) ([]op, table) {
	g := workload.New(13)
	s := g.Schema(4, 1, 2)
	ps := g.Patterns(s, 0.55, 2)
	cfg := workload.QueryConfig{PosLits: 4, NegLits: 0, VarPool: 4, ConstProb: 0.1, HeadVars: 1, DomainSize: 5}
	queries := make([]logic.UCQ, sz[0])
	for i := range queries {
		queries[i] = g.UCQ(s, 3, cfg)
	}
	deciders := []struct {
		name string
		fn   func(logic.UCQ) bool
	}{
		{"FEASIBLE", func(u logic.UCQ) bool { return core.Feasible(u, ps).Feasible }},
		{"UCQstable", func(u logic.UCQ) bool { v, _ := lichang.UCQStable(u, ps); return v }},
		{"UCQstable*", func(u logic.UCQ) bool { v, _ := lichang.UCQStableStar(u, ps); return v }},
	}
	return nil, func(w io.Writer) (counts, times) {
		c := counts{"queries": len(queries)}
		var feasible []bool // FEASIBLE's verdicts, which the baselines must match
		fmt.Fprintf(w, "%-12s %14s\n", "algorithm", "ns/query")
		for _, d := range deciders {
			start := time.Now()
			for i, u := range queries {
				if v := d.fn(u); len(feasible) < len(queries) {
					feasible = append(feasible, v)
					c["feasible"] += b2i(v)
				} else {
					c["disagreements"] += b2i(v != feasible[i])
				}
			}
			fmt.Fprintf(w, "%-12s %14.0f\n", d.name, float64(time.Since(start).Nanoseconds())/float64(len(queries)))
		}
		fmt.Fprintf(w, "queries: %d (feasible: %d)   disagreements: %d\n", c["queries"], c["feasible"], c["disagreements"])
		fmt.Fprintln(w, "expected: zero disagreements; UCQstable pays for minimization, UCQstable* and FEASIBLE are close")
		return c, nil
	}
}

func e9(sz []int) ([]op, table) {
	// A chain closed by the complement of its first literal, so the
	// satisfiability scan runs its full length.
	query := func(n int) logic.UCQ {
		q, _ := workload.ChainQuery(n)
		q.Body = append(q.Body, logic.Neg(q.Body[0].Atom))
		return logic.AsUnion(q)
	}
	ops := sized("lits-%d", sz, func(n int) func() { u := query(n); return func() { ucqn.Satisfiable(u) } })
	return ops, func(w io.Writer) (counts, times) {
		c := counts{"satisfiable": 0}
		for _, n := range sz {
			c["satisfiable"] += b2i(ucqn.Satisfiable(query(n)))
		}
		ratios(w, sz, ops)
		fmt.Fprintln(w, "expected: ratio ≈ 2 per doubling (near-linear with hashing; the paper states quadratic as an upper bound)")
		return c, nil
	}
}

func e10(sz []int) ([]op, table) {
	return nil, func(w io.Writer) (counts, times) {
		g := workload.New(31)
		s := g.Schema(4, 1, 2)
		cfg := workload.QueryConfig{PosLits: 3, NegLits: 0, VarPool: 4, ConstProb: 0.1, HeadVars: 1, DomainSize: 5}
		c := counts{}
		// Each trial asks containment once per reduction; a draw the
		// reduction or the search budget refuses is not counted.
		for i := 0; i < sz[0]; i++ {
			p, q := g.UCQ(s, 2, cfg), g.UCQ(s, 2, cfg)
			want := ucqn.Contained(p, q)
			red, rps, err := ucqn.ReduceContToFeasible(p, q)
			if err != nil {
				continue
			}
			res, err := ucqn.FeasibleLimited(red, rps, 500_000)
			if err != nil {
				continue
			}
			c["thm18.total"]++
			c["thm18.agree"] += b2i(res.Feasible == want)

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
			c["prop20.total"]++
			c["prop20.agree"] += b2i(resC.Feasible == wantC)
		}
		fmt.Fprintf(w, "Thm. 18  CONT(UCQ¬) → FEASIBLE(UCQ¬):  %d/%d agree\n", c["thm18.agree"], c["thm18.total"])
		fmt.Fprintf(w, "Prop. 20 CONT(CQ¬)  → FEASIBLE(CQ¬):   %d/%d agree\n", c["prop20.agree"], c["prop20.total"])
		fmt.Fprintln(w, "expected: full agreement (the reductions are exact)")
		return c, nil
	}
}

func e13([]int) ([]op, table) {
	u, ps, _ := example4()
	inds := ucqn.MustParseINDs(`R[1] < S[0]`)
	// The chase-based optimizer additionally follows dependency chains
	// R ⊆ S ⊆ T that the direct literal match cannot see.
	chain := ucqn.MustParseINDs(`R[1] < S[0]; S[0] < T[0]`)
	u2 := ucqn.MustParseQuery(`
		Q(x, y) :- not T(z), R(x, z), B(x, y).
		Q(x, y) :- W(x, y).
	`)
	ps2 := ucqn.MustParsePatterns(`T^o R^oo B^oi W^oo S^o`)
	return nil, func(w io.Writer) (counts, times) {
		before := ucqn.Feasible(u, ps)
		opt := inds.Optimize(u)
		after := ucqn.Feasible(opt, ps)
		fmt.Fprintf(w, "%-28s rules=%d feasible=%v (%s)\n", "without constraints:", len(u.Rules), before.Feasible, before.Verdict)
		fmt.Fprintf(w, "%-28s rules=%d feasible=%v (%s)\n", "with R[1] ⊆ S[0]:", len(opt.Rules), after.Feasible, after.Verdict)
		direct, chased := chain.Optimize(u2), chain.OptimizeChase(u2)
		under := ucqn.FeasibleUnder(u2, ps2, chain).Feasible
		fmt.Fprintf(w, "%-28s direct optimizer keeps %d rules; chase keeps %d; FeasibleUnder=%v\n",
			"chain R ⊆ S ⊆ T:", len(direct.Rules), len(chased.Rules), under)
		fmt.Fprintln(w, "expected: the dependency refutes the dismissed rule at compile time; only the chase sees the two-step chain")
		return counts{
			"before.rules": len(u.Rules), "before.feasible": b2i(before.Feasible),
			"after.rules": len(opt.Rules), "after.feasible": b2i(after.Feasible),
			"direct.rules": len(direct.Rules), "chased.rules": len(chased.Rules), "chain.feasible-under": b2i(under),
		}, nil
	}
}

// e15 times one containment test with and without the acyclic fast
// path per depth. The family is adversarial for backtracking: is a
// boolean chain of length d+1 contained in a complete binary tree of
// depth d? It is not (every downward path is too short), but naive
// backtracking discovers this only after exploring every partial
// root-to-leaf embedding (≈2^d dead ends). The semijoin program over
// the chain's join tree decides in polynomial time. (On easy instances
// the fast path has constant overhead; this family is where it pays.)
func e15(sz []int) ([]op, table) {
	contains := func(disableAcyclic bool) func(d int) func() {
		return func(d int) func() {
			p, q := treeRule(d), logic.AsUnion(chainRule(d+1))
			return func() { containmentChecker(q, disableAcyclic).Contains(p) }
		}
	}
	fast, slow := sized("fast-depth-%d", sz, contains(false)), sized("slow-depth-%d", sz, contains(true))
	return append(fast, slow...), func(w io.Writer) (counts, times) {
		c := counts{"contained": 0}
		fmt.Fprintf(w, "%8s %16s %16s %10s\n", "depth", "fast ns/op", "slow ns/op", "speedup")
		for i, d := range sz {
			c["contained"] += b2i(containmentChecker(logic.AsUnion(chainRule(d+1)), false).Contains(treeRule(d)))
			f, s := timeIt(fast[i].fn), timeIt(slow[i].fn)
			fmt.Fprintf(w, "%8d %16.0f %16.0f %9.1fx\n", d, f, s, s/f)
		}
		fmt.Fprintln(w, "expected: speedup grows exponentially with depth (backtracking explores every partial embedding)")
		return c, nil
	}
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

// --- The execution experiments: ANSWER*, the estimate ladder, and
// plans measured in source calls and tuples. ---

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
// run's source traffic to the counts key+"calls" and key+"tuples".
func answerStar(u logic.UCQ, ps *access.Set, in *engine.Instance, c counts, key string) (engine.AnswerStar, *sources.Catalog) {
	cat := in.MustCatalog(ps)
	res := must(engine.RunAnswerStar(u, ps, cat))
	c[key+"calls"] += cat.TotalStats().Calls
	c[key+"tuples"] += cat.TotalStats().TuplesReturned
	return res, cat
}

// load returns an instance holding facts.
func load(facts []parser.Fact) *engine.Instance {
	in := engine.NewInstance()
	noErr(in.LoadFacts(facts))
	return in
}

func e4(sz []int) ([]op, table) {
	u, ps, s := example4()
	// The two instance families: random, and random with the inclusion
	// R.z ⊆ S.z planted (Example 6).
	families := []struct {
		key, name string
		fk        bool
	}{{"random", "random", false}, {"fk", "R.z ⊆ S.z (Ex. 6)", true}}
	return nil, func(w io.Writer) (counts, times) {
		trials := sz[0]
		c := counts{"trials": trials}
		fmt.Fprintf(w, "%24s %10s %12s %12s %8s %8s\n", "instance family", "complete", "avg |ans_u|", "avg |Δ|", "calls", "tuples")
		for _, fam := range families {
			g := workload.New(42)
			for i := 0; i < trials; i++ {
				// The FK family draws a random instance first and discards it,
				// so its instances are the ones E4 has always reported.
				facts := g.Facts(s, 6, 8)
				if fam.fk {
					facts = g.FactsWithInclusion(s, 6, 8, "R", 1, "S", 0)
				}
				res, _ := answerStar(u, ps, load(facts), c, fam.key+".")
				c[fam.key+".complete"] += b2i(res.Complete)
				c[fam.key+".under"] += res.Under.Len()
				c[fam.key+".delta"] += res.Delta.Len()
			}
			fmt.Fprintf(w, "%24s %9.0f%% %12.2f %12.2f %8d %8d\n", fam.name,
				100*float64(c[fam.key+".complete"])/float64(trials),
				float64(c[fam.key+".under"])/float64(trials), float64(c[fam.key+".delta"])/float64(trials),
				c[fam.key+".calls"], c[fam.key+".tuples"])
		}
		fmt.Fprintln(w, "expected: the FK family reports complete answers far more often, despite the query being infeasible; calls and tuples (summed over the trials) are those of the overestimate plan alone")
		return c, nil
	}
}

func e8(sz []int) ([]op, table) {
	u, ps, _ := example4()
	// Example 4's instance with S covering the base domain, R
	// referencing it, plus extra dangling R tuples: what fraction of R
	// violates the FK determines how often completeness is detected.
	instance := func(extra int) *engine.Instance {
		in := engine.NewInstance()
		for d := 0; d < 6; d++ {
			in.MustAdd("S", fmt.Sprintf("z%d", d))
			in.MustAdd("R", fmt.Sprintf("x%d", d), fmt.Sprintf("z%d", d))
		}
		for e := 0; e < extra; e++ {
			in.MustAdd("R", fmt.Sprintf("xx%d", e), fmt.Sprintf("dangling%d", e))
		}
		return in.MustAdd("B", "x0", "y0").MustAdd("T", "t1", "t2")
	}
	return nil, func(w io.Writer) (counts, times) {
		trials := sz[0]
		c := counts{"trials": trials}
		fmt.Fprintf(w, "%14s %12s %8s %8s\n", "FK violations", "complete", "calls", "tuples")
		for _, extra := range []int{0, 1, 2, 4} {
			key := fmt.Sprintf("violations-%d.", extra)
			for i := 0; i < trials; i++ {
				res, _ := answerStar(u, ps, instance(extra), c, key)
				c[key+"complete"] += b2i(res.Complete)
			}
			fmt.Fprintf(w, "%14d %11.0f%% %8d %8d\n", extra, 100*float64(c[key+"complete"])/float64(trials), c[key+"calls"], c[key+"tuples"])
		}
		fmt.Fprintln(w, "expected: 100% complete at 0 violations, 0% once dangling R tuples exist; calls and tuples (summed over the trials) are those of the overestimate plan alone")
		return c, nil
	}
}

func e11(sz []int) ([]op, table) {
	u, ps, s := example4()
	return nil, func(w io.Writer) (counts, times) {
		g := workload.New(51)
		trials := sz[0]
		c := counts{"trials": trials}
		for i := 0; i < trials; i++ {
			in := load(g.Facts(s, 8, 6))
			res, cat := answerStar(u, ps, in, c, "") // ANSWER* only: taken before ImproveUnder enumerates the domain
			before := cat.TotalStats()
			improved, _, dom, err := engine.ImproveUnder(res, ps, cat, 100_000)
			noErr(err)
			after := cat.TotalStats()
			c["dom.calls"] += dom.Calls
			c["improve.calls"] += after.Calls - before.Calls
			c["improve.tuples"] += after.TuplesReturned - before.TuplesReturned
			truth := must(engine.AnswerNaive(u, in))
			c["under"] += res.Under.Len()
			c["improved"] += improved.Len()
			c["exact"] += truth.Len()
			c["over"] += res.Over.Len()
			c["ladder"] += b2i(res.Under.Len() <= improved.Len() && improved.Len() <= truth.Len())
		}
		n := float64(trials)
		fmt.Fprintf(w, "avg |ans_u| = %.2f ≤ avg |ans_u+dom| = %.2f ≤ avg |exact| = %.2f   (avg |ans_o| = %.2f, with nulls)\n",
			float64(c["under"])/n, float64(c["improved"])/n, float64(c["exact"])/n, float64(c["over"])/n)
		fmt.Fprintf(w, "ladder held in %d/%d instances\n", c["ladder"], trials)
		fmt.Fprintf(w, "ANSWER* source traffic over the %d instances: %d calls, %d tuples; ImproveUnder: %d calls, %d tuples, of which domain enumeration %d calls\n",
			trials, c["calls"], c["tuples"], c["improve.calls"], c["improve.tuples"], c["dom.calls"])
		fmt.Fprintln(w, "expected: ladder holds in every instance; dom closes part of the gap")
		return c, nil
	}
}

func e12(sz []int) ([]op, table) {
	// A star join of fan-out n over 40 x-values, each Ri mapping x to
	// one y-value so bindings stay constant and fan-out is the only
	// variable; S filters half.
	cats := map[int]*sources.Catalog{}
	ops := sized("fanout-%d", sz, func(n int) func() {
		q, ps := workload.StarQuery(n)
		in := engine.NewInstance()
		for x := 0; x < 40; x++ {
			xv := fmt.Sprintf("x%d", x)
			for i := 1; i <= n; i++ {
				in.MustAdd(fmt.Sprintf("R%d", i), xv, fmt.Sprintf("y%d_%d", i, x))
			}
			if x%2 == 0 {
				in.MustAdd("S", xv)
			}
		}
		cat, uq := in.MustCatalog(ps), logic.AsUnion(q)
		cats[n] = cat
		return func() { must(engine.Answer(uq, ps, cat)) }
	})
	return ops, func(w io.Writer) (counts, times) {
		c := counts{}
		fmt.Fprintf(w, "%8s %12s %14s %12s\n", "fan-out", "calls", "tuples", "ns/op")
		for i, n := range sz {
			t := timeIt(ops[i].fn)
			cats[n].ResetStats()
			ops[i].fn()
			st := cats[n].TotalStats()
			c[fmt.Sprintf("fanout-%d.calls", n)], c[fmt.Sprintf("fanout-%d.tuples", n)] = st.Calls, st.TuplesReturned
			fmt.Fprintf(w, "%8d %12d %14d %12.0f\n", n, st.Calls, st.TuplesReturned, t)
		}
		fmt.Fprintln(w, "expected: calls grow with fan-out times bindings; the negated filter adds one call per surviving binding")
		return c, nil
	}
}

// order is one ordering of a query's body, as a planner chose it.
type order struct {
	key, name string
	q         ucqn.Query
}

// orders tables one row per order — its body and the calls and tuples
// one Exec of it costs over a fresh catalog of in — in columns of the
// given widths (E14, E17).
func orders(in *ucqn.Instance, ps *ucqn.PatternSet, orders []order, widths [2]int, planner, expected string) ([]op, table) {
	return nil, func(w io.Writer) (counts, times) {
		c := counts{}
		fmt.Fprintf(w, "%-*s %-*s %8s %8s\n", widths[0], planner, widths[1], "order", "calls", "tuples")
		for _, o := range orders {
			cat := in.MustCatalog(ps)
			exec(o.q, ps, cat)
			st := cat.TotalStats()
			_, body, _ := strings.Cut(o.q.Rules[0].String(), " :- ")
			c[o.key+".calls"], c[o.key+".tuples"] = st.Calls, st.TuplesReturned
			fmt.Fprintf(w, "%-*s %-*s %8d %8d\n", widths[0], o.name, widths[1], body, st.Calls, st.TuplesReturned)
		}
		fmt.Fprintln(w, expected)
		return c, nil
	}
}

func e14([]int) ([]op, table) {
	// R1 produces many bindings; the filter ¬L removes 90% of them; R2
	// then fans out. ANSWERABLE discovers R1, R2, ¬L in one pass (filter
	// last); the optimizer schedules the filter first.
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
	return orders(in, ps, []order{{"answerable", "ANSWERABLE order", ordered}, {"optimized", "optimized order", optimized}},
		[2]int{20, 44}, "plan", "expected: scheduling the ¬L filter before R2 cuts the R2 calls by ~90%")
}

func e17([]int) ([]op, table) {
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
	greedy, _ := ucqn.OptimizeOrder(q, ps)
	costed, _ := ucqn.CostOrder(q, ps, ucqn.StatsFromCardinalities(map[string]int{"Big": 500, "Small": 5}))
	return orders(in, ps, []order{{"greedy", "greedy", greedy}, {"cost-based", "cost-based", costed}},
		[2]int{18, 34}, "planner", "expected: starting with the small relation cuts calls by ~100x")
}

func e16([]int) ([]op, table) {
	// A join with many repeated lookup keys: 200 R-tuples share 10 z
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
	return nil, func(w io.Writer) (counts, times) {
		fmt.Fprintf(w, "%-10s %14s %14s\n", "catalog", "remote calls", "cache hits")
		plain := in.MustCatalog(ps)
		must(seq.Answer(context.Background(), q, ps, plain))
		fmt.Fprintf(w, "%-10s %14d %14s\n", "plain", plain.TotalStats().Calls, "-")

		cat, caches, err := ucqn.CachedCatalog(in.MustCatalog(ps))
		noErr(err)
		must(seq.Answer(context.Background(), q, ps, cat))
		// The wrapped catalog reports the inner tables' real remote traffic.
		hits := 0
		for _, cs := range caches {
			h, _ := cs.HitsMisses()
			hits += h
		}
		fmt.Fprintf(w, "%-10s %14d %14d\n", "cached", cat.TotalStats().Calls, hits)
		fmt.Fprintln(w, "expected: caching collapses the 200 T lookups to 10 remote calls")
		return counts{"plain.calls": plain.TotalStats().Calls, "cached.calls": cat.TotalStats().Calls, "cached.hits": hits}, nil
	}
}

func e18([]int) ([]op, table) {
	// T supports both a keyed lookup (T^io) and a full scan (T^oo).
	// Executability is identical either way; the tuples shipped differ
	// by the relation size ("bound is easier", [Ull88]). Each plan is
	// adorned by its strategy, not by core.NewPlan, and runs as is.
	q := ucqn.MustParseRule(`Q(x, y) :- R(x, z), T(z, y).`)
	ps := ucqn.MustParsePatterns(`R^oo T^io T^oo`)
	in := engine.NewInstance()
	for i := 0; i < 10; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i))
	}
	for i := 0; i < 1000; i++ {
		in.MustAdd("T", fmt.Sprintf("z%d", i), fmt.Sprintf("y%d", i))
	}
	strategies := []struct {
		name string
		plan core.Plan
	}{{"most-inputs", adornedPlan(q, ps, access.PreferMostInputs)}, {"fewest-inputs", adornedPlan(q, ps, access.PreferFewestInputs)}}
	return nil, func(w io.Writer) (counts, times) {
		c := counts{}
		fmt.Fprintf(w, "%-16s %-10s %8s %10s\n", "strategy", "T pattern", "calls", "tuples")
		for _, st := range strategies {
			cat := in.MustCatalog(ps)
			c[st.name+".answers"] = runPlan(st.plan, cat).Len()
			t := cat.TotalStats()
			c[st.name+".calls"], c[st.name+".tuples"] = t.Calls, t.TuplesReturned
			fmt.Fprintf(w, "%-16s %-10s %8d %10d\n", st.name, st.plan.Steps[0][1].Pattern, t.Calls, t.TuplesReturned)
		}
		fmt.Fprintln(w, "expected: identical answers; the pushdown strategy ships ~50x fewer tuples (the runtime dedups the repeated scan to one fetch; per-binding it was ~1000x)")
		return c, nil
	}
}

// adornedPlan is the one-rule plan of q with every step adorned by the
// strategy.
func adornedPlan(q logic.CQ, ps *access.Set, s access.AdornStrategy) core.Plan {
	steps, ok := access.AdornInOrderPrefer(q.Body, ps, s)
	if !ok {
		panic("not executable")
	}
	return core.Plan{Exec: logic.AsUnion(q), Steps: [][]access.AdornedLiteral{steps}}
}

// runPlan runs p over cat on the default runtime and returns its answers.
func runPlan(p core.Plan, cat *sources.Catalog) *engine.Rel {
	out := engine.NewRel()
	_, _, err := engine.DefaultRuntime().Run(context.Background(), p, cat, engine.Answered{}, engine.Opts{}, engine.Into(out))
	noErr(err)
	return out
}

// --- The runtime experiments: the call runtime, streaming,
// degradation, the query cache, hedging, and the cache fleet. ---

func e19(sz []int) ([]op, table) {
	// The source-call runtime ablation: the per-binding loop vs the
	// deduplicating concurrent runtime vs the same runtime retrying
	// injected transient failures, over a join whose n R-tuples share 10
	// T lookups. Answers are identical in every row; only the traffic
	// differs.
	n := sz[0]
	q := ucqn.MustParseQuery(`Q(x, y) :- R(x, z), T(z, y).`)
	ps := ucqn.MustParsePatterns(`R^oo T^io`)
	in := ucqn.NewInstance()
	for i := 0; i < n; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%10))
	}
	for z := 0; z < 10; z++ {
		in.MustAdd("T", fmt.Sprintf("z%d", z), fmt.Sprintf("y%d", z))
	}
	retry := ucqn.NewRuntime()
	retry.Retry = ucqn.RetryPolicy{MaxAttempts: 4}
	rows := []struct {
		name  string
		rt    *ucqn.Runtime
		flaky ucqn.FlakyConfig // the transient failures every source injects
	}{
		{"sequential", ucqn.SequentialRuntime(), ucqn.FlakyConfig{}},
		{"dedup", ucqn.NewRuntime(), ucqn.FlakyConfig{}},
		{"dedup+flaky", retry, ucqn.FlakyConfig{FailFirst: 2}},
	}
	catalog := func(flaky ucqn.FlakyConfig) *ucqn.Catalog {
		return wrap(in.MustCatalog(ps), func(_ string, src ucqn.Source) ucqn.Source { return ucqn.NewFlakySource(src, flaky) })
	}
	var ops []op
	for _, row := range rows {
		cat := catalog(row.flaky)
		ops = append(ops, op{row.name, func() { must(row.rt.Answer(context.Background(), q, ps, cat)) }})
	}
	return ops, func(w io.Writer) (counts, times) {
		c := counts{"differ": 0}
		var first *ucqn.Rel
		fmt.Fprintf(w, "%-14s %8s %8s %8s %8s\n", "runtime", "calls", "dedup", "retries", "answers")
		for _, row := range rows {
			rel, prof, err := row.rt.AnswerProfiled(context.Background(), q, ps, catalog(row.flaky))
			noErr(err)
			if first == nil {
				first = rel
			}
			c["differ"] += b2i(!rel.Equal(first))
			c[row.name+".calls"], c[row.name+".dedup"], c[row.name+".retries"], c[row.name+".answers"] =
				prof.TotalCalls(), prof.TotalDeduped(), prof.TotalRetries(), rel.Len()
			fmt.Fprintf(w, "%-14s %8d %8d %8d %8d\n",
				row.name, prof.TotalCalls(), prof.TotalDeduped(), prof.TotalRetries(), rel.Len())
		}
		fmt.Fprintf(w, "expected: dedup collapses the %d T lookups to 10 distinct calls; retries absorb the injected failures with identical answers\n", n)
		return c, nil
	}
}

func e20(sz []int) ([]op, table) {
	// The streaming pipeline ablation: pipelined execution vs the
	// materializing evaluator over sources with a simulated network
	// round trip. Answers and source calls are identical; what changes
	// is when the first answer arrives and how many bindings sit
	// resident.
	const delay = 500 * time.Microsecond
	q := ucqn.MustParseQuery(`Q(x, y) :- R(x, z), S(z, w), T(w, y).`)
	ps := ucqn.MustParsePatterns(`R^oo S^io T^io`)
	in := ucqn.NewInstance()
	for i := 0; i < sz[0]; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i))
		in.MustAdd("S", fmt.Sprintf("z%d", i), fmt.Sprintf("w%d", i))
		in.MustAdd("T", fmt.Sprintf("w%d", i), fmt.Sprintf("y%d", i))
	}
	modes := []string{"materialized", "streamed"}
	run := func(mode string) (*ucqn.Rel, *ucqn.Result) {
		rt := ucqn.NewRuntime()
		rt.BatchSize = 16 // small batches, so streaming shows its latency edge
		opts := []ucqn.ExecOption{ucqn.WithRuntime(rt), ucqn.WithProfile()}
		if mode == "streamed" {
			opts = append(opts, ucqn.WithStreaming())
		}
		return exec(q, ps, must(ucqn.DelayedCatalog(in.MustCatalog(ps), delay)), opts...)
	}
	ops := []op{{"materialized", func() { run("materialized") }}, {"streamed", func() { run("streamed") }}}
	return ops, func(w io.Writer) (counts, times) {
		c, t := counts{}, times{}
		var materialized []ucqn.Row
		fmt.Fprintf(w, "%-14s %12s %12s %8s %8s %8s\n",
			"mode", "first-tuple", "total", "calls", "peak", "answers")
		for _, mode := range modes {
			rel, res := run(mode)
			prof, _ := res.Profile()
			ttft := prof.TimeToFirst
			if ttft == 0 {
				ttft = prof.Elapsed // materialized: nothing arrives before the end
			}
			if materialized == nil {
				materialized = rel.Rows()
			} else {
				c["identical"] = b2i(slices.EqualFunc(materialized, rel.Rows(), func(a, b ucqn.Row) bool { return a.Key() == b.Key() }))
			}
			c[mode+".calls"], c[mode+".answers"] = prof.TotalCalls(), rel.Len()
			t[mode+".first"], t[mode+".total"] = ttft, prof.Elapsed
			fmt.Fprintf(w, "%-14s %12s %12s %8d %8d %8d\n",
				mode, ttft.Round(time.Microsecond), prof.Elapsed.Round(time.Microsecond),
				prof.TotalCalls(), prof.PeakBindings(), rel.Len())
		}
		fmt.Fprintln(w, "expected: identical calls and answers; the pipeline's first tuple arrives well before the materialized total, with far fewer bindings resident")
		return c, t
	}
}

// kill builds a catalog of in whose dead sources fail every call, each
// behind a breaker when breaker is set; it returns the last dead
// source's fault injector and breaker.
func kill(in *ucqn.Instance, ps *ucqn.PatternSet, breaker bool, dead ...string) (cat *ucqn.Catalog, flaky *ucqn.FlakySource, brk *ucqn.Breaker) {
	cat = wrap(in.MustCatalog(ps), func(name string, src ucqn.Source) ucqn.Source {
		if !slices.Contains(dead, name) {
			return src
		}
		flaky = ucqn.NewFlakySource(src, ucqn.FlakyConfig{FailEveryN: 1})
		if !breaker {
			return flaky
		}
		brk = ucqn.NewBreaker(flaky, ucqn.BreakerConfig{Window: 4, Threshold: 2, Cooldown: time.Hour})
		return brk
	})
	return cat, flaky, brk
}

func e21(sz []int) ([]op, table) {
	// Part 1: the circuit breaker's call savings when every disjunct of
	// a union but one touches a dead source — bare retries pay the full
	// schedule per disjunct, the breaker opens once and fails the rest
	// fast. Strict mode errors; partial mode answers with the healthy
	// disjunct.
	deadRules := sz[0]
	src := "Q(x) :- R(x).\n"
	for i := 0; i < deadRules; i++ {
		src += fmt.Sprintf("Q(x) :- S(%q, x).\n", fmt.Sprintf("c%d", i))
	}
	q, ps := ucqn.MustParseQuery(src), ucqn.MustParsePatterns(`R^o S^io`)
	in := ucqn.NewInstance()
	for i := 0; i < 40; i++ {
		in.MustAdd("R", fmt.Sprintf("r%d", i))
	}
	// partial runs q degraded on a runtime with deterministic call
	// counts: one worker, four attempts.
	partial := func(q ucqn.Query, ps *ucqn.PatternSet, cat *ucqn.Catalog) (*ucqn.Rel, ucqn.Incompleteness) {
		rt := ucqn.NewRuntime()
		rt.Concurrency = 1
		rt.Retry = ucqn.RetryPolicy{MaxAttempts: 4}
		rel, res := exec(q, ps, cat, ucqn.WithRuntime(rt), ucqn.WithPartialResults())
		inc, _ := res.Incompleteness()
		return rel, inc
	}
	modes := map[bool]string{false: "bare-retries", true: "breaker"}
	var ops []op
	for _, breaker := range []bool{false, true} {
		cat, _, _ := kill(in, ps, breaker, "S")
		ops = append(ops, op{modes[breaker], func() { partial(q, ps, cat) }})
	}
	return ops, func(w io.Writer) (counts, times) {
		c := counts{"rules": deadRules}
		healthy, _ := exec(ucqn.MustParseQuery(`Q(x) :- R(x).`), ps, in.MustCatalog(ps))
		strict, _, _ := kill(in, ps, true, "S")
		_, err := ucqn.Exec(context.Background(), q, ps, strict)
		c["strict.failed"] = b2i(err != nil)

		fmt.Fprintf(w, "%-14s %10s %10s %8s\n", "mode", "dead-calls", "dropped", "answers")
		for _, breaker := range []bool{false, true} {
			name := modes[breaker]
			cat, flaky, brk := kill(in, ps, breaker, "S")
			rel, inc := partial(q, ps, cat)
			c[name+".dead-calls"], c[name+".dropped"], c[name+".answers"] = flaky.Injected(), len(inc.Failed), rel.Len()
			c[name+".healthy"] = b2i(rel.Equal(healthy))
			if breaker {
				c["breaker.failed-S"] = b2i(slices.Equal(inc.FailedSources(), []string{"S"}))
				c["breaker.open"] = b2i(brk.State() == ucqn.BreakerOpen)
			}
			fmt.Fprintf(w, "%-14s %10d %10d %8d\n", name, flaky.Injected(), len(inc.Failed), rel.Len())
		}
		fmt.Fprintf(w, "expected: identical degraded answers; bare retries pay %d×4 calls to the dead source, the breaker at most its window (4)\n\n", deadRules)

		// Part 2: a wide union with one relation per disjunct; kill a
		// growing fraction of the sources and watch the certified
		// underestimate shrink while the report keeps the books.
		const wide = 8
		var wsrc, wpat string
		var rels []string
		win := ucqn.NewInstance()
		for i := 0; i < wide; i++ {
			rels = append(rels, fmt.Sprintf("R%d", i))
			wsrc += fmt.Sprintf("Q(x) :- %s(x).\n", rels[i])
			wpat += rels[i] + "^o "
			for j := 0; j < 10; j++ {
				win.MustAdd(rels[i], fmt.Sprintf("v%d_%d", i, j))
			}
		}
		wq, wps := ucqn.MustParseQuery(wsrc), ucqn.MustParsePatterns(wpat)
		fmt.Fprintf(w, "%-8s %10s %10s %8s %8s\n", "killed", "survived", "dropped", "answers", "ratio")
		for _, frac := range []int{0, 25, 50, 75} {
			cat, _, _ := kill(win, wps, true, rels[:wide*frac/100]...)
			rel, inc := partial(wq, wps, cat)
			ratio, _ := inc.RuleRatio()
			key := fmt.Sprintf("killed-%d", frac)
			c[key+".survived"], c[key+".dropped"], c[key+".answers"] = inc.RulesSurvived, len(inc.Failed), rel.Len()
			fmt.Fprintf(w, "%7d%% %10d %10d %8d %8.2f\n", frac, inc.RulesSurvived, len(inc.Failed), rel.Len(), ratio)
		}
		fmt.Fprintln(w, "expected: answers shrink by exactly 10 rows per killed source; survived+dropped always totals 8; ratio is the certified completeness floor")
		return c, nil
	}
}

func e22(sz []int) ([]op, table) {
	// The semantic query cache under a Zipf-repeated workload: the paper
	// examples' executable forms plus α-renamed and literal-padded
	// variants (textually different, semantically identical — the plan
	// cache must collapse them), deterministically shuffled; requests
	// drawn Zipf(s≈1), so ~90% repeat an earlier query; sources behind a
	// simulated round-trip latency. Three modes: cache off, plan cache
	// only (canonicalization and planning amortized, answers live), and
	// the full two-tier cache.
	const delay = 200 * time.Microsecond
	type request struct {
		q  ucqn.Query
		ps *ucqn.PatternSet
		ci int // the example catalog it runs against
	}
	var reqs []request
	var examples []workload.PaperExample
	for _, ex := range workload.PaperExamples() {
		u, ok := executable(ex)
		if !ok {
			continue
		}
		for _, v := range []ucqn.Query{u, workload.AlphaRename(u, "z"), workload.PadRedundant(u), workload.PadRedundant(workload.AlphaRename(u, "zp"))} {
			reqs = append(reqs, request{q: v, ps: ex.Patterns, ci: len(examples)})
		}
		examples = append(examples, ex)
	}
	rand.New(rand.NewSource(7)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	zipf := rand.NewZipf(rand.New(rand.NewSource(42)), 1.01, 1, uint64(len(reqs)-1))
	seq := make([]int, sz[0]*len(reqs))
	for i := range seq {
		seq[i] = int(zipf.Uint64())
	}
	// mode returns a fresh query cache for the mode (nil when off), its
	// Exec options, and fresh per-example catalogs, so every mode starts
	// with cold sources and zeroed meters.
	modes := []string{"off", "plan-only", "full"}
	mode := func(m string) (qc *ucqn.QueryCache, opts []ucqn.ExecOption, cats []*ucqn.Catalog) {
		if m != "off" {
			qc = ucqn.NewQueryCache(ucqn.QueryCacheOptions{DisableAnswers: m == "plan-only"})
			opts = []ucqn.ExecOption{ucqn.WithQueryCache(qc)}
		}
		for _, ex := range examples {
			cats = append(cats, must(ucqn.DelayedCatalog(paperInstance(ex.Patterns).MustCatalog(ex.Patterns), delay)))
		}
		return qc, opts, cats
	}
	var ops []op
	for _, m := range modes {
		_, opts, cats := mode(m)
		i := 0
		ops = append(ops, op{m, func() {
			r := reqs[seq[i%len(seq)]]
			exec(r.q, r.ps, cats[r.ci], opts...)
			i++
		}})
	}
	return ops, func(w io.Writer) (counts, times) {
		c, t := counts{"requests": len(seq), "classes": len(examples), "diverged": 0}, times{}
		want := make([]*ucqn.Rel, len(reqs))
		fmt.Fprintf(w, "requests=%d distinct=%d equivalence classes=%d zipf s≈1 latency=%s\n", len(seq), len(reqs), len(examples), delay)
		fmt.Fprintf(w, "%-10s %10s %10s %10s %12s %12s\n", "mode", "src-calls", "plan-hits", "ans-hits", "p50", "p99")
		for _, m := range modes {
			qc, opts, cats := mode(m)
			var lat []time.Duration
			for _, idx := range seq {
				r := reqs[idx]
				start := time.Now()
				rel, _ := exec(r.q, r.ps, cats[r.ci], opts...)
				lat = append(lat, time.Since(start))
				if want[idx] == nil {
					want[idx] = rel
				}
				c["diverged"] += b2i(!rel.Equal(want[idx]))
			}
			for _, cat := range cats {
				c[m+".calls"] += cat.TotalStats().Calls
			}
			planHits, ansHits := "-", "-"
			if qc != nil {
				st := qc.Stats()
				c[m+".plan-hits"], c[m+".answer-hits"], c[m+".plan-misses"] = st.PlanHits, st.AnswerHits, st.PlanMisses
				planHits, ansHits = fmt.Sprint(st.PlanHits), fmt.Sprint(st.AnswerHits)
			}
			t[m+".p50"], t[m+".p99"] = pctl(lat, 0.50), pctl(lat, 0.99)
			fmt.Fprintf(w, "%-10s %10d %10s %10s %12s %12s\n", m, c[m+".calls"], planHits, ansHits,
				t[m+".p50"].Round(time.Microsecond), t[m+".p99"].Round(time.Microsecond))
		}
		fmt.Fprintln(w, "expected: one plan build per equivalence class (variants collapse); the full cache cuts source calls ≥5× and p50 by orders of magnitude; plan-only already beats off (minimal representative plans)")
		return c, t
	}
}

// executable is a paper example's executable form: its ANSWERABLE
// reordering, else its underestimate when that has a live rule.
func executable(ex workload.PaperExample) (ucqn.Query, bool) {
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

// paperInstance is a deterministic instance for the patterns' relations
// with enough value sharing that joins repeat keys.
func paperInstance(ps *ucqn.PatternSet) *ucqn.Instance {
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

// slowEveryNth delays every nth call of the wrapped source by extra,
// honoring cancellation — the intermittently slow replica of E23.
type slowEveryNth struct {
	ucqn.Source
	n     int64
	extra time.Duration
	calls atomic.Int64
}

func (s *slowEveryNth) Call(ctx context.Context, p access.Pattern, inputs [][]string) ([][]sources.Tuple, error) {
	if s.calls.Add(1)%s.n == 0 {
		select {
		case <-time.After(s.extra):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s.Source.Call(ctx, p, inputs)
}

func e23(sz []int) ([]op, table) {
	// Hedged requests over a three-replica source with one replica
	// intermittently slow: every nth of its calls stalls 150ms. Without
	// hedging the slow replica owns the p99; with hedging the backup
	// attempt races past it for <5% extra calls. Every 13th call puts a
	// few percent of requests in the tail: enough to own the p99, cheap
	// enough that hedging stays under the 5% extra-call bar. The quick
	// run has too few requests for a single slow event to sit at its
	// p99 index, so it slows more often.
	const base = 2 * time.Millisecond
	requests, nth := sz[0], sz[1]
	q, ps := ucqn.MustParseQuery(`Q(y) :- R(x), S(x, z), T(z, y).`), ucqn.MustParsePatterns(`R^o S^io T^io`)
	in := ucqn.NewInstance().MustAdd("R", "x0").MustAdd("S", "x0", "z0").MustAdd("T", "z0", "y0")
	modes := []struct {
		name        string
		slow, hedge bool
	}{{"healthy", false, false}, {"slow-replica", true, false}, {"slow-replica+hedging", true, true}}
	// setup fronts every relation with a three-replica set routed
	// round-robin, each replica at the base latency, one replica of T
	// slow in a slow mode; requests retry without backoff and hedge after
	// two base round trips in a hedging mode.
	setup := func(slow, hedge bool) (*ucqn.Catalog, []ucqn.ExecOption) {
		replica := func(slowT bool) *ucqn.Catalog {
			return wrap(must(ucqn.DelayedCatalog(in.MustCatalog(ps), base)), func(name string, src ucqn.Source) ucqn.Source {
				if slowT && name == "T" {
					return &slowEveryNth{Source: src, n: int64(nth), extra: 150 * time.Millisecond}
				}
				return src
			})
		}
		cat, _, err := ucqn.ReplicaCatalog(ucqn.ReplicaConfig{Policy: ucqn.RoundRobin{}}, replica(false), replica(false), replica(slow))
		noErr(err)
		rt := ucqn.NewRuntime()
		rt.Retry.BaseDelay = 0
		opts := []ucqn.ExecOption{ucqn.WithRuntime(rt), ucqn.WithProfile()}
		if hedge {
			opts = append(opts, ucqn.WithHedging(ucqn.HedgePolicy{Delay: 2 * base}))
		}
		return cat, opts
	}
	var ops []op
	for _, m := range modes {
		cat, opts := setup(m.slow, m.hedge)
		ops = append(ops, op{m.name, func() { exec(q, ps, cat, opts...) }})
	}
	return ops, func(w io.Writer) (counts, times) {
		want, _ := exec(q, ps, in.MustCatalog(ps))
		c, t := counts{"wrong": 0}, times{}
		fmt.Fprintf(w, "replicas=3 base latency=%s slow replica: +150ms every %dth call requests=%d\n", base, nth, requests)
		fmt.Fprintf(w, "%-22s %12s %12s %10s %8s %6s %12s\n", "mode", "p50", "p99", "src-calls", "hedges", "wins", "mean-latency")
		for _, m := range modes {
			cat, opts := setup(m.slow, m.hedge)
			var lat []time.Duration
			for i := 0; i < requests; i++ {
				start := time.Now()
				rel, res := exec(q, ps, cat, opts...)
				lat = append(lat, time.Since(start))
				c["wrong"] += b2i(!rel.Equal(want))
				prof, _ := res.Profile()
				c[m.name+".calls"] += prof.TotalCalls()
				c[m.name+".hedges"] += prof.HedgedCalls()
				c[m.name+".wins"] += prof.HedgeWins()
			}
			t[m.name+".p50"], t[m.name+".p99"] = pctl(lat, 0.50), pctl(lat, 0.99)
			// The catalog's aggregated stats carry observed call latency.
			fmt.Fprintf(w, "%-22s %12s %12s %10d %8d %6d %12s\n", m.name,
				t[m.name+".p50"].Round(time.Microsecond), t[m.name+".p99"].Round(time.Microsecond),
				c[m.name+".calls"], c[m.name+".hedges"], c[m.name+".wins"], cat.TotalStats().MeanLatency().Round(time.Microsecond))
		}
		fmt.Fprintln(w, "expected: the slow replica drives the unhedged p99 to ≥5× healthy; hedging restores p99 to ≤2× healthy for <5% extra calls; mean source latency stays near the base round trip")
		return c, t
	}
}

func e28(sz []int) ([]op, table) {
	// Cache-fleet sharing: replica A (the writer) opens over an empty
	// shared directory and serves the fixture mix twice (cold, then
	// steady); replica B joins the live fleet as a reader, refreshes
	// once, and serves the mix at A's steady-state source-call count —
	// the shared directory, not B's sources, pays for the pass. Then an
	// invalidation issued on B (through its durable inbox, not the
	// log) must re-derive the tenant on BOTH replicas.
	return nil, func(w io.Writer) (counts, times) {
		dir := must(os.MkdirTemp("", "ucqn-e28-*"))
		defer os.RemoveAll(dir)
		rep := must(server.RunFleetShare(context.Background(), dir,
			server.FleetShareConfig{Tenants: 3, DelayMS: float64(sz[0])}))

		fmt.Fprintf(w, "%-10s %10s %12s %12s\n", "pass", "calls", "p50", "mean")
		fmt.Fprintf(w, "%-10s %10d %12s %12s\n", "A cold", rep.ColdCalls, fmtMS(rep.ColdP50MS), fmtMS(rep.ColdMeanMS))
		fmt.Fprintf(w, "%-10s %10d %12s %12s\n", "A steady", rep.SteadyCalls, fmtMS(rep.SteadyP50MS), fmtMS(rep.SteadyMeanMS))
		fmt.Fprintf(w, "%-10s %10d %12s %12s\n", "B warm", rep.WarmCalls, fmtMS(rep.WarmP50MS), fmtMS(rep.WarmMeanMS))
		fmt.Fprintf(w, "roles: A=%s B=%s  reader-issued invalidation gen %d re-derived: B paid %d calls, A paid %d; sound: %v\n",
			rep.RoleA, rep.RoleB, rep.InvalidationGen,
			rep.PostInvalidationCallsB, rep.PostInvalidationCallsA, rep.Sound)
		fmt.Fprintln(w, "expected: replica B's warm pass matches A's steady-state call count (≈0) — the fleet directory serviced it — and the fleet-wide invalidation forces both replicas back to the sources for exactly the killed tenant")

		if *benchOut != "" {
			data := append(must(json.MarshalIndent(rep, "", "  ")), '\n')
			noErr(server.ValidateBenchReport(data))
			noErr(os.WriteFile(*benchOut, data, 0o644))
			fmt.Fprintf(w, "wrote %s\n", *benchOut)
		}
		return counts{
			"cold.calls": rep.ColdCalls, "steady.calls": rep.SteadyCalls, "warm.calls": rep.WarmCalls,
			"invalidated.a": rep.PostInvalidationCallsA, "invalidated.b": rep.PostInvalidationCallsB, "sound": b2i(rep.Sound),
		}, nil
	}
}

// fmtMS renders a millisecond float at a readable precision.
func fmtMS(ms float64) string {
	return time.Duration(ms * float64(time.Millisecond)).Round(time.Microsecond).String()
}
