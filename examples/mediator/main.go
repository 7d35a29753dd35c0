// Mediator: the runtime story of the paper (Section 4.2) in the style of
// the BIRN mediator that motivated it — an integrated view unfolds into
// a UCQ¬ plan that is *infeasible*, yet ANSWER* can still certify
// complete answers at runtime (Examples 5 and 6), report partial
// completeness (Example 7), and improve underestimates with domain
// enumeration (Example 8).
package main

import (
	"context"
	"fmt"
	"log"

	ucqn "repro"
)

// The integrated view of Example 4: Q(x,y) is answered either by joining
// R with B and filtering through ¬S, or directly from T. B accepts only
// lookups by its second column (B^oi), which no rule can ever bind — the
// plan is infeasible.
const view = `
	Q(x, y) :- not S(z), R(x, z), B(x, y).
	Q(x, y) :- T(x, y).
`

const patterns = `S^o R^oo B^oi T^oo`

func runScenario(name string, load func(*ucqn.Instance)) ucqn.Report {
	fmt.Printf("--- %s ---\n", name)
	q := ucqn.MustParseQuery(view)
	ps := ucqn.MustParsePatterns(patterns)
	in := ucqn.NewInstance()
	load(in)
	cat, err := in.Catalog(ps)
	if err != nil {
		log.Fatal(err)
	}
	starRes, err := ucqn.Exec(context.Background(), q, ps, cat)
	if err != nil {
		log.Fatal(err)
	}
	res, _ := starRes.Report()
	fmt.Println(res)

	// Compare with the (normally unobservable) ground truth.
	naiveRes, err := ucqn.Exec(context.Background(), q, nil, nil, ucqn.WithNaive(in))
	if err != nil {
		log.Fatal(err)
	}
	truth, err := naiveRes.Rel()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[ground truth: %d tuples]\n\n", truth.Len())
	return res
}

func main() {
	q := ucqn.MustParseQuery(view)
	ps := ucqn.MustParsePatterns(patterns)
	res := ucqn.Feasible(q, ps)
	fmt.Printf("view feasibility: %v (%s)\n", res.Feasible, res.Verdict)
	fmt.Printf("PLAN* output:\n%s\n\n", res.Plans)

	// Example 6: a foreign key R.z ⊆ S.z makes the dismissed disjunct
	// empty on every instance; ANSWER* detects completeness at runtime
	// even though no static analysis proved it.
	runScenario("foreign key satisfied (Example 6): complete despite infeasibility",
		func(in *ucqn.Instance) {
			in.MustAdd("S", "z1").MustAdd("S", "z2")
			in.MustAdd("R", "x1", "z1").MustAdd("R", "x2", "z2")
			in.MustAdd("B", "x1", "y1")
			in.MustAdd("T", "t1", "t2")
		})

	// Example 7: a dangling R.z value produces the overestimate tuple
	// (x3, null) — "there may be matching B tuples, but the source
	// cannot be asked".
	last := runScenario("dangling reference (Example 7): unknown completeness, null tuple in Δ",
		func(in *ucqn.Instance) {
			in.MustAdd("S", "z1")
			in.MustAdd("R", "x1", "z1")
			in.MustAdd("R", "x3", "z9") // z9 not in S
			in.MustAdd("B", "x3", "y3")
			in.MustAdd("T", "t1", "t2")
		})

	// Example 8: domain enumeration re-admits the dismissed rule by
	// binding y through dom(y), recovering the missing answer (x3, y3)
	// because y3 is reachable... it is not: only values visible through
	// some output slot can enter dom. Add a T tuple mentioning y3 and
	// the improvement finds the answer.
	fmt.Println("--- domain enumeration (Example 8) ---")
	in := ucqn.NewInstance()
	in.MustAdd("S", "z1")
	in.MustAdd("R", "x1", "z1")
	in.MustAdd("R", "x3", "z9")
	in.MustAdd("B", "x3", "y3")
	in.MustAdd("T", "t1", "y3") // y3 is in the reachable domain via T^oo
	cat, err := in.Catalog(ucqn.MustParsePatterns(patterns))
	if err != nil {
		log.Fatal(err)
	}
	ps2 := ucqn.MustParsePatterns(patterns)
	ires, err := ucqn.Exec(context.Background(), q, ps2, cat, ucqn.WithImproveUnder(100000))
	if err != nil {
		log.Fatal(err)
	}
	star, _ := ires.Report()
	fmt.Printf("plain underestimate: %d tuples\n", star.Under.Len())
	improved, err := ires.Rel()
	if err != nil {
		log.Fatal(err)
	}
	rules, dom, _ := ires.Improved()
	fmt.Printf("dom(x) enumerated %d values with %d calls\n", len(dom.Values), dom.Calls)
	for _, r := range rules.Rules {
		fmt.Printf("improved rule: %s\n", r)
	}
	fmt.Printf("improved underestimate: %d tuples\n%s\n", improved.Len(), improved)
	_ = last
}
