// GAV: the full mediator pipeline of the paper's Section 6 — a client
// query against global-as-view definitions is unfolded into a UCQ¬ plan
// over limited-access sources, semantically optimized under integrity
// constraints (Example 6), planned, and answered with completeness
// reporting.
//
// Scenario (after the BIRN neuroscience mediator): a global view
// Subject(id, species) integrates two labs' sources; Healthy(id) is a
// global view over a screening source; the client asks for subjects that
// are not known to be healthy.
package main

import (
	"context"
	"fmt"
	"log"

	ucqn "repro"
)

func main() {
	// Source schema and access patterns:
	//   LabA^oo(id, species)        scannable
	//   LabB^oo(id, species)        scannable
	//   Screen^i(id)                membership check only
	//   Consent^io(id, status)      lookup by subject
	ps := ucqn.MustParsePatterns(`LabA^oo LabB^oo Screen^i Consent^io`)

	// Global-as-view definitions.
	views := ucqn.NewViews()
	if err := views.Add(ucqn.MustParseQuery(`
		Subject(id, sp) :- LabA(id, sp).
		Subject(id, sp) :- LabB(id, sp).
	`)); err != nil {
		log.Fatal(err)
	}
	if err := views.Add(ucqn.MustParseQuery(`Healthy(id) :- Screen(id).`)); err != nil {
		log.Fatal(err)
	}

	// Client query over the global schema.
	q := ucqn.MustParseQuery(`Q(id, sp) :- Subject(id, sp), Consent(id, "yes"), not Healthy(id).`)
	fmt.Println("client query:  ", q)

	unfolded, err := views.Unfold(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unfolded plan:\n%s\n\n", unfolded)

	res := ucqn.Feasible(unfolded, ps)
	fmt.Printf("feasible: %v (%s)\n\n", res.Feasible, res.Verdict)

	// Sources.
	in := ucqn.NewInstance()
	if err := in.ParseInto(`
		LabA("s1", "mouse").
		LabA("s2", "rat").
		LabB("s3", "mouse").
		Screen("s2").
		Consent("s1", "yes").
		Consent("s2", "yes").
		Consent("s3", "no").
	`); err != nil {
		log.Fatal(err)
	}
	cat, err := in.Catalog(ps)
	if err != nil {
		log.Fatal(err)
	}
	starRes, err := ucqn.Exec(context.Background(), unfolded, ps, cat)
	if err != nil {
		log.Fatal(err)
	}
	star, _ := starRes.Report()
	fmt.Println(star)

	// Integrity constraints: every consented subject has been screened
	// or not — suppose instead the deployment guarantees every LabB
	// subject is screened: LabB[0] ⊆ Screen[0]. Then the LabB disjunct
	// of the unfolded query (which requires not Screen) is refuted at
	// compile time.
	inds := ucqn.MustParseINDs(`LabB[0] < Screen[0]`)
	fmt.Printf("\nwith constraint %v:\n", []ucqn.IND(inds))
	opt := inds.Optimize(unfolded)
	fmt.Printf("optimized plan (%d of %d rules kept):\n%s\n",
		len(opt.Rules), len(unfolded.Rules), opt)
	res2 := ucqn.Feasible(opt, ps)
	fmt.Printf("optimized feasible: %v (%s)\n", res2.Feasible, res2.Verdict)

	// Traffic comparison: ANSWERABLE order vs the call-minimizing order,
	// with and without source caching.
	fmt.Println("\ntraffic comparison on the unfolded plan:")
	ordered, _ := ucqn.Reorder(unfolded, ps)
	optimized, _ := ucqn.OptimizeOrder(unfolded, ps)
	for _, v := range []struct {
		name string
		q    ucqn.Query
	}{{"ANSWERABLE order", ordered}, {"optimized order", optimized}} {
		cat2, err := in.Catalog(ps)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := ucqn.Exec(context.Background(), v.q, ps, cat2); err != nil {
			log.Fatal(err)
		}
		st := cat2.TotalStats()
		fmt.Printf("  %-18s %3d calls %3d tuples\n", v.name, st.Calls, st.TuplesReturned)
	}
}
