package ucqn

// End-to-end pipeline test: Datalog¬ program → compile → feasibility →
// constraint optimization → cost-based order → profiled execution →
// ANSWER* — the full mediator flow, locked as one scenario.

import (
	"testing"
)

func TestFullPipeline(t *testing.T) {
	// Program: two warehouses feed Stock; Sellable joins Price;
	// Order excludes recalled SKUs.
	p := NewProgram()
	rules, err := ParseRules(`
		Stock(sku, site) :- WarehouseA(sku, site).
		Stock(sku, site) :- WarehouseB(sku, site).
		Sellable(sku, site) :- Stock(sku, site), Price(sku, pr).
		Order(sku, site) :- Sellable(sku, site), not Recalled(sku).
	`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if err := p.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	compiled, err := p.Compile("Order")
	if err != nil {
		t.Fatal(err)
	}
	if len(compiled.Rules) != 2 {
		t.Fatalf("compiled = %s", compiled)
	}

	ps := MustParsePatterns(`WarehouseA^oo WarehouseB^oo Price^io Recalled^i`)
	res := Feasible(compiled, ps)
	if !res.Feasible {
		t.Fatalf("pipeline plan must be feasible: %v", res)
	}

	// Deployment guarantee: everything in warehouse B is recalled
	// (a pathological but instructive constraint) — the B disjunct
	// disappears at compile time.
	inds := MustParseINDs(`WarehouseB[0] < Recalled[0]`)
	opt := inds.OptimizeChase(compiled)
	if len(opt.Rules) != 1 {
		t.Fatalf("constraint must drop the B disjunct: %s", opt)
	}

	// Data satisfying the constraint.
	in := NewInstance()
	for i := 0; i < 30; i++ {
		sku := "sku" + string(rune('a'+i%26))
		in.MustAdd("WarehouseA", sku+"A", "berlin")
		in.MustAdd("Price", sku+"A", "9.99")
	}
	in.MustAdd("WarehouseB", "skuX", "paris")
	in.MustAdd("Recalled", "skuX")
	if !inds.Holds(in) {
		t.Fatal("instance must satisfy the constraint")
	}
	cat, err := in.Catalog(ps)
	if err != nil {
		t.Fatal(err)
	}

	st := StatsFromCardinalities(map[string]int{
		"WarehouseA": 30, "WarehouseB": 1, "Price": 30, "Recalled": 1,
	})
	ordered, ok := CostOrder(opt, ps, st)
	if !ok {
		t.Fatal("plan must be orderable")
	}
	answers, prof, err := execProfiled(ordered, ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := execNaive(compiled, in)
	if err != nil {
		t.Fatal(err)
	}
	if !answers.Equal(truth) {
		t.Fatalf("pipeline answers differ from ground truth:\n%s\nvs\n%s", answers, truth)
	}
	if prof.Calls.Total == 0 {
		t.Error("profile must record calls")
	}

	// ANSWER* under constraints certifies completeness.
	star, err := execStarUnder(compiled, ps, cat, inds)
	if err != nil {
		t.Fatal(err)
	}
	if !star.Complete() {
		t.Errorf("constrained ANSWER* must certify completeness: %s", star.String())
	}
	if !star.Under.Equal(truth) {
		t.Error("constrained ANSWER* answers must match ground truth")
	}
}
