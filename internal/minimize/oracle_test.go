package minimize

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/containment"
	"repro/internal/logic"
	"repro/internal/workload"
)

// oracleCQ is the minimization this package used to run, kept as the
// reference: after every removal the scan restarts at the first literal,
// every candidate gets fresh checkers, and both directions of the
// equivalence are proved. CQ must return the same literals in the same
// order — the minimized union is what the planner orders and the engine
// executes.
func oracleCQ(q logic.CQ) logic.CQ {
	if q.False || !containment.Satisfiable(q) {
		return logic.FalseQuery(q.HeadPred, q.HeadArgs)
	}
	cur := q.Clone()
	for {
		removed := false
		for i := range cur.Body {
			cand := logic.CQ{HeadPred: cur.HeadPred, HeadArgs: append([]logic.Term(nil), cur.HeadArgs...)}
			for j, l := range cur.Body {
				if j != i {
					cand.Body = append(cand.Body, l.Clone())
				}
			}
			if !cand.HeadSafe() || (len(cand.Body) == 0 && len(cand.HeadArgs) > 0) {
				continue
			}
			if containment.ContainedCQ(cand, cur) && containment.ContainedCQ(cur, cand) {
				cur = cand
				removed = true
				break
			}
		}
		if !removed {
			return cur
		}
	}
}

// oracleUCQ is the old union minimization: oracleCQ per rule, then the
// disjunct scan restarting after every removal.
func oracleUCQ(u logic.UCQ) logic.UCQ {
	var rules []logic.CQ
	for _, r := range u.Rules {
		if m := oracleCQ(r); !m.False {
			rules = append(rules, m)
		}
	}
	for i := 0; i < len(rules); {
		rest := logic.UCQ{Rules: append(append([]logic.CQ(nil), rules[:i]...), rules[i+1:]...)}
		if len(rest.Rules) > 0 && containment.Contained(rules[i], rest) {
			rules = rest.Rules
			i = 0
			continue
		}
		i++
	}
	return logic.UCQ{Rules: rules}
}

// oracleRules draws n random CQ¬ rules and dresses each one of five
// ways in turn: as drawn, padded with a duplicate positive literal,
// α-renamed and padded, with a negated literal repeated, and with one
// variable replaced by a constant in head and body alike.
func oracleRules(seed int64, n int) []logic.CQ {
	g := workload.New(seed)
	rng := rand.New(rand.NewSource(seed))
	schema := g.Schema(3, 1, 3)
	out := make([]logic.CQ, 0, n)
	for i := 0; len(out) < n; i++ {
		cfg := workload.QueryConfig{
			PosLits: 2 + i%4, NegLits: i % 3, VarPool: 2 + i%3,
			ConstProb: 0.1, HeadVars: i % 3, DomainSize: 2,
		}
		r := g.CQ(schema, cfg)
		switch i % 5 {
		case 1:
			r = workload.PadRedundant(logic.AsUnion(r)).Rules[0]
		case 2:
			r = workload.PadRedundant(workload.AlphaRename(logic.AsUnion(r), fmt.Sprint(i))).Rules[0]
		case 3:
			if negs := r.Negative(); len(negs) > 0 {
				at := rng.Intn(len(r.Body) + 1)
				body := append([]logic.Literal(nil), r.Body[:at]...)
				body = append(append(body, negs[0].Clone()), r.Body[at:]...)
				r.Body = body
			}
		case 4:
			if vars := r.Vars(); len(vars) > 0 {
				v := vars[rng.Intn(len(vars))]
				r = logic.Subst{v.Name: logic.Const("c0")}.CQ(r)
			}
		}
		out = append(out, r)
	}
	return out
}

func TestCQMatchesRestartOracle(t *testing.T) {
	rules := oracleRules(1, 2400)
	for _, ex := range workload.PaperExamples() {
		rules = append(rules, ex.Query.Rules...)
		rules = append(rules, workload.PadRedundant(ex.Query).Rules...)
	}
	removed := 0
	for _, r := range rules {
		got, want := CQ(r), oracleCQ(r)
		if got.String() != want.String() {
			t.Fatalf("CQ(%s)\n got  %s\n want %s", r, got, want)
		}
		removed += len(r.Body) - len(got.Body)
		// An unbounded budget is the same algorithm.
		if cores := Cores(logic.AsUnion(r), 1<<30); cores[0].String() != want.String() {
			t.Fatalf("Cores(%s) = %s, want %s", r, cores[0], want)
		}
	}
	if removed < len(rules)/4 {
		t.Fatalf("only %d literals removed over %d rules: the draw exercises nothing", removed, len(rules))
	}
}

func TestUCQMatchesRestartOracle(t *testing.T) {
	g := workload.New(77)
	schema := g.Schema(2, 1, 2)
	dropped := 0
	for i := 0; i < 400; i++ {
		cfg := workload.QueryConfig{
			PosLits: 1 + i%3, NegLits: i % 2, VarPool: 2 + i%2,
			ConstProb: 0.1, HeadVars: 1, DomainSize: 2,
		}
		u := g.UCQ(schema, 2+i%4, cfg)
		if i%3 == 0 {
			// A repeated disjunct: the earlier occurrence goes.
			u.Rules = append(u.Rules, workload.AlphaRename(logic.AsUnion(u.Rules[0]), "d").Rules[0])
		}
		got, want := UCQ(u), oracleUCQ(u)
		if got.String() != want.String() {
			t.Fatalf("UCQ(%s)\n got  %s\n want %s", u, got, want)
		}
		dropped += len(u.Rules) - len(got.Rules)
	}
	for _, ex := range workload.PaperExamples() {
		if got, want := UCQ(ex.Query), oracleUCQ(ex.Query); got.String() != want.String() {
			t.Fatalf("UCQ(%s)\n got  %s\n want %s", ex.Query, got, want)
		}
	}
	if dropped < 100 {
		t.Fatalf("only %d disjuncts dropped: the draw exercises nothing", dropped)
	}
}

// hostile is the rule whose minimization took 25 s of CPU unbudgeted.
const hostile = `Q(x) :- R(x, v0), R(x, v1), R(x, v2), R(x, v3), not S(v0, v1), not S(v1, v2), not S(v2, v3), not S(v3, v0).`

func TestCoresStaysWithinBudget(t *testing.T) {
	q := ucq(t, hostile)
	for _, budget := range []int{0, 1, 500} {
		cores := Cores(q, budget)
		if got := cores[0].String(); got != q.Rules[0].String() {
			t.Errorf("budget %d: core = %s, want every literal kept", budget, got)
		}
	}
	// The budget is shared: a first rule that spends it leaves the
	// second untested, where the same rule alone is minimized.
	redundant := cq(t, `Q(x) :- R(x, y), R(x, z), not S(x).`)
	cores := Cores(logic.UCQ{Rules: []logic.CQ{q.Rules[0], redundant}}, 500)
	if len(cores[1].Body) != 3 {
		t.Errorf("after the budget is spent: core = %s, want the rule as written", cores[1])
	}
	if cores = Cores(logic.AsUnion(redundant), 500); len(cores[0].Body) != 2 {
		t.Errorf("within budget: core = %s, want one R literal folded away", cores[0])
	}
	// Duplicates go without a containment test, budget or none.
	if cores = Cores(ucq(t, `Q(x) :- R(x, y), not S(x), R(x, y), not S(x).`), 0); len(cores[0].Body) != 2 {
		t.Errorf("budget 0: core = %s, want the duplicates dropped", cores[0])
	}
}
