package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/containment"
	"repro/internal/logic"
	"repro/internal/minimize"
	"repro/internal/workload"
)

// A disjunct goes when a certain disjunct contains it, and only then:
// one contained in a dismissed disjunct stays, because the dismissed
// one's rows are no certain answers.
func TestPlanUnionDropsContainedDisjuncts(t *testing.T) {
	ps := pats(t, "R^o S^i V^i")
	for _, tt := range []struct {
		src  string
		want string // the planned rules
	}{
		// The second rule is in the first: the first answers alone.
		{"Q(x) :- R(x), S(x). Q(x) :- R(x), S(x), R(y).", "Q(x) :- R(x), S(x)"},
		// Equivalent rules: one stays.
		{"Q(x) :- R(x), S(x). Q(x) :- S(x), R(x).", "Q(x) :- R(x), S(x)"},
		// A dismissed rule in a certain one goes too.
		{"Q(x) :- R(x). Q(x) :- R(x), V(y).", "Q(x) :- R(x)"},
		// A certain rule in a dismissed one stays, and so does the
		// dismissed rule, whose overestimate runs.
		{"Q(x) :- R(x), V(y). Q(x) :- R(x), S(x), V(x).", "Q(x) :- R(x) | Q(x) :- R(x), S(x), V(x)"},
		// An unsatisfiable rule goes.
		{"Q(x) :- R(x), not R(x). Q(x) :- R(x), S(x).", "Q(x) :- R(x), S(x)"},
	} {
		p, cores, err := PlanUnion(ucq(t, tt.src), ps, PlanBudget)
		if err != nil {
			t.Fatalf("%s: %v", tt.src, err)
		}
		got := ""
		for i, r := range p.Exec.Rules {
			if i > 0 {
				got += " | "
			}
			got += r.String()
		}
		if got != tt.want || len(cores) != len(p.Exec.Rules) || len(p.Steps) != len(p.Exec.Rules) {
			t.Errorf("%s: planned %s with %d cores, %d step lists; want %s", tt.src, got, len(cores), len(p.Steps), tt.want)
		}
	}
	// With no budget left after minimization the scan keeps every rule.
	if p, _, _ := PlanUnion(ucq(t, "Q(x) :- R(x), S(x). Q(x) :- R(x), S(x), R(y)."), ps, 0); len(p.Exec.Rules) != 2 {
		t.Errorf("budget 0: planned %s, want both rules kept", p.Exec)
	}
}

// Over drawn unions the plan's cores are equivalent to the query, each
// certain rule is equivalent to its core, and the signature check
// never turns a containment away.
func TestPlanUnionEquivalentToQuery(t *testing.T) {
	dropped, pairs := 0, 0
	for seed := int64(0); seed < 150; seed++ {
		g := workload.New(700 + seed)
		s := g.Schema(3, 1, 2)
		ps := g.Patterns(s, 0.3, 2)
		cfg := workload.QueryConfig{PosLits: 2, NegLits: 1, VarPool: 3, ConstProb: 0.15, HeadVars: 1, DomainSize: 3}
		u := g.UCQ(s, 3, cfg)
		u.Rules = append(u.Rules, u.Rules[0].Clone())
		u.Rules[3].Body = append(u.Rules[3].Body, g.CQ(s, cfg).Body[0])
		p, cores, err := PlanUnion(u, ps, PlanBudget)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("seed %d: %s", seed, u)
		if !containment.Equivalent(logic.UCQ{Rules: cores}, u) {
			t.Fatalf("%s\ncores %v are not equivalent to the query", what, cores)
		}
		for i, r := range p.Exec.Rules {
			if p.Certain(i) && !containment.Equivalent(logic.AsUnion(r), logic.AsUnion(cores[i])) {
				t.Fatalf("%s\nrule %d runs %s, not equivalent to its core %s", what, i, r, cores[i])
			}
		}
		dropped += len(u.Rules) - len(p.Exec.Rules)
		budget := PlanBudget
		all := minimize.Cores(u, &budget)
		for i, c := range all {
			for j, d := range all {
				if i != j && !c.False && !d.False && containment.ContainedCQ(c, d) {
					pairs++
					if !mayContain(d, c) {
						t.Fatalf("%s\n%s ⊑ %s, yet the signature check rejects the pair", what, c, d)
					}
				}
			}
		}
	}
	if dropped < 150 || pairs < 100 {
		t.Fatalf("%d rules dropped, %d contained pairs: the draw no longer covers the property", dropped, pairs)
	}
}

// The cold_plan benchmark's disjuncts each carry a constant no other
// has, so the scan rejects every pair by signature: it keeps every
// rule, tests no containment and allocates nothing.
func TestPlanUnionScanRejectsDistinctConstantsWithoutAllocating(t *testing.T) {
	ps := pats(t, "R^oo S^io L^o")
	rng := rand.New(rand.NewSource(1))
	for idx := 0; idx < 60; idx++ {
		q := workload.ColdPlanQuery(rng, idx)
		p, cores, err := PlanUnion(q, ps, PlanBudget)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Exec.Rules) != len(q.Rules) {
			t.Fatalf("%s: planned %d rules, want all %d", q, len(p.Exec.Rules), len(q.Rules))
		}
		if allocs := testing.AllocsPerRun(10, func() { containedRules(p, cores, PlanBudget) }); allocs != 0 {
			t.Fatalf("%s: the scan allocated %.0f times", q, allocs)
		}
	}
}

// A planning failure quotes the relation and the rule as they are up to
// maxQuoted bytes each, and past it their first maxQuoted bytes, marked
// as cut: the error a plan cache keeps for a failing text stays small.
func TestPlanUnionFailureQuotesABoundedPart(t *testing.T) {
	ps := pats(t, "R^o S^i V^i")
	short := "Q(x) :- R(x), W(x)."
	_, _, err := PlanUnion(ucq(t, short), ps, PlanBudget)
	if want := "core: " + ErrNotOrderable.Error() + ": rule 1: no pattern of W/1: Q(x) :- R(x), W(x)"; err == nil || err.Error() != want {
		t.Fatalf("%s: %v, want %s", short, err, want)
	}
	long := strings.Repeat("é", 400) // 800 bytes
	_, _, err = PlanUnion(ucq(t, "Q(x) :- R(x), W"+long+"(x)."), ps, PlanBudget)
	if !errors.Is(err, ErrNotOrderable) {
		t.Fatalf("a long relation name: %v, want ErrNotOrderable", err)
	}
	msg := err.Error()
	if len(msg) > 3*maxQuoted || !utf8.ValidString(msg) || strings.Count(msg, "… (cut from ") != 2 {
		t.Fatalf("a long relation name: a %d-byte message, want both quotes cut and marked:\n%s", len(msg), msg)
	}
}
