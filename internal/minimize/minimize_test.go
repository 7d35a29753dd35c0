package minimize

import (
	"testing"

	"repro/internal/containment"
	"repro/internal/logic"
	"repro/internal/parser"
)

func cq(t *testing.T, src string) logic.CQ {
	t.Helper()
	q, err := parser.ParseCQ(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func ucq(t *testing.T, src string) logic.UCQ {
	t.Helper()
	u, err := parser.ParseUCQ(src)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestMinimizeCQ(t *testing.T) {
	tests := []struct {
		name     string
		src      string
		wantBody int
	}{
		{
			// Example 9 of the paper: M(x) :- F(x), B(x).
			"example 9",
			`Q(x) :- F(x), B(x), B(y), F(z).`,
			2,
		},
		{
			"already minimal",
			`Q(x) :- E(x, y), E(y, x).`,
			2,
		},
		{
			"duplicate literal",
			`Q(x) :- R(x, y), R(x, y).`,
			1,
		},
		{
			"folds onto smaller pattern",
			`Q(x) :- E(x, y), E(x, z), E(z, w).`,
			2, // E(x,y) folds into E(x,z); E(z,w) stays
		},
		{
			"negation preserved",
			`Q(x) :- R(x), R(y), not S(x).`,
			2, // R(y) folds onto R(x); not S(x) must remain
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			q := cq(t, tt.src)
			m := CQ(q)
			if len(m.Body) != tt.wantBody {
				t.Errorf("minimized to %s (%d literals), want %d", m, len(m.Body), tt.wantBody)
			}
			if !containment.Equivalent(logic.AsUnion(m), logic.AsUnion(q)) {
				t.Errorf("minimization changed meaning: %s vs %s", m, q)
			}
		})
	}
}

func TestMinimizeCQExample9Exact(t *testing.T) {
	m := CQ(cq(t, `Q(x) :- F(x), B(x), B(y), F(z).`))
	want := cq(t, `Q(x) :- F(x), B(x).`)
	if !m.EqualAsSet(want) {
		t.Errorf("minimal = %s, want %s", m, want)
	}
}

func TestMinimizeUnsatisfiable(t *testing.T) {
	m := CQ(cq(t, `Q(x) :- R(x), not R(x).`))
	if !m.False {
		t.Errorf("unsatisfiable query must minimize to false, got %s", m)
	}
}

func TestMinimizeUCQExample10(t *testing.T) {
	u := ucq(t, `
		Q(x) :- F(x), G(x).
		Q(x) :- F(x), H(x), B(y).
		Q(x) :- F(x).
	`)
	m := UCQ(u)
	// Example 10: the minimal union is just Q(x) :- F(x).
	if len(m.Rules) != 1 {
		t.Fatalf("minimal union = %s, want a single rule", m)
	}
	want := cq(t, `Q(x) :- F(x).`)
	if !m.Rules[0].EqualAsSet(want) {
		t.Errorf("minimal rule = %s, want %s", m.Rules[0], want)
	}
	if !containment.Equivalent(m, u) {
		t.Error("union minimization changed meaning")
	}
}

func TestMinimizeUCQKeepsIncomparableRules(t *testing.T) {
	u := ucq(t, "Q(x) :- F(x).\nQ(x) :- G(x).")
	m := UCQ(u)
	if len(m.Rules) != 2 {
		t.Errorf("incomparable rules must both survive: %s", m)
	}
}

func TestMinimizeUCQDropsUnsatisfiableRules(t *testing.T) {
	u := ucq(t, "Q(x) :- F(x).\nQ(x) :- G(x), not G(x).")
	m := UCQ(u)
	if len(m.Rules) != 1 {
		t.Errorf("unsatisfiable disjunct must be dropped: %s", m)
	}
}

func TestMinimizeKeepsHeadCoverage(t *testing.T) {
	// R(x,y) covers head variables; S(x) is implied but removing R would
	// orphan y.
	q := cq(t, `Q(x, y) :- R(x, y), S(x).`)
	m := CQ(q)
	if !containment.Equivalent(logic.AsUnion(m), logic.AsUnion(q)) {
		t.Errorf("minimization changed meaning: %s", m)
	}
	for _, v := range m.FreeVars() {
		found := false
		for _, l := range m.Body {
			for _, w := range l.Vars() {
				if w == v {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("head variable %s lost from body: %s", v, m)
		}
	}
}

func TestCoresPreservesPositions(t *testing.T) {
	u := ucq(t, `
		Q(x) :- R(x, y), R(x, z).
		Q(x) :- S(x), not S(x).
		Q(x) :- T(x).
	`)
	cores := Cores(u, 1<<20)
	if len(cores) != len(u.Rules) {
		t.Fatalf("Cores returned %d entries for %d rules", len(cores), len(u.Rules))
	}
	if len(cores[0].Body) != 1 {
		t.Errorf("core of rule 0 = %s, want the single-literal core", cores[0])
	}
	if !cores[1].False {
		t.Errorf("core of unsatisfiable rule 1 = %s, want false", cores[1])
	}
	if !cores[2].Equal(u.Rules[2]) {
		t.Errorf("core of minimal rule 2 = %s, want it unchanged", cores[2])
	}
	// Each non-false core is equivalent to its rule.
	for i, c := range cores {
		if c.False {
			continue
		}
		if !containment.Equivalent(logic.AsUnion(c), logic.AsUnion(u.Rules[i])) {
			t.Errorf("core %d not equivalent to its rule", i)
		}
	}
}
