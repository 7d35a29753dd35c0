package qcache

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/logic"
	"repro/internal/workload"
)

// parentFastKey is fastKey as it was rendered with one string per
// literal and per rule, sort.Strings and strings.Join, kept as the
// reference the pooled rendering is held to byte for byte.
func parentFastKey(q logic.UCQ, ps *access.Set) string {
	rules := make([]string, len(q.Rules))
	for i, r := range q.Rules {
		if r.False {
			rules[i] = r.Head().String() + " :- false"
			continue
		}
		lits := make([]string, len(r.Body))
		for j, l := range r.Body {
			lits[j] = l.Key()
		}
		sort.Strings(lits)
		rules[i] = r.Head().String() + " :- " + strings.Join(lits, ", ")
	}
	sort.Strings(rules)
	return strings.Join(rules, "\n") + "\x00" + ps.String()
}

// The fast key is the parent's, byte for byte: on the package's fixture
// texts, the paper's examples, 4 096 cold_plan unions and random
// workload draws, rendered into one reused scratch.
func TestFastKeyMatchesParent(t *testing.T) {
	ps := pats(t, "R^oo S^io L^o")
	var unions []logic.UCQ
	for _, src := range []string{
		"Q(x) :- R(x), S(x).",
		"Q(x) :- R(x), S(x), R(x).",
		"Q(x) :- S(x), R(x).\nQ(x) :- R(x), S(x).",
		"Q(x) :- false.\nQ(x) :- R(x).",
		"Q() :- true.",
		`Q(x, null) :- R(x, "a\\b\"c\nd\re\tf"), not S(x, "").`,
		`Q(x) :- R(x, "b"), R(x, "a, b"), R(x, "a").`,
		missText(7),
	} {
		unions = append(unions, q(t, src))
	}
	for _, ex := range workload.PaperExamples() {
		unions = append(unions, ex.Query)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4096; i++ {
		unions = append(unions, workload.ColdPlanQuery(rng, i))
	}
	g := workload.New(3)
	for i := 0; i < 500; i++ {
		s := g.Schema(3, 1, 3)
		cfg := workload.QueryConfig{PosLits: 1 + i%4, NegLits: i % 3, VarPool: 4, ConstProb: 0.3, HeadVars: i % 3, DomainSize: 3}
		unions = append(unions, g.UCQ(s, 1+i%3, cfg))
	}
	ks := new(keyScratch)
	for _, u := range unions {
		if got, want := string(ks.fastKey(u, ps)), parentFastKey(u, ps); got != want {
			t.Fatalf("fast key of\n%s\nis %q, want %q", u, got, want)
		}
	}
}

// The plan cache owns the plan it keeps: a submitter that overwrites
// its query afterwards changes nothing another tenant is served.
func TestPlanEntryOwnsItsQuery(t *testing.T) {
	c := New(Options{})
	ps := pats(t, "R^oo S^io L^o")
	const src = `Q(x) :- R(x, "zz"), not L(x).`
	u := q(t, src)
	e, _ := c.Plan(u, ps)
	want := e.Exec().String()
	u.Rules[0].HeadArgs[0] = logic.Var("h_mut")
	u.Rules[0].Body[0].Atom.Args[0] = logic.Var("x_mut")
	u.Rules[0].Body[1].Atom.Args[0] = logic.Const("c_mut")
	if got := e.Exec().String(); got != want {
		t.Fatalf("the entry runs %s after its submitter overwrote its query, want %s", got, want)
	}
	again, info := c.Plan(q(t, src), ps)
	if !info.Hit || again != e || again.Exec().String() != want {
		t.Fatalf("a resubmission is served %s (hit %v), want the entry's %s", again.Exec(), info.Hit, want)
	}
}

// A fast-key hit allocates nothing: the key is rendered into pooled
// scratch and looked up without becoming a string.
func TestPlanFastHitAllocs(t *testing.T) {
	c := New(Options{})
	ps := pats(t, "R^oo S^io L^o")
	u := q(t, missText(1))
	c.Plan(u, ps)
	allocs := testing.AllocsPerRun(200, func() {
		if _, info := c.Plan(u, ps); !info.Hit {
			t.Fatal("the plan lookup must hit")
		}
	})
	if limit := float64(raceAllocSlack); allocs > limit {
		t.Errorf("a fast-key hit allocated %.0f times, want at most %.0f", allocs, limit)
	}
}

// A fast key leaves the fast map with its plan entry, and no sooner: a
// hot tenant's query keeps its fast key while a second tenant's distinct
// texts, four times the plan bound, evict one another's plans, and the
// map never holds more than maxPlanAliases keys per cached plan.
func TestFastKeyLeavesWithItsPlan(t *testing.T) {
	const max = 16
	c := New(Options{MaxPlanEntries: max})
	hotPS, coldPS := pats(t, "R^oo S^io L^o"), pats(t, "R^oo S^io L^o L^i")
	hot := q(t, `Q(x) :- R(x, y), S(y, z), not L(z).`)
	ks := new(keyScratch)
	hotKey := string(ks.fastKey(hot, hotPS))
	entry, _ := c.Plan(hot, hotPS)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4*max; i++ {
		c.Plan(workload.ColdPlanQuery(rng, i), coldPS)
		c.mu.Lock()
		_, kept := c.fast[hotKey]
		fast, plans := len(c.fast), c.planLRU.Len()
		c.mu.Unlock()
		if !kept {
			t.Fatalf("after %d texts of the second tenant, the hot query's fast key is gone", i+1)
		}
		if fast > maxPlanAliases*plans {
			t.Fatalf("after %d texts, %d fast keys for %d plans", i+1, fast, plans)
		}
		if _, info := c.Plan(hot, hotPS); !info.Hit {
			t.Fatalf("after %d texts of the second tenant, the hot query missed", i+1)
		}
	}
	if st := c.Stats(); st.PlanMisses != 1+4*max {
		t.Fatalf("%d plan misses, want one per distinct text (%d)", st.PlanMisses, 1+4*max)
	}
	// A class's renderings past the bound replace its oldest: here the
	// hot text's own.
	for i := 0; i < maxPlanAliases; i++ {
		if e, _ := c.Plan(q(t, fmt.Sprintf(`Q(x) :- R(x, y), S(y, z), not L(z), R(x, v%d).`, i)), hotPS); e != entry {
			t.Fatalf("rendering %d of the hot class got an entry of its own", i)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, kept := c.fast[hotKey]; kept || len(entry.aliases) != maxPlanAliases {
		t.Fatalf("the hot entry keeps %d aliases (its first: %v), want the latest %d", len(entry.aliases), kept, maxPlanAliases)
	}
	if fast, plans := len(c.fast), c.planLRU.Len(); fast > maxPlanAliases*plans {
		t.Fatalf("%d fast keys for %d plans", fast, plans)
	}
}

// BenchmarkPlanFastHit: an exact resubmission, served by the fast key.
func BenchmarkPlanFastHit(b *testing.B) {
	c := New(Options{})
	ps := pats(b, "R^oo S^io L^o")
	u := q(b, missText(1))
	c.Plan(u, ps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, info := c.Plan(u, ps); !info.Hit {
			b.Fatal("the plan lookup must hit")
		}
	}
}
