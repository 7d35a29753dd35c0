package containment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/logic"
	"repro/internal/workload"
)

func TestCanonicalKeyAlphaInvariance(t *testing.T) {
	pairs := []struct{ a, b string }{
		{`Q(x) :- R(x, y), S(y, z).`, `Q(u) :- R(u, w2), S(w2, k).`},
		{`Q(x, y) :- R(x, z), not S(z), B(x, y).`, `Q(a, b) :- R(a, c), not S(c), B(a, b).`},
		{`Q(x) :- R(x, y), R(y, x).`, `Q(p) :- R(q, p), R(p, q).`},
		{`Q() :- E(a, b), E(b, c), E(c, a).`, `Q() :- E(z2, z0), E(z0, z1), E(z1, z2).`},
		{`Q(x) :- R(x, "c").`, `Q(v9) :- R(v9, "c").`},
	}
	for i, p := range pairs {
		ka, kb := CanonicalKey(cq(t, p.a)), CanonicalKey(cq(t, p.b))
		if ka != kb {
			t.Errorf("pair %d: keys differ:\n  %s -> %s\n  %s -> %s", i, p.a, ka, p.b, kb)
		}
	}
}

func TestCanonicalKeyOrderAndDuplicates(t *testing.T) {
	a := cq(t, `Q(x) :- R(x, y), S(y), R(x, y).`)
	b := cq(t, `Q(x) :- S(y), R(x, y).`)
	if ka, kb := CanonicalKey(a), CanonicalKey(b); ka != kb {
		t.Errorf("literal order/duplication must not matter: %q vs %q", ka, kb)
	}
	c, _ := CanonicalForm(a)
	if len(c.Body) != 2 {
		t.Errorf("canonical form must drop duplicates, got %s", c)
	}
}

func TestCanonicalKeyDistinguishes(t *testing.T) {
	pairs := []struct{ a, b string }{
		// Join shape differs.
		{`Q(x) :- R(x, y), S(y, z).`, `Q(x) :- R(x, y), S(z, y).`},
		// Head order is part of the query.
		{`Q(x, y) :- R(x, y).`, `Q(y, x) :- R(x, y).`},
		// Sign differs.
		{`Q(x) :- R(x), S(x).`, `Q(x) :- R(x), not S(x).`},
		// Constant vs variable.
		{`Q(x) :- R(x, "c").`, `Q(x) :- R(x, y).`},
		// Different constants.
		{`Q(x) :- R(x, "c").`, `Q(x) :- R(x, "d").`},
		// Self-join vs chain.
		{`Q(x) :- R(x, x).`, `Q(x) :- R(x, y).`},
	}
	for i, p := range pairs {
		ka, kb := CanonicalKey(cq(t, p.a)), CanonicalKey(cq(t, p.b))
		if ka == kb {
			t.Errorf("pair %d: distinct queries share key %q", i, ka)
		}
	}
}

func TestCanonicalKeySymmetricTies(t *testing.T) {
	// A highly symmetric body: every variable has the same local
	// signature, so the search must branch on ties. Any rotation of the
	// cycle is isomorphic and must key identically.
	mk := func(names ...string) logic.CQ {
		q := logic.CQ{HeadPred: "Q"}
		for i := range names {
			q.Body = append(q.Body, logic.Pos(logic.NewAtom("E",
				logic.Var(names[i]), logic.Var(names[(i+1)%len(names)]))))
		}
		return q
	}
	base := CanonicalKey(mk("a", "b", "c", "d"))
	for _, perm := range [][]string{
		{"b", "c", "d", "a"},
		{"d", "a", "b", "c"},
		{"w", "x", "y", "z"},
	} {
		if k := CanonicalKey(mk(perm...)); k != base {
			t.Errorf("rotation %v keys %q, want %q", perm, k, base)
		}
	}
}

func TestCanonicalKeyFalseAndUCQ(t *testing.T) {
	f := logic.FalseQuery("Q", []logic.Term{logic.Var("weird")})
	if k := CanonicalKey(f); k != `Q(h0) :- false` {
		t.Errorf("false key = %q", k)
	}
	u1 := ucq(t, "Q(x) :- R(x).\nQ(x) :- S(x, y).")
	u2 := ucq(t, "Q(a) :- S(a, b).\nQ(a) :- R(a).")
	if CanonicalKeyUCQ(u1) != CanonicalKeyUCQ(u2) {
		t.Error("disjunct order and renaming must not change the UCQ key")
	}
	u3 := ucq(t, "Q(x) :- R(x).")
	if CanonicalKeyUCQ(u1) == CanonicalKeyUCQ(u3) {
		t.Error("different unions must not collide")
	}
}

func TestCanonicalizeEquivalentToInput(t *testing.T) {
	// The canonical form must be equivalent to the input (it is the
	// same query up to renaming), checked with the checker itself.
	srcs := []string{
		`Q(x) :- R(x, y), S(y, z), not T(z).`,
		`Q(x, y) :- R(x, z), B(x, y), not S(z).`,
		`Q() :- E(a, b), E(b, c), E(c, a).`,
	}
	for _, src := range srcs {
		q := cq(t, src)
		c, _ := CanonicalForm(q)
		if !Equivalent(logic.AsUnion(q), logic.AsUnion(c)) {
			t.Errorf("canonical form of %s is not equivalent: %s", q, c)
		}
	}
}

func TestCanonicalKeyBudgetFallbackDeterministic(t *testing.T) {
	// A clique larger than the leaf budget can absorb: the fallback
	// assignment must still be deterministic and rename-invariant for
	// identical structures (here: the same query under two namings that
	// sort the same way relative to signatures).
	mk := func(prefix string, n int) logic.CQ {
		q := logic.CQ{HeadPred: "Q"}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					q.Body = append(q.Body, logic.Pos(logic.NewAtom("E",
						logic.Var(fmt.Sprintf("%s%d", prefix, i)),
						logic.Var(fmt.Sprintf("%s%d", prefix, j)))))
				}
			}
		}
		return q
	}
	k1, k2 := CanonicalKey(mk("a", 8)), CanonicalKey(mk("b", 8))
	if k1 != k2 {
		t.Errorf("clique keys differ under renaming: %q vs %q", k1, k2)
	}
	if k1 != CanonicalKey(mk("a", 8)) {
		t.Error("canonical key must be deterministic")
	}
}

// CanonicalForm's key is CanonicalKey's and the rendering of its form,
// on every rule of the corpus, and the corpus's keys are byte for byte
// those the search produced before CanonicalForm existed (the digest
// was taken then): plan keys and persisted answer keys are these
// strings, so a cache directory written earlier still matches.
func TestCanonicalFormKeyIsTheRendering(t *testing.T) {
	corpus := canonCorpus()
	keys := make([]string, len(corpus))
	for i, q := range corpus {
		form, key := CanonicalForm(q)
		if k := CanonicalKey(q); k != key {
			t.Fatalf("%s: CanonicalKey %q, CanonicalForm key %q", q, k, key)
		}
		if r := form.String(); r != key {
			t.Fatalf("%s: the form renders %q, its key is %q", q, r, key)
		}
		keys[i] = key
	}
	const want = "0d39b303078f95af261c3dfa6f395c002fa04664266838baa5b7d831be459333"
	if len(corpus) != 272 {
		t.Fatalf("the corpus has %d rules, want 272: the digest below is for that corpus", len(corpus))
	}
	if got := corpusDigest(keys); got != want {
		t.Errorf("canonical keys changed: digest %s, want %s", got, want)
	}
}

// canonCorpus is a fixed corpus of rules from the workload generators:
// random CQ¬ over several seeds and shapes (with constants, negation
// and heads of zero to two variables), their α-renamed and padded
// variants, the scaling families, the paper's examples, a cycle and a
// clique (the search's tie branching and its budget fallback), and a
// query with control characters in its constants.
func canonCorpus() []logic.CQ {
	var out []logic.CQ
	add := func(u logic.UCQ) { out = append(out, u.Rules...) }
	for seed := int64(1); seed <= 12; seed++ {
		g := workload.New(seed)
		s := g.Schema(4, 1, 3)
		for _, cfg := range []workload.QueryConfig{
			workload.DefaultQueryConfig(),
			{PosLits: 3, NegLits: 2, VarPool: 4, ConstProb: 0.4, HeadVars: 1, DomainSize: 3},
			{PosLits: 5, NegLits: 0, VarPool: 3, ConstProb: 0, HeadVars: 0, DomainSize: 2},
		} {
			u := g.UCQ(s, 2, cfg)
			add(u)
			add(workload.AlphaRename(u, "a"))
			add(workload.PadRedundant(u))
		}
	}
	for n := 1; n <= 4; n++ {
		chain, _ := workload.ChainQuery(n)
		star, _ := workload.StarQuery(n)
		out = append(out, chain, workload.Reversed(chain), star)
		hard, _ := workload.CaseSplitFamily(n)
		easy, _ := workload.EasyFamily(n)
		add(hard)
		add(easy)
	}
	for _, ex := range workload.PaperExamples() {
		add(ex.Query)
	}
	for _, n := range []int{4, 6} {
		edges := logic.CQ{HeadPred: "Q"}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j == (i+1)%n || (n == 6 && i != j) {
					edges.Body = append(edges.Body, logic.Pos(logic.NewAtom("E",
						logic.Var(fmt.Sprintf("n%d", i)), logic.Var(fmt.Sprintf("n%d", j)))))
				}
			}
		}
		out = append(out, edges)
	}
	out = append(out, logic.CQ{HeadPred: "Q", HeadArgs: []logic.Term{logic.Var("x")}, Body: []logic.Literal{
		logic.Pos(logic.NewAtom("R", logic.Var("x"), logic.Const("a\\b\"c\nd\re\tf"), logic.Var("y"))),
		logic.Neg(logic.NewAtom("S", logic.Var("y"), logic.Const(""))),
	}})
	return out
}

func corpusDigest(keys []string) string {
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
