package qcache

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/containment"
	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/minimize"
	"repro/internal/parser"
	"repro/internal/qcache/persist"
	"repro/internal/sources"
	"repro/internal/workload"
)

// checkIndexLocked verifies the equivalence index against the LRU: every
// resident answer entry is in exactly one bucket, the one its catalog
// fingerprint and signature name, and no bucket is empty or holds an
// entry that was removed. c.mu must be held.
func checkIndexLocked(c *Cache) error {
	resident := map[*ansEntry]bool{}
	for elem := c.ansLRU.Front(); elem != nil; elem = elem.Next() {
		a := elem.Value.(*ansEntry)
		resident[a] = true
		if a.sig != coreSig(a.core) {
			return fmt.Errorf("entry %q carries signature %q, its core has %q", a.key, a.sig, coreSig(a.core))
		}
	}
	seen := map[*ansEntry]bool{}
	for bk, bucket := range c.buckets {
		if len(bucket) == 0 {
			return fmt.Errorf("bucket %q is empty but present", bk)
		}
		for _, a := range bucket {
			switch {
			case !resident[a]:
				return fmt.Errorf("bucket %q holds removed entry %q", bk, a.key)
			case seen[a]:
				return fmt.Errorf("entry %q is in two buckets or twice in one", a.key)
			case bk != bucketKey{a.catFP, a.sig}:
				return fmt.Errorf("entry %q (%q, %q) is in bucket %q", a.key, a.catFP, a.sig, bk)
			}
			seen[a] = true
		}
	}
	if len(seen) != len(resident) || len(resident) != len(c.answers) {
		return fmt.Errorf("%d entries in the LRU, %d in the key map, %d in buckets", len(resident), len(c.answers), len(seen))
	}
	return nil
}

func assertIndex(t testing.TB, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := checkIndexLocked(c); err != nil {
		t.Fatal(err)
	}
}

// TestCoreSigNecessaryForEquivalence: over a 2-relation, 2-constant
// schema, no two equivalent satisfiable rules have different signatures
// — whether both are random draws or one is the other minimized,
// padded, α-renamed or part-minimized.
func TestCoreSigNecessaryForEquivalence(t *testing.T) {
	g := workload.New(5)
	rng := rand.New(rand.NewSource(5))
	schema := workload.Schema{Relations: []workload.RelDef{{Name: "A", Arity: 1}, {Name: "B", Arity: 2}}}
	draw := func(i int) logic.CQ {
		for {
			r := g.CQ(schema, workload.QueryConfig{
				PosLits: 1 + i%3, NegLits: i % 2, VarPool: 2 + i%2,
				ConstProb: 0.25, HeadVars: 1, DomainSize: 2,
			})
			if i%4 == 3 && len(r.HeadArgs) > 0 {
				// A constant in the head (and wherever else the variable was).
				r = logic.Subst{r.HeadArgs[0].Name: logic.Const(fmt.Sprint("c", rng.Intn(2)))}.CQ(r)
			}
			if containment.Satisfiable(r) {
				return r
			}
		}
	}
	pairs, equivalent := 0, 0
	check := func(a, b logic.CQ) {
		pairs++
		if !containment.Equivalent(logic.AsUnion(a), logic.AsUnion(b)) {
			return
		}
		equivalent++
		if sa, sb := coreSig(a), coreSig(b); sa != sb {
			t.Fatalf("equivalent rules with different signatures:\n %s  [%s]\n %s  [%s]", a, sa, b, sb)
		}
	}
	var pool []logic.CQ
	for i := 0; i < 600; i++ {
		r := draw(i)
		pool = append(pool, r)
		padded := workload.PadRedundant(workload.AlphaRename(logic.AsUnion(r), "p")).Rules[0]
		check(r, padded)
		check(padded, minimize.CQ(r))
		// Minimization cut short: some literals folded away, some not.
		check(r, minimize.Cores(logic.AsUnion(padded), 1+i%4)[0])
	}
	for i := 0; i < 6000; i++ {
		check(pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))])
	}
	if equivalent < 1500 || equivalent > pairs*3/4 {
		t.Fatalf("%d of %d pairs equivalent: the draw exercises too little of one side", equivalent, pairs)
	}
}

var indexPatterns = parser.MustPatterns("R^o S^o T^o")

// indexTexts are the queries the bookkeeping test plans. A planning
// budget of 1 is spent before a negated literal can be tested, so each
// text padded with a second variable keeps its "not S(y)" and gets a key
// of its own, the signature of its plain form, and an equivalent core:
// looking one up after storing the other installs an alias.
var indexTexts = []string{
	"Q(x) :- R(x).", "Q(x) :- S(x).", "Q(x) :- T(x).", "Q(x) :- R(x), S(x).",
	"Q(x) :- R(x), not S(x).", "Q(x) :- R(x), R(y), not S(x), not S(y).",
	"Q(x) :- S(x), not T(x).", "Q(x) :- S(x), S(y), not T(x), not T(y).",
	`Q(x) :- R(x), S("b").`, "Q(x) :- R(x). Q(x) :- T(x), not S(x).",
}

// indexQueries parses indexTexts.
func indexQueries(t testing.TB) []logic.UCQ {
	out := make([]logic.UCQ, len(indexTexts))
	for i, text := range indexTexts {
		out[i] = q(t, text)
	}
	return out
}

// indexOp applies one random cache operation.
func indexOp(c *Cache, rng *rand.Rand, queries []logic.UCQ, cats []*sources.Catalog, advance func(time.Duration)) {
	e, _ := c.Plan(queries[rng.Intn(len(queries))], indexPatterns)
	cat := cats[rng.Intn(len(cats))]
	switch k := rng.Intn(20); {
	case k < 8:
		rels := make([]*engine.Rel, len(e.Exec().Rules))
		for i := range rels {
			rels[i] = rel(fmt.Sprint("row", rng.Intn(1000)), strings.Repeat("a", 1+rng.Intn(40)))
		}
		c.StoreAnswers(e, cat, rels)
	case k < 16:
		c.Answers(e, cat)
	case k < 17:
		advance(25 * time.Second)
	case k < 19:
		c.InvalidateCatalog(cat)
	default:
		c.Purge()
	}
}

// TestEquivIndexBookkeeping drives stores, lookups that install aliases,
// entry- and byte-bound evictions, TTL expiry, InvalidateCatalog, Purge
// and close-and-reopen restores in random order and checks the index
// after every step.
func TestEquivIndexBookkeeping(t *testing.T) {
	for _, bounds := range []Options{{MaxAnswerEntries: 5}, {MaxAnswerBytes: 400}} {
		now := time.Unix(1_700_000_000, 0)
		opt := bounds
		opt.FeasibleBudget, opt.TTL, opt.Now = 1, time.Minute, func() time.Time { return now }
		dir := t.TempDir()
		open := func() *Cache {
			c, _, err := OpenPersistent(dir, opt, persist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		cats := []*sources.Catalog{testCatalog(t), testCatalog(t), testCatalog(t)}
		cats[0].SetPersistentID("one")
		cats[1].SetPersistentID("two")
		rng := rand.New(rand.NewSource(42))
		queries := indexQueries(t)
		c := open()
		var total Stats
		for step := 0; step < 1500; step++ {
			if step%100 == 99 {
				st := c.Stats()
				total.EquivHits += st.EquivHits
				total.Evictions += st.Evictions
				total.PersistLoads += st.PersistLoads
				if err := c.ClosePersist(); err != nil {
					t.Fatal(err)
				}
				c = open()
			}
			indexOp(c, rng, queries, cats, func(d time.Duration) { now = now.Add(d) })
			assertIndex(t, c)
		}
		if err := c.ClosePersist(); err != nil {
			t.Fatal(err)
		}
		if total.EquivHits == 0 || total.Evictions == 0 || total.PersistLoads == 0 {
			t.Fatalf("%+v: the run installed %d aliases, evicted %d and restored %d entries; want some of each",
				bounds, total.EquivHits, total.Evictions, total.PersistLoads)
		}
	}
}

// TestEquivIndexConcurrent is the same mix from eight goroutines on one
// cache (run under -race): the index is consistent at the end.
func TestEquivIndexConcurrent(t *testing.T) {
	var clock sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	c := New(Options{
		MaxAnswerEntries: 6, FeasibleBudget: 1, TTL: time.Minute,
		Now: func() time.Time { clock.Lock(); defer clock.Unlock(); return now },
	})
	cats := []*sources.Catalog{testCatalog(t), testCatalog(t)}
	queries := indexQueries(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for step := 0; step < 300; step++ {
				indexOp(c, rng, queries, cats, func(d time.Duration) { clock.Lock(); now = now.Add(d); clock.Unlock() })
			}
		}(w)
	}
	wg.Wait()
	assertIndex(t, c)
	if st := c.Stats(); st.EquivHits == 0 || st.Evictions == 0 {
		t.Fatalf("the run installed %d aliases and evicted %d entries; want some of each", st.EquivHits, st.Evictions)
	}
}

// missFixture returns a cache whose answer tier holds n entries for cat,
// each under a text with a constant of its own, and the plan of one more
// such text, which no entry answers.
func missFixture(b *testing.B, n int) (*Cache, *PlanEntry, *sources.Catalog) {
	c := New(Options{MaxPlanEntries: -1, MaxAnswerEntries: -1})
	ps := pats(b, "R^oo S^io L^o")
	cat := engine.NewInstance().MustAdd("R", "a", "b").MustAdd("S", "b", "c").MustAdd("L", "a").MustCatalog(ps)
	for i := 0; i < n; i++ {
		e, _ := c.Plan(q(b, missText(i)), ps)
		c.StoreAnswers(e, cat, []*engine.Rel{engine.Frozen([]engine.Row{engine.RowOf("a", "b")})})
	}
	e, _ := c.Plan(q(b, missText(n)), ps)
	return c, e, cat
}

// missText is the i-th text of the miss benchmarks: a two-literal join
// with a redundant literal, a negation, and a constant no other text has.
func missText(i int) string {
	return fmt.Sprintf(`Q(x, y) :- R(x, z), S(z, y), R(x, u), not L(x), R(x, "k%d"), S(z, y).`, i)
}

// BenchmarkAnswersMiss: an answer-tier miss beside 16 and beside 1024
// cached entries of other signatures costs the same.
func BenchmarkAnswersMiss(b *testing.B) {
	for _, n := range []int{16, 1024} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			c, e, cat := missFixture(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if hit := c.Answers(e, cat); hit.Full != nil {
					b.Fatal("the lookup must miss")
				}
			}
		})
	}
}

// BenchmarkPlanMiss: planning a text the cache has not seen (distinct
// texts round-robin over a plan cache of 512, so every Plan builds).
func BenchmarkPlanMiss(b *testing.B) {
	c := New(Options{MaxPlanEntries: 512})
	ps := pats(b, "R^oo S^io L^o")
	texts := make([]logic.UCQ, 2048)
	for i := range texts {
		texts[i] = q(b, missText(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, info := c.Plan(texts[i%len(texts)], ps); info.Hit {
			b.Fatal("the plan lookup must miss")
		}
	}
}
