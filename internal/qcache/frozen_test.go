package qcache

// Tests of the frozen answer tier: a stored answer is keyed, unioned and
// sorted once and handed out as views; the lock covers lookups, not
// rows; invalidation frees what it orphans.

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/qcache/persist"
	"repro/internal/sources"
)

// bigRows are n distinct two-column rows whose first column is prefixed
// by tag, in a scrambled order.
func bigRows(tag string, n int) []engine.Row {
	rows := make([]engine.Row, n)
	for i := range rows {
		rows[i] = engine.RowOf(fmt.Sprintf("%s%06d", tag, (i*7919)%n), fmt.Sprintf("v%d", i%20))
	}
	return rows
}

// warmUnion stores one answer of n rows per disjunct of a query over
// R, S (two columns, all output) and returns the cache, the plan entry
// and the catalog. Half of the second disjunct's rows repeat the first's.
func warmUnion(t testing.TB, disjuncts, n int) (*Cache, *PlanEntry, *sources.Catalog) {
	t.Helper()
	ps := pats(t, "R^oo S^oo")
	cat := engine.NewInstance().MustAdd("R", "a", "b").MustAdd("S", "a", "b").MustCatalog(ps)
	texts := []string{"Q(x, y) :- R(x, y).", "Q(x, y) :- S(x, y)."}
	u := q(t, texts[0])
	if disjuncts == 2 {
		u = q(t, texts[0]+"\n"+texts[1])
	}
	c := New(Options{})
	e, _ := c.Plan(u, ps)
	if e.Err() != nil {
		t.Fatal(e.Err())
	}
	first := bigRows("k", n)
	rels := []*engine.Rel{engine.Frozen(first)}
	if disjuncts == 2 {
		second := append(append([]engine.Row(nil), first[:n/2]...), bigRows("s", n-n/2)...)
		rels = append(rels, engine.Frozen(second))
	}
	c.StoreAnswers(e, cat, rels)
	if hit := c.Answers(e, cat); hit.Full == nil {
		t.Fatal("stored answers must be a full hit")
	}
	return c, e, cat
}

// TestFullHitAllocationsIndependentOfRows: a single-disjunct full hit
// keys, copies and sorts nothing, so it costs the same at 10 rows and
// at 4000.
func TestFullHitAllocationsIndependentOfRows(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{10, 4000} {
		c, e, cat := warmUnion(t, 1, n)
		c.Answers(e, cat).Full.Sorted() // the order is computed by the first to ask
		allocs[n] = testing.AllocsPerRun(50, func() {
			if got := len(c.Answers(e, cat).Full.Sorted()); got != n {
				t.Fatalf("%d rows, want %d", got, n)
			}
		})
	}
	if allocs[10] != allocs[4000] || allocs[10] > 8 {
		t.Fatalf("full hit + Sorted: %v allocations at 10 rows, %v at 4000; want equal and small", allocs[10], allocs[4000])
	}
}

// TestFullHitIsCallersToWrite: what a hit hands out may be added to
// without the next hit, or the entry's rows, seeing it — for a view of
// one disjunct and for an assembled union.
func TestFullHitIsCallersToWrite(t *testing.T) {
	for _, disjuncts := range []int{1, 2} {
		c, e, cat := warmUnion(t, disjuncts, 40)
		first := c.Answers(e, cat)
		want := append([]engine.Row(nil), first.Full.Rows()...)
		wantSorted := append([]engine.Row(nil), first.Full.Sorted()...)
		if !first.Full.Add(engine.RowOf("zzz", "caller's own")) || first.Full.Add(want[0]) {
			t.Fatal("a hit must accept a new row and refuse one it holds")
		}
		next := c.Answers(e, cat)
		assertRows(t, "next hit", next.Full.Rows(), want)
		assertRows(t, "next hit sorted", next.Full.Sorted(), wantSorted)
		for i, rows := range next.Rows {
			if len(rows) != 40 {
				t.Fatalf("disjunct %d holds %d rows after a caller's Add, want 40", i, len(rows))
			}
		}
	}
}

func assertRows(t *testing.T, what string, got, want []engine.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("%s: row %d = %s, want %s", what, i, got[i], want[i])
		}
	}
}

// TestAnswersAssemblesOutsideTheLock: while one goroutine keeps taking a
// 4000-row two-disjunct full hit (a union assembled per hit), lookups
// for another catalog do not queue behind the assembly. Each side's
// median is compared, so a scheduling hiccup moves neither.
func TestAnswersAssemblesOutsideTheLock(t *testing.T) {
	c, big, bigCat := warmUnion(t, 2, 4000)
	ps := pats(t, "R^o")
	small, _ := c.Plan(q(t, "Q(x) :- R(x)."), ps)
	smallCat := testCatalog(t)
	c.StoreAnswers(small, smallCat, []*engine.Rel{rel("a", "b")})

	stop, done := make(chan struct{}), make(chan []time.Duration)
	go func() {
		var took []time.Duration
		for {
			select {
			case <-stop:
				done <- took
				return
			default:
			}
			start := time.Now()
			if hit := c.Answers(big, bigCat); hit.Full == nil || hit.Full.Len() != 6000 {
				t.Error("big union must be a full hit of 6000 rows")
			}
			took = append(took, time.Since(start))
		}
	}()
	var waited []time.Duration
	for deadline := time.Now().Add(5 * time.Second); len(waited) < 500 && time.Now().Before(deadline); {
		start := time.Now()
		if hit := c.Answers(small, smallCat); hit.Full == nil {
			t.Fatal("small lookup must hit")
		}
		waited = append(waited, time.Since(start))
		time.Sleep(50 * time.Microsecond) // spread the samples over many assemblies
	}
	close(stop)
	assembled := <-done
	if len(assembled) < 5 {
		t.Skipf("only %d assemblies ran beside %d lookups; nothing to compare", len(assembled), len(waited))
	}
	median := func(d []time.Duration) time.Duration {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return d[len(d)/2]
	}
	if a, w := median(assembled), median(waited); w*4 > a {
		t.Fatalf("median lookup beside the assembly took %v, the assembly %v: lookups are waiting for it", w, a)
	}
}

// TestByteAccountingMatchesKeyLength: the recorded bytes of a stored and
// of a restored entry are what summing len(row.Key())+32 gives.
func TestByteAccountingMatchesKeyLength(t *testing.T) {
	ps := pats(t, "R^oo")
	rows := []engine.Row{
		engine.RowOf("a", "b"), {engine.NullValue, engine.V("")}, engine.RowOf("\x1f", "long value"),
	}
	var want int64
	for _, row := range rows {
		want += int64(len(row.Key())) + 32
	}
	dir := t.TempDir()
	open := func() (*Cache, *PlanEntry, *sources.Catalog) {
		c, _, err := OpenPersistent(dir, Options{}, persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cat := engine.NewInstance().MustAdd("R", "a", "b").MustCatalog(ps)
		cat.SetPersistentID("bytes")
		e, _ := c.Plan(q(t, "Q(x, y) :- R(x, y)."), ps)
		return c, e, cat
	}
	c, e, cat := open()
	c.StoreAnswers(e, cat, []*engine.Rel{engine.Frozen(rows)})
	if c.ansBytes != want {
		t.Fatalf("stored entry accounts %d bytes, want %d", c.ansBytes, want)
	}
	if err := c.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	c, e, cat = open()
	defer c.ClosePersist()
	if hit := c.Answers(e, cat); hit.Full == nil || hit.Full.Len() != len(rows) {
		t.Fatal("reopened cache must restore the entry")
	}
	if st := c.Stats(); c.ansBytes != want || st.PersistBytes != want {
		t.Fatalf("restored entry accounts %d bytes (stats %d), want %d", c.ansBytes, st.PersistBytes, want)
	}
	assertIndex(t, c)
}

// TestInvalidateCatalogFreesItsEntries: InvalidateCatalog drops the
// invalidated catalog's entries — count and bytes — at once, leaves the
// sibling's alone, counts no eviction, and a reopened persistent cache
// restores nothing for the invalidated label.
func TestInvalidateCatalogFreesItsEntries(t *testing.T) {
	ps := pats(t, "R^o S^o T^o")
	dir := t.TempDir()
	c, _, err := OpenPersistent(dir, Options{}, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	catalogs := map[string]*sources.Catalog{"kept": testCatalog(t), "dropped": testCatalog(t)}
	var entries []*PlanEntry
	for _, text := range []string{"Q(x) :- R(x).", "Q(x) :- S(x).", "Q(x) :- T(x).", "Q(x) :- R(x), S(x)."} {
		e, _ := c.Plan(q(t, text), ps)
		entries = append(entries, e)
	}
	for label, cat := range catalogs {
		cat.SetPersistentID(label)
		for i, e := range entries {
			// Different sizes per catalog, so a share is told from a half.
			n := 3 + i
			if label == "dropped" {
				n = 11 + 2*i
			}
			rows := make([]engine.Row, n)
			for k := range rows {
				rows[k] = engine.RowOf(fmt.Sprint(label, k))
			}
			c.StoreAnswers(e, cat, []*engine.Rel{engine.Frozen(rows)})
		}
	}
	share := func(label string) (n int, bytes int64) {
		for elem := c.ansLRU.Front(); elem != nil; elem = elem.Next() {
			if a := elem.Value.(*ansEntry); a.catFP == catFingerprint(catalogs[label]) {
				n++
				bytes += a.bytes
			}
		}
		return n, bytes
	}
	keptN, keptBytes := share("kept")
	droppedN, droppedBytes := share("dropped")
	if keptN != len(entries) || droppedN != len(entries) || c.ansBytes != keptBytes+droppedBytes {
		t.Fatalf("set-up: %d + %d entries, %d bytes of %d", keptN, droppedN, keptBytes+droppedBytes, c.ansBytes)
	}

	// A raw Catalog.Invalidate cannot reach the cache: its entries stay
	// until InvalidateCatalog (or LRU pressure) finds them.
	catalogs["dropped"].Invalidate()
	if _, answers := c.Len(); answers != keptN+droppedN {
		t.Fatalf("raw Invalidate left %d entries, want %d", answers, keptN+droppedN)
	}
	c.InvalidateCatalog(catalogs["dropped"])
	if _, answers := c.Len(); answers != keptN || c.ansBytes != keptBytes {
		t.Fatalf("after InvalidateCatalog: %d entries / %d bytes, want %d / %d", answers, c.ansBytes, keptN, keptBytes)
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("invalidation counted %d evictions; Evictions is capacity, bytes and TTL", ev)
	}
	assertIndex(t, c)
	for i, e := range entries {
		calls := catalogs["kept"].TotalStats().Calls
		if hit := c.Answers(e, catalogs["kept"]); hit.Full == nil || hit.Full.Len() != 3+i {
			t.Fatalf("sibling entry %d must still be a full hit", i)
		}
		if catalogs["kept"].TotalStats().Calls != calls {
			t.Fatal("a hit must make no source call")
		}
		if hit := c.Answers(e, catalogs["dropped"]); hit.Full != nil || hit.CachedRules != 0 {
			t.Fatalf("invalidated entry %d must miss", i)
		}
	}

	if err := c.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	c, _, err = OpenPersistent(dir, Options{}, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.ClosePersist()
	for label := range catalogs {
		cat := testCatalog(t)
		cat.SetPersistentID(label)
		for i, e := range entries {
			e, _ = c.Plan(e.Exec(), ps)
			if hit := c.Answers(e, cat); (hit.Full != nil) != (label == "kept") {
				t.Fatalf("reopened: %s entry %d full hit = %v", label, i, hit.Full != nil)
			}
		}
	}
	if st := c.Stats(); st.PersistLoads != keptN {
		t.Fatalf("reopened cache restored %d entries, want the %d of the sibling", st.PersistLoads, keptN)
	}
	assertIndex(t, c)
}

func BenchmarkAnswersFullHit(b *testing.B) {
	for _, n := range []int{10, 4000} {
		for _, disjuncts := range []int{1, 2} {
			b.Run(fmt.Sprintf("rows=%d/disjuncts=%d", n, disjuncts), func(b *testing.B) {
				c, e, cat := warmUnion(b, disjuncts, n)
				want := len(c.Answers(e, cat).Full.Sorted()) // and the order is computed
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if got := len(c.Answers(e, cat).Full.Sorted()); got != want {
						b.Fatalf("%d rows, want %d", got, want)
					}
				}
			})
		}
	}
}
