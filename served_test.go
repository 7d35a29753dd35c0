package ucqn

// How a served answer is assembled: the union of a query's rules in
// rule order, first occurrence kept, and its canonical sort, whichever
// path builds it — and what assembling it costs.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// refKey is a row's key spelled out: each constant with \x00 and \x1f
// escaped, a null as "\x00null", joined by \x1f. The union and sort
// references below are built on it alone.
func refKey(r Row) string {
	esc := strings.NewReplacer("\x00", "\x00\x01", "\x1f", "\x00\x02")
	parts := make([]string, len(r))
	for i, v := range r {
		if v.Null {
			parts[i] = "\x00null"
		} else {
			parts[i] = esc.Replace(v.S)
		}
	}
	return strings.Join(parts, "\x1f")
}

func sameRowsByRefKey(t *testing.T, what string, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if refKey(got[i]) != refKey(want[i]) {
			t.Fatalf("%s: row %d = %s, want %s", what, i, got[i], want[i])
		}
	}
}

// A union of three rules that overlap — rule 2 repeats some of rule 1's
// rows and rule 3 some of both — answers with the same rows in the same
// order and sorts the same whether it runs sequentially, with parallel
// rules, as a cached miss, as a cached full hit, or through ANSWER*.
// The reference is each rule's own answer, concatenated in rule order
// with later repeats dropped by refKey, and sorted by refKey.
func TestUnionOrderAcrossPaths(t *testing.T) {
	rules := []string{
		`Q(x, y) :- R(x, z), S(z, y).`,
		`Q(x, y) :- T(x, y).`,
		`Q(x, y) :- R(x, y), not N(y).`,
	}
	ps := MustParsePatterns(`R^oo S^io T^oo N^i`)
	in := NewInstance()
	vals := []string{"a", "a\x1fb", "\t", "b", "", "a\x00", "z"}
	for i := 0; i < 24; i++ {
		x, z := vals[i%len(vals)]+fmt.Sprint(i%5), fmt.Sprintf("z%d", i%3)
		in.MustAdd("R", x, z)
		in.MustAdd("S", z, vals[(i*3)%len(vals)])
		if i%2 == 0 {
			in.MustAdd("T", x, vals[(i*3)%len(vals)]) // some of rule 1's rows
		}
		in.MustAdd("T", x, z) // some of rule 3's rows
	}
	in.MustAdd("N", "z1")
	cat := in.MustCatalog(ps)
	ctx := context.Background()

	var want []Row
	seen := map[string]bool{}
	for _, r := range rules {
		rel, err := execAnswer(MustParseQuery(r), ps, cat)
		if err != nil {
			t.Fatal(err)
		}
		repeats := 0
		for _, row := range rel.Rows() {
			if k := refKey(row); !seen[k] {
				seen[k] = true
				want = append(want, row)
			} else {
				repeats++
			}
		}
		if rel.Len() == 0 || (len(want) > rel.Len() && repeats == 0) {
			t.Fatalf("fixture: %s answers %d rows, %d of them an earlier rule's", r, rel.Len(), repeats)
		}
	}
	wantSorted := append([]Row(nil), want...)
	sort.Slice(wantSorted, func(i, j int) bool { return refKey(wantSorted[i]) < refKey(wantSorted[j]) })
	q := MustParseQuery(strings.Join(rules, "\n"))

	check := func(label string, opts ...ExecOption) *Result {
		t.Helper()
		res, err := Exec(ctx, q, ps, cat, opts...)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		rel, err := res.Rel()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameRowsByRefKey(t, label, rel.Rows(), want)
		sameRowsByRefKey(t, label+", sorted", rel.Sorted(), wantSorted)
		return res
	}
	seq := check("sequential")
	check("parallel rules", WithParallelRules())
	qc := NewQueryCache(QueryCacheOptions{})
	if prof, _ := check("cached miss", WithQueryCache(qc), WithProfile()).Profile(); prof.Cache.AnswerHits != 0 {
		t.Fatal("the first cached run was an answer hit")
	}
	if prof, _ := check("cached full hit", WithQueryCache(qc), WithProfile()).Profile(); prof.Cache.AnswerHits != 1 {
		t.Fatal("the second cached run was no full answer hit")
	}
	check("cached, parallel rules", WithQueryCache(NewQueryCache(QueryCacheOptions{DisableAnswers: true})), WithParallelRules())
	star, _ := seq.Report()
	sameRowsByRefKey(t, "ANSWER* overestimate", star.Over.Rows(), want)
	sameRowsByRefKey(t, "ANSWER* overestimate, sorted", star.Over.Sorted(), wantSorted)
	if star.Delta.Len() != 0 || !star.Complete() {
		t.Fatalf("ANSWER*: Δ has %d rows, want a complete answer", star.Delta.Len())
	}
}

// e25Instance is the E25 join's data (internal/engine's e25Fixture, the
// repo benchmark's join_eval): R 4000 rows × 7 columns over 20 join
// keys, S fan-out 8, T, and N on every fourth key.
func e25Instance() (Query, *PatternSet, *Instance) {
	const baseRows, keys, fanout = 4000, 20, 8
	in := NewInstance()
	for i := 0; i < baseRows; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i),
			fmt.Sprintf("a%d", i%7), fmt.Sprintf("b%d", i%11), fmt.Sprintf("c%d", i%13),
			fmt.Sprintf("d%d", i%3), fmt.Sprintf("e%d", i%5),
			fmt.Sprintf("z%d", i%keys))
	}
	for z := 0; z < keys; z++ {
		for j := 0; j < fanout; j++ {
			in.MustAdd("S", fmt.Sprintf("z%d", z), fmt.Sprintf("w%d", j))
		}
	}
	for j := 0; j < fanout; j++ {
		in.MustAdd("T", fmt.Sprintf("w%d", j), fmt.Sprintf("y%d", j))
	}
	for z := 0; z < keys; z += 4 {
		in.MustAdd("N", fmt.Sprintf("z%d", z))
	}
	q := MustParseQuery(`Q(z, y) :- R(x, a, b, c, d, e, z), S(z, w), T(w, y), not N(z).`)
	return q, MustParsePatterns(`R^ooooooo S^io T^io N^i`), in
}

// A served answer on the E25 join, its 120 rows sorted: a warm
// cached-plan Exec plus Sorted allocates 249 times (793 before rule
// programs were kept on the plan entry, head rows cut from one slab,
// and the union and its sort built no key and copied no row), and an
// uncached one 295 (797 before).
func TestServedAnswerAllocs(t *testing.T) {
	q, ps, in := e25Instance()
	cat := in.MustCatalog(ps)
	ctx := context.Background()
	serve := func(opts ...ExecOption) func() {
		return func() {
			res, err := Exec(ctx, q, ps, cat, opts...)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := res.Rel()
			if err != nil {
				t.Fatal(err)
			}
			if rows := rel.Sorted(); len(rows) != 120 {
				t.Fatalf("%d rows, want 120", len(rows))
			}
		}
	}
	cached := serve(WithQueryCache(NewQueryCache(QueryCacheOptions{DisableAnswers: true})))
	cached() // plan the query, compile its rule, intern the data
	for _, tc := range []struct {
		name  string
		serve func()
		limit float64
	}{
		{"cached plan", cached, 249 + 12},
		{"uncached", serve(), 295 + 12},
	} {
		if got := testing.AllocsPerRun(20, tc.serve); got > tc.limit {
			t.Errorf("%s: Exec and Sorted allocated %.0f times, want at most %.0f", tc.name, got, tc.limit)
		}
	}
}
