package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// escapeKeyValue is sources.Key's escape of one value, spelled out.
var escapeKeyValue = strings.NewReplacer("\x00", "\x00\x01", "\x1f", "\x00\x02")

// oldKey is Row.Key as a join of per-value parts, the formula it had
// before it was made to allocate once, with the escape that made it
// injective; the builder must return the same bytes (sort order,
// persisted byte accounting and every map keyed on it depend on them).
// A row whose constants hold neither \x00 nor \x1f keys exactly as
// before the escape.
func oldKey(r Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		if v.Null {
			parts[i] = "\x00null"
		} else {
			parts[i] = escapeKeyValue.Replace(v.S)
		}
	}
	return strings.Join(parts, "\x1f")
}

// oldSorted is Rel.Sorted as it was: a key on both sides of every
// comparison.
func oldSorted(rows []Row) []Row {
	out := append([]Row(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return oldKey(out[i]) < oldKey(out[j]) })
	return out
}

// randomRow draws a row of the given arity over an alphabet that
// includes the key's own separator and null marker.
func randomRow(rng *rand.Rand, arity int) Row {
	alphabet := []string{"", "a", "b", "ab", "\x1f", "\x00", "\x00null", "a\x1fb", "z"}
	row := make(Row, arity)
	for i := range row {
		if rng.Intn(5) == 0 {
			row[i] = NullValue
			continue
		}
		var sb strings.Builder
		for n := rng.Intn(3); n >= 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		row[i] = V(sb.String())
	}
	return row
}

func sameRowSlices(t *testing.T, what string, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if oldKey(got[i]) != oldKey(want[i]) {
			t.Fatalf("%s: row %d = %s, want %s", what, i, got[i], want[i])
		}
	}
}

func TestRowKeyMatchesJoinFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		row := randomRow(rng, rng.Intn(5))
		if got, want := row.Key(), oldKey(row); got != want {
			t.Fatalf("Key(%s) = %q, want %q", row, got, want)
		}
		if got, want := row.KeyLen(), len(oldKey(row)); got != want {
			t.Fatalf("KeyLen(%s) = %d, want %d", row, got, want)
		}
	}
}

// Rows that a bare join of their values confuses key apart: values
// holding the separator, and a null beside the constant its marker
// spells.
func TestRowKeysAreInjective(t *testing.T) {
	for _, pair := range [][2]Row{
		{RowOf("a\x1fb", "c"), RowOf("a", "b\x1fc")},
		{Row{NullValue}, RowOf("\x00null")},
		{Row{NullValue, V("")}, RowOf("\x00null", "")},
	} {
		if pair[0].Key() == pair[1].Key() {
			t.Errorf("%s and %s share the key %q", pair[0], pair[1], pair[0].Key())
		}
		if rel := NewRel(); !rel.Add(pair[0]) || !rel.Add(pair[1]) {
			t.Errorf("%s and %s: a relation keeps one of them", pair[0], pair[1])
		}
	}
}

func TestRowKeyAllocations(t *testing.T) {
	for _, tc := range []struct {
		row  Row
		want float64
	}{
		{Row{}, 0},
		{RowOf("only"), 0},
		{Row{NullValue}, 1},
		{RowOf("a", "b"), 1},
		{RowOf("a", "b", "c", "d", "e", "f", "g"), 1},
	} {
		if got := testing.AllocsPerRun(100, func() { _ = tc.row.Key() }); got != tc.want {
			t.Errorf("Key(%s): %v allocations, want %v", tc.row, got, tc.want)
		}
	}
}

func TestSortedMatchesPerComparisonOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		arity := rng.Intn(4)
		fresh := NewRel()
		for n := rng.Intn(40); n > 0; n-- {
			fresh.Add(randomRow(rng, arity))
		}
		want := oldSorted(fresh.Rows())
		sameRowSlices(t, "fresh", fresh.Sorted(), want)
		sameRowSlices(t, "frozen", Frozen(fresh.Rows()).Sorted(), want)
		sameRowSlices(t, "view", fresh.View().Sorted(), want)
	}
}

// TestViewSemantics: a view answers every read as an AddRows-built copy
// would, and a write to it reaches neither the base nor a sibling.
func TestViewSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		var rows []Row
		seen := map[string]bool{}
		for n := rng.Intn(20); n > 0; n-- {
			if row := randomRow(rng, 2); !seen[row.Key()] {
				seen[row.Key()] = true
				rows = append(rows, row)
			}
		}
		base := Frozen(rows)
		copied := NewRel()
		copied.AddRows(rows)
		other := NewRel()
		for n := rng.Intn(20); n > 0; n-- {
			other.Add(randomRow(rng, 2))
		}

		v := base.View()
		sameRowSlices(t, "view rows", v.Rows(), copied.Rows())
		if v.Len() != copied.Len() || v.HasNull() != copied.HasNull() {
			t.Fatalf("view: len %d null %v, copy: len %d null %v", v.Len(), v.HasNull(), copied.Len(), copied.HasNull())
		}
		if !v.Equal(copied) || !copied.Equal(base.View()) || v.Equal(other) != copied.Equal(other) {
			t.Fatal("Equal disagrees between a view and a copy")
		}
		for _, row := range append(append([]Row(nil), rows...), other.Rows()...) {
			if v.Contains(row) != copied.Contains(row) {
				t.Fatalf("Contains(%s) disagrees between a view and a copy", row)
			}
		}
		sameRowSlices(t, "view minus", base.View().Minus(other).Rows(), copied.Minus(other).Rows())
		sameRowSlices(t, "minus view", other.Minus(base.View()).Rows(), other.Minus(copied).Rows())

		// Writes: duplicates are refused, a new row lands in this view only.
		sibling := base.View()
		before := base.Sorted()
		writer := base.View()
		for _, row := range rows {
			if writer.Add(row) {
				t.Fatalf("Add(%s) of a row already in the view reported new", row)
			}
		}
		extra := Row{V("\x1fextra"), V(fmt.Sprint(i))}
		if !writer.Add(extra) || writer.Add(extra) {
			t.Fatal("Add of a new row must report new once")
		}
		extra[0] = V("mutated by the caller") // Add copied the row
		copied.Add(Row{V("\x1fextra"), V(fmt.Sprint(i))})
		sameRowSlices(t, "written view", writer.Rows(), copied.Rows())
		sameRowSlices(t, "written view sorted", writer.Sorted(), copied.Sorted())
		if writer.Len() != len(rows)+1 || base.Len() != len(rows) || sibling.Len() != len(rows) {
			t.Fatalf("after Add: writer %d base %d sibling %d rows, started from %d", writer.Len(), base.Len(), sibling.Len(), len(rows))
		}
		sameRowSlices(t, "base after a view's Add", base.Rows(), rows)
		sameRowSlices(t, "sibling after a view's Add", sibling.Rows(), rows)
		sameRowSlices(t, "base order after a view's Add", base.Sorted(), before)
		if sibling.Contains(Row{V("\x1fextra"), V(fmt.Sprint(i))}) {
			t.Fatal("a view's Add reached its sibling")
		}
	}
}

// TestViewOfGrowingRelationIsASnapshot: View on a relation that is not
// frozen fixes the rows it had.
func TestViewOfGrowingRelationIsASnapshot(t *testing.T) {
	r := NewRel()
	r.Add(RowOf("b"))
	r.Add(RowOf("a"))
	v := r.View()
	r.Add(RowOf("c"))
	v.Add(RowOf("d"))
	sameRowSlices(t, "grown base", r.Rows(), []Row{RowOf("b"), RowOf("a"), RowOf("c")})
	sameRowSlices(t, "written view", v.Sorted(), []Row{RowOf("a"), RowOf("b"), RowOf("d")})
}

func TestUnion(t *testing.T) {
	a := Frozen([]Row{RowOf("2"), RowOf("1")})
	b := Frozen([]Row{RowOf("1"), RowOf("3")})
	empty := Frozen(nil)

	one := Union([]*Rel{empty, a, nil})
	sameRowSlices(t, "single part", one.Rows(), a.Rows())
	if &one.Sorted()[0] != &a.Sorted()[0] {
		t.Fatal("the union of one non-empty part must share that part's canonical order")
	}

	both := Union([]*Rel{a, empty, b})
	sameRowSlices(t, "rule order, first occurrence", both.Rows(), []Row{RowOf("2"), RowOf("1"), RowOf("3")})
	both.Add(RowOf("4"))
	if !both.Contains(RowOf("3")) || both.Add(RowOf("2")) || a.Len() != 2 || b.Len() != 2 {
		t.Fatal("a union is a relation of its own")
	}

	if none := Union([]*Rel{empty, nil}); none.Len() != 0 || !none.Add(RowOf("x")) {
		t.Fatal("the union of nothing is an empty, writable relation")
	}
}

// TestSortedSharedAcrossViews: 32 goroutines asking views of one base
// for the canonical order get one slice (run under -race).
func TestSortedSharedAcrossViews(t *testing.T) {
	rows := make([]Row, 500)
	for i := range rows {
		rows[i] = RowOf(fmt.Sprint((i*7919)%500), "v")
	}
	base := Frozen(rows)
	firsts := make([]*Row, 32)
	var wg sync.WaitGroup
	for g := range firsts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			firsts[g] = &base.View().Sorted()[0]
		}(g)
	}
	wg.Wait()
	want := oldSorted(rows)
	sameRowSlices(t, "shared order", base.Sorted(), want)
	for g, first := range firsts {
		if first != &base.Sorted()[0] {
			t.Fatalf("goroutine %d sorted a slice of its own", g)
		}
	}
}

// benchRows are n distinct two-column rows in a scrambled order.
func benchRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = RowOf(fmt.Sprintf("k%06d", (i*7919)%n), fmt.Sprintf("v%d", i%20))
	}
	return rows
}

var (
	sinkKey  string
	sinkRows []Row
)

func BenchmarkRowKey(b *testing.B) {
	for _, cols := range []int{1, 2, 7} {
		row := make(Row, cols)
		for i := range row {
			row[i] = V(fmt.Sprintf("value%d", i))
		}
		b.Run(fmt.Sprintf("cols=%d", cols), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkKey = row.Key()
			}
		})
	}
}

// BenchmarkRelSorted: fresh is a relation that sorts on every call (one
// key per row); frozen is what a cached answer's view pays once its
// order has been computed.
func BenchmarkRelSorted(b *testing.B) {
	for _, n := range []int{10, 4000} {
		rows := benchRows(n)
		fresh := NewRel()
		fresh.AddRows(rows)
		frozen := Frozen(rows)
		frozen.Sorted() // computed by the first to ask, not by the timed calls
		for _, tc := range []struct {
			name string
			rel  func() *Rel
		}{
			{"fresh", func() *Rel { return fresh }},
			{"frozen", frozen.View},
		} {
			b.Run(fmt.Sprintf("rows=%d/%s", n, tc.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkRows = tc.rel().Sorted()
				}
			})
		}
	}
}
