package engine

import (
	"context"
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
// includes the key's own separator and null marker, and a byte below
// the separator that needs no escape.
func randomRow(rng *rand.Rand, arity int) Row {
	alphabet := []string{"", "a", "b", "ab", "\x1f", "\x00", "\x00null", "a\x1fb", "z", "\t"}
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

// TestRelMembershipIsInjective: rows a bare join of their values
// confuses, and a null beside the constants its key marker and "" spell,
// stay two rows under every membership operation.
func TestRelMembershipIsInjective(t *testing.T) {
	for _, pair := range [][2]Row{
		{RowOf("a\x1fb", "c"), RowOf("a", "b\x1fc")},
		{Row{NullValue}, RowOf("\x00null")},
		{Row{NullValue, V("")}, RowOf("\x00null", "")},
		{Row{NullValue}, RowOf("")},
		{RowOf("ab", ""), RowOf("a", "b")},
	} {
		a, b := pair[0], pair[1]
		rel := NewRel()
		if !rel.Add(a) || rel.Contains(b) || !rel.Add(b) || rel.Len() != 2 {
			t.Errorf("Add: %s and %s are not two rows", a, b)
		}
		if !rel.Contains(a) || !rel.Contains(b) || rel.Contains(Row{NullValue, NullValue}) {
			t.Errorf("Contains: %s and %s", a, b)
		}
		only := func(r Row) *Rel { return Frozen([]Row{r}) }
		if u := Union([]*Rel{only(a), only(b)}); u.Len() != 2 {
			t.Errorf("Union of %s and %s has %d rows", a, b, u.Len())
		}
		if d := only(a).Minus(only(b)); d.Len() != 1 || !d.Contains(a) {
			t.Errorf("%s minus %s has %d rows", a, b, d.Len())
		}
		adopted := NewRel()
		if adopted.adopt([]Row{a}) != 1 || adopted.adopt([]Row{b}) != 1 || adopted.Len() != 2 {
			t.Errorf("adopt: %s and %s are not two rows", a, b)
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

// FuzzSortedOrder holds compareRows and Sorted to the key order on rows
// the fuzzer spells: every pair compares as strings.Compare of its
// oldKeys, and a relation of them sorts as oldSorted does. More seeds
// are in testdata/fuzz/FuzzSortedOrder.
func FuzzSortedOrder(f *testing.F) {
	f.Add([]byte("\x02\x01a\x02ab\x02\x01a\xff\x01\x02a\x1f\x02\x01\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := fuzzRows(data)
		for _, a := range rows {
			for _, b := range rows {
				if got, want := compareRows(a, b), strings.Compare(oldKey(a), oldKey(b)); got != want {
					t.Fatalf("compareRows(%s, %s) = %d, keys %q and %q compare %d", a, b, got, oldKey(a), oldKey(b), want)
				}
			}
		}
		rel := NewRel()
		rel.AddRows(rows)
		want := oldSorted(rel.Rows())
		sameRowSlices(t, "fresh", rel.Sorted(), want)
		sameRowSlices(t, "frozen", Frozen(rel.Rows()).Sorted(), want)
	})
}

// fuzzRows decodes up to 24 rows: an arity byte (mod 4), then per value
// a byte that is 0xff for a null or else the length (mod 6) of the
// constant's bytes that follow.
func fuzzRows(data []byte) []Row {
	var rows []Row
	for len(data) > 0 && len(rows) < 24 {
		row := make(Row, int(data[0]%4))
		data = data[1:]
		for i := range row {
			if len(data) == 0 {
				break
			}
			if data[0] == 0xff {
				row[i], data = NullValue, data[1:]
				continue
			}
			n := min(int(data[0]%6), len(data)-1)
			row[i], data = V(string(data[1:1+n])), data[1+n:]
		}
		rows = append(rows, row)
	}
	return rows
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

// unionParts are three rules' answers of n rows each in which every
// rule after the first repeats a third of its predecessor's rows.
func unionParts(n int) [][]Row {
	parts := make([][]Row, 3)
	for p := range parts {
		for i := 0; i < n; i++ {
			parts[p] = append(parts[p], RowOf(fmt.Sprintf("k%d", p*n-p*n/3+i), "v"))
		}
	}
	return parts
}

// BenchmarkRelUnion: a three-rule answer assembled as the Into sink
// takes the rules' rows over (the first rule's become the relation's
// rows, later ones go past the membership index), and as a full answer
// hit assembles it from the cached parts (Union).
func BenchmarkRelUnion(b *testing.B) {
	parts := unionParts(120)
	frozen := []*Rel{Frozen(parts[0]), Frozen(parts[1]), Frozen(parts[2])}
	b.Run("sink", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := NewRel()
			into := Into(out)
			for r, rows := range parts {
				into(context.Background(), r, rows)
			}
			sinkRows = out.Rows()
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkRows = Union(frozen).Rows()
		}
	})
}

// BenchmarkHeadRows: one batch of 4000 bindings over 120 distinct
// two-column heads, materialized into the rule's rows.
func BenchmarkHeadRows(b *testing.B) {
	pool := newColPool(newEngineState())
	prog := &ruleProgram{numSlots: 3, head: []headArg{{kind: headSlot, slot: 2}, {kind: headConst, val: V("c")}, {kind: headSlot, slot: 0}}, headSlots: []int{2, 0}}
	batch := &colBatch{n: 4000, cols: [][]uint32{make([]uint32, 4000), nil, make([]uint32, 4000)}}
	for i := 0; i < batch.n; i++ {
		batch.cols[0][i], _ = pool.ids.id(fmt.Sprintf("y%d", i%8))
		batch.cols[2][i], _ = pool.ids.id(fmt.Sprintf("z%d", i%15))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := headSet{prog: prog, pool: pool}
		rows, err := h.rows(batch, func() error { return nil })
		if err != nil || len(rows) != 120 {
			b.Fatalf("%d rows, %v", len(rows), err)
		}
		sinkRows = rows
	}
}

// TestNilRelIsEmpty: a nil *Rel — a report's Δ of a plan that dismissed
// no rule — is the empty relation to every method that only reads it,
// and to AddAll as its argument.
func TestNilRelIsEmpty(t *testing.T) {
	var r *Rel
	row := RowOf("a")
	full := Frozen([]Row{row})
	if r.Len() != 0 || r.Rows() != nil || r.Sorted() != nil || r.String() != "" {
		t.Error("a nil relation lists rows")
	}
	if r.Contains(row) || r.HasNull() {
		t.Error("a nil relation holds a row")
	}
	if !r.Equal(NewRel()) || !NewRel().Equal(r) || r.Equal(full) || full.Equal(r) {
		t.Error("a nil relation is not equal to exactly the empty relations")
	}
	if r.Minus(full).Len() != 0 || full.Minus(r).Len() != 1 {
		t.Error("Minus with a nil relation")
	}
	if v := r.View(); v == nil || v.Len() != 0 || !v.Add(row) {
		t.Error("the view of a nil relation is not a fresh empty relation")
	}
	into := NewRel()
	into.AddAll(r)
	if into.Len() != 0 {
		t.Error("AddAll of a nil relation added rows")
	}
}
