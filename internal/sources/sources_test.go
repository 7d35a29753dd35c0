package sources

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/access"
)

// callOne issues a group of one and unwraps its rows.
func callOne(ctx context.Context, s Source, p access.Pattern, inputs []string) ([]Tuple, error) {
	groups, err := s.Call(ctx, p, [][]string{inputs})
	if err != nil {
		return nil, err
	}
	return groups[0], nil
}

func bookTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable("B", 3,
		[]access.Pattern{"ioo", "oio"},
		[]Tuple{
			{"i1", "knuth", "taocp"},
			{"i2", "knuth", "concrete math"},
			{"i3", "date", "introduction to db"},
			{"i1", "knuth", "taocp"}, // duplicate, dropped
		})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// Example 2 of the paper: with B^ioo and B^oio we can look up by ISBN or
// by author, but we cannot list the whole relation.
func TestExample2AccessPatterns(t *testing.T) {
	b := bookTable(t)

	byISBN, err := callOne(context.Background(), b, "ioo", []string{"i1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(byISBN) != 1 || byISBN[0][1] != "knuth" {
		t.Errorf("by ISBN = %v", byISBN)
	}

	byAuthor, err := callOne(context.Background(), b, "oio", []string{"knuth"})
	if err != nil {
		t.Fatal(err)
	}
	if len(byAuthor) != 2 {
		t.Errorf("by author = %v, want 2 tuples", byAuthor)
	}

	if _, err := callOne(context.Background(), b, "ooo", nil); err == nil {
		t.Error("full scan must be rejected: ooo is not a declared pattern")
	}
	if _, err := callOne(context.Background(), b, "ioo", nil); err == nil {
		t.Error("call with missing input must be rejected")
	}
	if _, err := callOne(context.Background(), b, "ioo", []string{"a", "b"}); err == nil {
		t.Error("call with too many inputs must be rejected")
	}
}

func TestTableDeduplicatesAndValidates(t *testing.T) {
	b := bookTable(t)
	if got := len(b.Rows()); got != 3 {
		t.Errorf("rows = %d, want 3 (duplicate dropped)", got)
	}
	if _, err := NewTable("X", 2, []access.Pattern{"io"}, []Tuple{{"a"}}); err == nil {
		t.Error("tuple arity mismatch must be rejected")
	}
	if _, err := NewTable("X", 2, []access.Pattern{"i"}, nil); err == nil {
		t.Error("pattern arity mismatch must be rejected")
	}
	if _, err := NewTable("X", 2, nil, nil); err == nil {
		t.Error("table without patterns must be rejected")
	}
}

func TestMetering(t *testing.T) {
	b := bookTable(t)
	if _, err := callOne(context.Background(), b, "oio", []string{"knuth"}); err != nil {
		t.Fatal(err)
	}
	if _, err := callOne(context.Background(), b, "oio", []string{"nobody"}); err != nil {
		t.Fatal(err)
	}
	st := b.StatsSnapshot()
	if st.Calls != 2 || st.TuplesReturned != 2 {
		t.Errorf("stats = %+v, want 2 calls, 2 tuples", st)
	}
	b.ResetStats()
	if st := b.StatsSnapshot(); st.Calls != 0 || st.TuplesReturned != 0 {
		t.Errorf("after reset stats = %+v", st)
	}
}

// checkSharedAnswer holds s to the read-only contract on the call
// s^p(in): two calls hand out the same storage, and a caller appending
// to a returned group or tuple reallocates instead of writing into it,
// so a later call's answer is unchanged.
func checkSharedAnswer(t *testing.T, s Source, p access.Pattern, in []string) {
	t.Helper()
	ctx := context.Background()
	first, err := callOne(ctx, s, p, in)
	if err != nil || len(first) == 0 {
		t.Fatalf("%s^%s(%v) = %v, %v", s.Name(), p, in, first, err)
	}
	want := fmt.Sprint(first)
	second, _ := callOne(ctx, s, p, in)
	if &second[0] != &first[0] || &second[0][0] != &first[0][0] {
		t.Error("two calls must share the answer's backing arrays")
	}
	grown := append(first, make(Tuple, len(first[0])))
	wider := append(first[0], "x")
	if &grown[0] == &first[0] || &wider[0] == &first[0][0] {
		t.Error("append to a returned group or tuple must reallocate")
	}
	if third, _ := callOne(ctx, s, p, in); fmt.Sprint(third) != want {
		t.Errorf("after a caller's appends the answer is %v, want %v", third, want)
	}
}

// keyTable is R(k, v)^io with three rows under one key: the index
// slice behind k has spare capacity that Call must not expose.
func keyTable() *Table {
	return MustTable("R", 2, []access.Pattern{"io"}, []Tuple{{"k", "1"}, {"k", "2"}, {"k", "3"}})
}

func TestCallSharesReadOnlyRows(t *testing.T) {
	checkSharedAnswer(t, keyTable(), "io", []string{"k"})
}

// A call with one input vector is answered with the index's own
// one-group slice (TestGroupOfOneAllocs: no allocation): a second call
// returns the same slice and rows, a miss the shared empty group, and a
// caller's append to the returned slice reallocates instead of writing
// into the table.
func TestTableCallSharesOneGroup(t *testing.T) {
	tbl := keyTable()
	ctx := context.Background()
	in := [][]string{{"k"}}
	first, err := tbl.Call(ctx, "io", in)
	if err != nil || len(first) != 1 || len(first[0]) != 3 {
		t.Fatalf("R^io(k) = %v, %v", first, err)
	}
	second, _ := tbl.Call(ctx, "io", in)
	if &second[0] != &first[0] || &second[0][0] != &first[0][0] {
		t.Error("two calls must return the same group slice and rows")
	}
	grown := append(first, nil)
	grown[0] = nil
	if third, _ := tbl.Call(ctx, "io", in); len(third) != 1 || len(third[0]) != 3 || &third[0][0] != &first[0][0] {
		t.Errorf("after a caller's append the answer is %v, want the table's rows", third)
	}
	miss, _ := tbl.Call(ctx, "io", [][]string{{"nope"}})
	if len(miss) != 1 || len(miss[0]) != 0 || cap(miss) != 1 {
		t.Errorf("a miss = %v (cap %d), want one empty group of capacity 1", miss, cap(miss))
	}
	if st := tbl.StatsSnapshot(); st.Calls != 4 || st.TuplesReturned != 3*3 {
		t.Errorf("stats %+v, want 4 calls of which 3 returned 3 tuples", st)
	}
}

func TestCatalog(t *testing.T) {
	b := bookTable(t)
	l := MustTable("L", 1, []access.Pattern{"o"}, []Tuple{{"i3"}})
	cat, err := NewCatalog(b, l)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Source("B") != b || cat.Source("Z") != nil {
		t.Error("Source lookup wrong")
	}
	if got := cat.Names(); len(got) != 2 || got[0] != "B" || got[1] != "L" {
		t.Errorf("Names = %v", got)
	}
	ps := cat.PatternSet()
	if got := ps.String(); got != "B^ioo B^oio L^o" {
		t.Errorf("PatternSet = %q", got)
	}
	if _, err := NewCatalog(b, b); err == nil {
		t.Error("duplicate source must be rejected")
	}
	if _, err := callOne(context.Background(), l, "o", nil); err != nil {
		t.Fatal(err)
	}
	if st := cat.TotalStats(); st.Calls != 1 || st.TuplesReturned != 1 {
		t.Errorf("TotalStats = %+v", st)
	}
	cat.ResetStats()
	if st := cat.TotalStats(); st.Calls != 0 {
		t.Errorf("after reset TotalStats = %+v", st)
	}
}

func TestOnCallHook(t *testing.T) {
	b := bookTable(t)
	var seen []string
	b.OnCall = func(p access.Pattern, inputs []string) {
		seen = append(seen, string(p))
	}
	if _, err := callOne(context.Background(), b, "ioo", []string{"i1"}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != "ioo" {
		t.Errorf("hook saw %v", seen)
	}
}

func TestCatalogGeneration(t *testing.T) {
	cat := MustCatalog(bookTable(t))
	if g := cat.Generation(); g != 0 {
		t.Fatalf("fresh catalog generation = %d, want 0", g)
	}
	cat.Invalidate()
	if g := cat.Generation(); g != 1 {
		t.Errorf("generation after Invalidate = %d, want 1", g)
	}
	cat.ResetStats()
	if g := cat.Generation(); g != 2 {
		t.Errorf("ResetStats must bump the generation, got %d", g)
	}
}
