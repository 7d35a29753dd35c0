package sources

import (
	"context"
	"strings"
	"testing"

	"repro/internal/access"
)

// confusable are pairs of distinct tuples that values joined by a bare
// separator key alike.
var confusable = [][2]Tuple{
	{{"a\x1fb", "c"}, {"a", "b\x1fc"}},
	{{"a\x1f"}, {"a", ""}},
	{{"x\x00\x02"}, {"x\x1f"}},
	{{"\x00", "\x1f"}, {"\x00\x1f\x1f"}},
}

// Every key site — Key, Tuple.Key, a call's memo key, a table's index —
// tells apart tuples that a bare join of their values confuses, and a
// tuple whose values hold neither \x00 nor \x1f keys as that join.
func TestKeysAreInjective(t *testing.T) {
	for _, pair := range confusable {
		a, b := pair[0], pair[1]
		if a.Key() == b.Key() || Key(a) == Key(b) {
			t.Errorf("%q and %q share the key %q", a, b, a.Key())
		}
		if callKey("ii", a) == callKey("ii", b) {
			t.Errorf("%q and %q share the call key %q", a, b, callKey("ii", a))
		}
	}
	for _, plain := range []Tuple{nil, {""}, {"only"}, {"a", "b"}, {"", "", "c d"}} {
		if got, want := plain.Key(), strings.Join(plain, "\x1f"); got != want {
			t.Errorf("Key(%q) = %q, want the plain join %q", plain, got, want)
		}
	}
	if got := testing.AllocsPerRun(100, func() { _ = Key([]string{"only"}) }); got != 0 {
		t.Errorf("Key of one plain value: %v allocations, want 0", got)
	}

	// A table keeps both tuples of a confusable pair (set semantics by
	// key) and answers each input vector with its own rows only.
	k := MustTable("K", 3, []access.Pattern{"iio", "ooo"}, []Tuple{{"a\x1fb", "c", "1"}, {"a", "b\x1fc", "2"}})
	if got := len(k.Rows()); got != 2 {
		t.Fatalf("table kept %d of 2 distinct tuples", got)
	}
	cached := NewCached(k)
	for _, src := range []Source{k, cached} {
		for _, in := range confusable[0] {
			groups, err := src.Call(context.Background(), "iio", [][]string{in})
			if err != nil {
				t.Fatal(err)
			}
			if len(groups[0]) != 1 || groups[0][0][0] != in[0] {
				t.Errorf("%T: K(%q, _) = %q, want the one tuple with those inputs", src, in, groups[0])
			}
		}
	}
}
