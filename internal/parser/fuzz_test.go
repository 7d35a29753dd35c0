package parser

import "testing"

// FuzzParseUCQ checks that the parser never panics, that everything it
// accepts round-trips through printing, and that appending to one of
// its atoms or rules leaves the others as they were.
func FuzzParseUCQ(f *testing.F) {
	seeds := []string{
		`Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).`,
		"Q(x) :- R(x, \"c\").\nQ(x) :- S(x, 42).",
		`Q(x) :- false.`,
		`Q() :- true.`,
		`Q(a) :- B(i', a', t).`,
		"# comment\nQ(x) <- R(x). % trailing",
		`Q(x) :- R(x,`,
		"Q(x) :-\x00R(x).",
		`Q(x) :- R("unterminated`,
		`^^`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		u, err := ParseUCQ(src)
		if err != nil {
			return
		}
		printed := u.String()
		u2, err := ParseUCQ(printed)
		if err != nil {
			t.Fatalf("accepted %q but failed to reparse its printing %q: %v", src, printed, err)
		}
		if !u.Equal(u2) {
			t.Fatalf("round trip changed query:\n%s\nvs\n%s", u, u2)
		}
		checkAppendsStayApart(t, u)
	})
}

// FuzzParsePatterns checks the pattern parser never panics.
func FuzzParsePatterns(f *testing.F) {
	for _, s := range []string{`B^ioo B^oio`, `X^`, `^io`, `B^iox`, `B^ioo B^io`} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParsePatterns(src)
		if err != nil {
			return
		}
		// Whatever parses must re-parse from its printing.
		if _, err := ParsePatterns(s.String()); err != nil {
			t.Fatalf("accepted %q but failed on its printing %q: %v", src, s, err)
		}
	})
}

// FuzzParseFacts checks the fact parser never panics.
func FuzzParseFacts(f *testing.F) {
	for _, s := range []string{`R("a", "b").`, `R(x).`, `R(.`, `R("a")`} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = ParseFacts(src)
	})
}
