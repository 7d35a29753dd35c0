package parser

import (
	"strings"
	"testing"

	"repro/internal/logic"
)

func TestParseCQExample1(t *testing.T) {
	q, err := ParseCQ(`Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).`)
	if err != nil {
		t.Fatal(err)
	}
	if q.HeadPred != "Q" || len(q.HeadArgs) != 3 {
		t.Fatalf("head = %s/%d", q.HeadPred, len(q.HeadArgs))
	}
	if len(q.Body) != 3 {
		t.Fatalf("body has %d literals", len(q.Body))
	}
	if !q.Body[2].Negated || q.Body[2].Atom.Pred != "L" {
		t.Errorf("third literal = %v, want not L(i)", q.Body[2])
	}
	want := "Q(i, a, t) :- B(i, a, t), C(i, a), not L(i)"
	if got := q.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestParseUCQExample3(t *testing.T) {
	// Example 3 of the paper, with primed variables.
	u, err := ParseUCQ(`
		Q(a) :- B(i, a, t), L(i), B(i', a', t).
		Q(a) :- B(i, a, t), L(i), not B(i', a', t).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Rules) != 2 {
		t.Fatalf("got %d rules", len(u.Rules))
	}
	if got := u.Rules[0].Body[2].Atom.Args[0]; got != logic.Var("i'") {
		t.Errorf("primed variable parsed as %v", got)
	}
	if !u.Rules[1].Body[2].Negated {
		t.Error("second rule's last literal must be negated")
	}
}

func TestParseTermKinds(t *testing.T) {
	q, err := ParseCQ(`Q(x) :- R(x, "knuth", 1968, null, 'single').`)
	if err != nil {
		t.Fatal(err)
	}
	args := q.Body[0].Atom.Args
	wants := []logic.Term{
		logic.Var("x"),
		logic.Const("knuth"),
		logic.Const("1968"),
		logic.Null,
		logic.Const("single"),
	}
	for i, w := range wants {
		if args[i] != w {
			t.Errorf("arg %d = %v, want %v", i, args[i], w)
		}
	}
}

func TestParseFalseAndTrueBodies(t *testing.T) {
	q, err := ParseCQ(`Q(x) :- false.`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.False {
		t.Error("false body not recognized")
	}
	// The query "true" is unsafe when the head has variables, so use an
	// empty head.
	q2, err := ParseCQ(`Q() :- true.`)
	if err != nil {
		t.Fatal(err)
	}
	if q2.False || len(q2.Body) != 0 {
		t.Errorf("true body = %v", q2)
	}
}

func TestParseRejectsUnsafe(t *testing.T) {
	if _, err := ParseCQ(`Q(x, y) :- R(x).`); err == nil {
		t.Error("unsafe query must be rejected")
	}
	// Variables occurring only in negated literals are accepted (the paper
	// itself uses such queries in Example 3), but the query is not Safe.
	q, err := ParseCQ(`Q(x) :- R(x), not S(z).`)
	if err != nil {
		t.Errorf("negation-unsafe query must parse: %v", err)
	} else if q.Safe() {
		t.Error("negation-unsafe query must not be Safe()")
	}
	if _, err := ParseUCQ(`
		Q(x) :- R(x).
		Q(y) :- R(y).
	`); err == nil {
		t.Error("differing head variables across rules must be rejected")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`Q(x)`,
		`Q(x) : R(x).`,
		`Q(x) :- R(x`,
		`Q(x) :- R(x,).`,
		`Q(x) :- not not R(x).`,
		`Q(x) :- R(x) S(x).`,
		`Q(x) :- R("unterminated).`,
	}
	for _, src := range bad {
		if _, err := ParseUCQ(src); err == nil {
			t.Errorf("ParseUCQ(%q) succeeded, want error", src)
		}
	}
}

func TestParseComments(t *testing.T) {
	u, err := ParseUCQ(`
		# paper example
		Q(x) :- R(x).  % trailing comment
		Q(x) :- S(x).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Rules) != 2 {
		t.Fatalf("got %d rules", len(u.Rules))
	}
}

func TestParseArrowVariants(t *testing.T) {
	a, err := ParseCQ(`Q(x) :- R(x).`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseCQ(`Q(x) <- R(x).`)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error(":- and <- must parse identically")
	}
}

func TestParsePatterns(t *testing.T) {
	s, err := ParsePatterns(`B^ioo B^oio, C^oo. L^o`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.String(), "B^ioo B^oio C^oo L^o"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if _, err := ParsePatterns(`B^iox`); err == nil {
		t.Error("invalid pattern letter must be rejected")
	}
	if _, err := ParsePatterns(`B^ioo B^io`); err == nil {
		t.Error("conflicting arities must be rejected")
	}
}

func TestParseFacts(t *testing.T) {
	fs, err := ParseFacts(`
		B("0471", "knuth", "taocp").
		C("0471", "knuth").
		N(1, 2).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 3 {
		t.Fatalf("got %d facts", len(fs))
	}
	if fs[0].Pred != "B" || fs[0].Args[2] != "taocp" {
		t.Errorf("fact 0 = %+v", fs[0])
	}
	if fs[2].Args[0] != "1" || fs[2].Args[1] != "2" {
		t.Errorf("numeric fact = %+v", fs[2])
	}
	if _, err := ParseFacts(`B(x).`); err == nil {
		t.Error("non-ground fact must be rejected")
	}
}

// Round trip: printing a parsed query and re-parsing it yields the same
// query.
func TestRoundTrip(t *testing.T) {
	srcs := []string{
		`Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).`,
		`Q(x, y) :- R(x, z), not S(z), B(x, y).
		 Q(x, y) :- T(x, y).`,
		`Q(x) :- R(x, "c"), not S(x, 42).`,
		`Q(x) :- false.`,
	}
	for _, src := range srcs {
		u, err := ParseUCQ(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := u.String()
		u2, err := ParseUCQ(printed)
		if err != nil {
			t.Fatalf("reparse %q: %v", printed, err)
		}
		if !u.Equal(u2) {
			t.Errorf("round trip changed query:\n%s\nvs\n%s", u, u2)
		}
	}
}

func TestLexerLineNumbers(t *testing.T) {
	_, err := ParseUCQ("Q(x) :- R(x).\nQ(x) :- R(x), @")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error should mention line 2, got %v", err)
	}
}

// joinEvalText is the query of the repository benchmark's join_eval
// workload.
const joinEvalText = `Q(z, y) :- R(x, a, b, c, d, e, z), S(z, w), T(w, y), not N(z).`

// A parse allocates what it returns and little else: the token slice,
// one arena each for the terms, the literals and the rules, and a copy
// of each constant.
func TestParseUCQAllocs(t *testing.T) {
	for _, tt := range []struct {
		src   string
		limit float64
	}{
		{joinEvalText, 5},
		{`Q(x) :- R(x, "a"), S(x, 42), not T(x, "b\tc").` + "\n" + `Q(x) :- R(x, y), not S(y, "d").`, 9},
	} {
		if n := testing.AllocsPerRun(100, func() { MustUCQ(tt.src) }); n > tt.limit {
			t.Errorf("ParseUCQ(%q) allocated %.0f times, want at most %.0f", tt.src, n, tt.limit)
		}
	}
}

func BenchmarkParseUCQ(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MustUCQ(joinEvalText)
	}
}

// checkAppendsStayApart fails unless appending to any one atom's Args or
// any one rule's Body of u leaves every other atom and rule as it was:
// the parse arenas cut each at its own end.
func checkAppendsStayApart(t testing.TB, u logic.UCQ) {
	t.Helper()
	want := make([]string, len(u.Rules))
	for i, r := range u.Rules {
		want[i] = r.String()
	}
	others := func(what string, skip int) {
		t.Helper()
		for i, r := range u.Rules {
			if i != skip && r.String() != want[i] {
				t.Fatalf("appending to %s changed rule %d: %s, was %s", what, i+1, r, want[i])
			}
		}
	}
	extra := logic.Const("appended")
	for i := range u.Rules {
		r := &u.Rules[i]
		head, body := r.HeadArgs, r.Body
		r.HeadArgs = append(r.HeadArgs, extra)
		others("a head", i)
		r.HeadArgs = head
		r.Body = append(r.Body, logic.Pos(logic.NewAtom("Appended", extra)))
		others("a body", i)
		r.Body = body
		for j := range body {
			args := body[j].Atom.Args
			body[j].Atom.Args = append(body[j].Atom.Args, extra)
			body[j].Atom.Args = args
			if r.String() != want[i] {
				t.Fatalf("appending to literal %d's arguments changed rule %d: %s, was %s", j+1, i+1, r, want[i])
			}
			others("an atom's arguments", -1)
		}
	}
}

// A parsed union and its Clone cut their rules, literals and terms
// from arenas, every cut capped at its own end.
func TestParsedAppendsStayApart(t *testing.T) {
	u := MustUCQ(`
		Q(x, y) :- R(x, z), S(z, y), not L(x).
		Q(x, y) :- R(x, y), T(y, "c").
		Q(x, y) :- false.
		Q(x, y) :- U(x, y), R(), S(y, x).
	`)
	checkAppendsStayApart(t, u)
	checkAppendsStayApart(t, u.Clone())
	rules := MustRules("A(x) :- E(x, y), F(y).\nB(y) :- F(y).")
	checkAppendsStayApart(t, logic.UCQ{Rules: rules})
}
