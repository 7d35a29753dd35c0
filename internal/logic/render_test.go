package logic

import (
	"strings"
	"testing"
)

// The renderings are plan keys, answer keys and persisted keys, so they
// are pinned byte for byte: escapes in constants, null, negation, and
// the false and true bodies.
func TestRenderGolden(t *testing.T) {
	odd := Const("a\\b\"c\nd\re\tf")
	r := NewAtom("R", Var("x"), odd, Null, Const(""))
	tests := []struct {
		name string
		got  string
		want string
	}{
		{"variable", Var("x1").String(), `x1`},
		{"constant", Const("k").String(), `"k"`},
		{"escaped constant", odd.String(), `"a\\b\"c\nd\re\tf"`},
		{"empty constant", Const("").String(), `""`},
		{"null", Null.String(), `null`},
		{"nullary atom", NewAtom("P").String(), `P()`},
		{"atom", r.String(), `R(x, "a\\b\"c\nd\re\tf", null, "")`},
		{"atom key", r.Key(), `R(x, "a\\b\"c\nd\re\tf", null, "")`},
		{"positive literal", Pos(r).Key(), `R(x, "a\\b\"c\nd\re\tf", null, "")`},
		{"negated literal", Neg(NewAtom("S", Var("z"), Const("\t"))).String(), `not S(z, "\t")`},
		{"query", CQ{HeadPred: "Q", HeadArgs: []Term{Var("x"), Null}, Body: []Literal{Pos(r), Neg(NewAtom("S", Var("x")))}}.String(),
			`Q(x, null) :- R(x, "a\\b\"c\nd\re\tf", null, ""), not S(x)`},
		{"query key", CQ{HeadPred: "Q", HeadArgs: []Term{Var("x")}, Body: []Literal{Pos(NewAtom("R", Var("x")))}}.Key(), `Q(x) :- R(x)`},
		{"false query", FalseQuery("Q", []Term{Var("x"), Const("\n")}).String(), `Q(x, "\n") :- false`},
		{"true query", CQ{HeadPred: "Q"}.String(), `Q() :- true`},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("%s: got %s, want %s", tt.name, tt.got, tt.want)
		}
	}
}

// Every rendering is one allocation: up to 512 bytes it is appended
// into a buffer on the stack and copied out at its length, past that
// into an exact buffer that becomes the string.
func TestRenderAllocs(t *testing.T) {
	a := NewAtom("R", Var("x"), Const("a\\b\"c\nd\re\tf"), Null, Var("y"))
	l := Neg(a)
	q := CQ{HeadPred: "Q", HeadArgs: []Term{Var("x")}, Body: []Literal{Pos(a), l}}
	long := Const(strings.Repeat("v\"", 300)) // 902 bytes rendered
	la := NewAtom("R", Var("x"), long)
	lq := CQ{HeadPred: "Q", HeadArgs: []Term{Var("x")}, Body: []Literal{Pos(la), Neg(la)}}
	var sink string
	for _, tt := range []struct {
		name   string
		render func() string
	}{
		{"Atom.String", a.String},
		{"Literal.Key", l.Key},
		{"CQ.String", q.String},
		{"UCQ.String", UCQ{Rules: []CQ{q, q}}.String},
		{"Term.String", a.Args[1].String},
		{"long Term.String", long.String},
		{"long Atom.String", la.String},
		{"long Literal.Key", Neg(la).Key},
		{"long CQ.String", lq.String},
		{"long UCQ.String", UCQ{Rules: []CQ{lq, q}}.String},
	} {
		if n := testing.AllocsPerRun(100, func() { sink = tt.render() }); n != 1 {
			t.Errorf("%s allocated %.0f times, want 1", tt.name, n)
		}
		if want := 512; strings.HasPrefix(tt.name, "long") && len(sink) <= want {
			t.Errorf("%s rendered %d bytes, want more than %d", tt.name, len(sink), want)
		}
	}
	if got, want := NewAtom("R", long).String(), "R("+long.String()+")"; got != want {
		t.Errorf("long atom renders %q, want %q", got, want)
	}
	_ = sink
}
