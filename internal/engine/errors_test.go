package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/logic"
	"repro/internal/sources"
)

func TestAnswerErrorPaths(t *testing.T) {
	in := NewInstance().MustAdd("R", "a")
	ps := pats(t, `R^o`)
	cat := in.MustCatalog(ps)

	// Non-executable order.
	if _, err := Answer(ucq(t, `Q(x) :- S(x).`), ps, cat); err == nil {
		t.Error("rule over a pattern-less relation must fail")
	}

	// Catalog missing a relation the pattern set declares.
	ps2 := pats(t, `R^o S^o`)
	if _, err := Answer(ucq(t, `Q(x) :- S(x).`), ps2, cat); err == nil || !strings.Contains(err.Error(), "no source") {
		t.Errorf("missing source must fail, got %v", err)
	}
}

func TestHeadRowErrors(t *testing.T) {
	// An unsafe plan (head variable never bound) is caught at head
	// construction. Build it directly since the parser rejects it.
	q := logic.CQ{
		HeadPred: "Q",
		HeadArgs: []logic.Term{logic.Var("ghost")},
		Body:     []logic.Literal{logic.Pos(logic.NewAtom("R", logic.Var("x")))},
	}
	in := NewInstance().MustAdd("R", "a")
	ps := pats(t, `R^o`)
	cat := in.MustCatalog(ps)
	if _, err := Answer(logic.UCQ{Rules: []logic.CQ{q}}, ps, cat); err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Errorf("unsafe head must fail, got %v", err)
	}
}

func TestHeadConstantsAndNulls(t *testing.T) {
	in := NewInstance().MustAdd("R", "a")
	ps := pats(t, `R^o`)
	cat := in.MustCatalog(ps)
	q := logic.CQ{
		HeadPred: "Q",
		HeadArgs: []logic.Term{logic.Const("tag"), logic.Var("x"), logic.Null},
		Body:     []logic.Literal{logic.Pos(logic.NewAtom("R", logic.Var("x")))},
	}
	rel, err := Answer(logic.UCQ{Rules: []logic.CQ{q}}, ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	want := Row{V("tag"), V("a"), NullValue}
	if rel.Len() != 1 || !rel.Contains(want) {
		t.Errorf("rel = %s, want %s", rel, want)
	}
}

func TestNaiveArityMismatch(t *testing.T) {
	in := NewInstance().MustAdd("R", "a", "b")
	if _, err := AnswerNaive(ucq(t, `Q(x) :- R(x).`), in); err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestNaiveNullInBody(t *testing.T) {
	in := NewInstance().MustAdd("R", "a")
	q := logic.CQ{
		HeadPred: "Q",
		HeadArgs: []logic.Term{logic.Var("x")},
		Body: []logic.Literal{
			logic.Pos(logic.NewAtom("R", logic.Var("x"))),
			logic.Neg(logic.NewAtom("S", logic.Null)),
		},
	}
	if _, err := AnswerNaive(logic.UCQ{Rules: []logic.CQ{q}}, in); err == nil {
		t.Error("null in a body atom must fail")
	}
}

// Example 3 under naive evaluation: the union is equivalent to
// Q'(a) :- L(i), B(i, a, t) on every instance (active-domain semantics
// for the negation-unsafe variables).
func TestExample3NaiveSemantics(t *testing.T) {
	u := ucq(t, `
		Q(a) :- B(i, a, t), L(i), B(i', a', t).
		Q(a) :- B(i, a, t), L(i), not B(i', a', t).
	`)
	qp := ucq(t, `Q(a) :- L(i), B(i, a, t).`)
	instances := []*Instance{
		NewInstance().
			MustAdd("B", "i1", "knuth", "taocp").
			MustAdd("L", "i1"),
		NewInstance().
			MustAdd("B", "i1", "knuth", "taocp").
			MustAdd("B", "i2", "date", "taocp").
			MustAdd("L", "i1").MustAdd("L", "i2"),
		NewInstance().
			MustAdd("B", "i1", "knuth", "taocp").
			MustAdd("L", "i9"),
		NewInstance(),
	}
	for i, in := range instances {
		a, err := AnswerNaive(u, in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := AnswerNaive(qp, in)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Errorf("instance %d: union = %s, Q' = %s", i, a, b)
		}
	}
}

func TestNegationJointWitness(t *testing.T) {
	// A variable shared by two negated literals needs one witness value
	// satisfying both: ∃z (¬P(z) ∧ ¬S(z)).
	q := logic.CQ{
		HeadPred: "Q",
		HeadArgs: []logic.Term{logic.Var("x")},
		Body: []logic.Literal{
			logic.Pos(logic.NewAtom("R", logic.Var("x"))),
			logic.Neg(logic.NewAtom("P", logic.Var("z"))),
			logic.Neg(logic.NewAtom("S", logic.Var("z"))),
		},
	}
	u := logic.UCQ{Rules: []logic.CQ{q}}
	// Domain {a, b}: P = {a}, S = {b}. No single z avoids both, so no
	// answers.
	in := NewInstance().MustAdd("R", "a").MustAdd("R", "b").MustAdd("P", "a").MustAdd("S", "b")
	rel, err := AnswerNaive(u, in)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 0 {
		t.Errorf("joint witness must fail, got %s", rel)
	}
	// Add a value outside both: now every x qualifies.
	in.MustAdd("R", "c")
	rel2, err := AnswerNaive(u, in)
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Len() != 3 {
		t.Errorf("with witness c want 3 answers, got %s", rel2)
	}
}

func TestRelStringAndSorted(t *testing.T) {
	r := NewRel()
	r.Add(RowOf("b"))
	r.Add(RowOf("a"))
	r.Add(Row{NullValue})
	s := r.String()
	if !strings.Contains(s, `("a")`) || !strings.Contains(s, "(null)") {
		t.Errorf("String = %q", s)
	}
	sorted := r.Sorted()
	if len(sorted) != 3 || sorted[0].Key() > sorted[1].Key() {
		t.Errorf("Sorted = %v", sorted)
	}
	if !r.HasNull() {
		t.Error("HasNull must see the null row")
	}
}

func TestInstanceCatalogArityMismatch(t *testing.T) {
	in := NewInstance().MustAdd("R", "a", "b")
	ps := pats(t, `R^o`)
	if _, err := in.Catalog(ps); err == nil {
		t.Error("declared arity 1 vs stored arity 2 must fail")
	}
}

// panicSource is a source whose every call panics — an adapter bug.
type panicSource struct {
	*sources.Table
	batches bool
}

func (s panicSource) Batches() bool { return s.batches }

func (s panicSource) Call(context.Context, access.Pattern, [][]string) ([][]sources.Tuple, error) {
	panic("adapter bug")
}

// A panicking source must fail its call like any other source error —
// never kill the process — on every path that reaches a source: the
// sequential loop (a step with one distinct call), the worker pool, a
// whole batched group (and its fallback to groups of one), a hedged
// round's leg goroutines, and a streamed stage.
func TestSourcePanicContained(t *testing.T) {
	mk := func(batches bool) sources.Source {
		return panicSource{sources.MustTable("P", 2, []access.Pattern{"io"}, nil), batches}
	}
	var rRows []sources.Tuple
	for _, x := range []string{"a", "b", "c", "d"} {
		rRows = append(rRows, sources.Tuple{x})
	}
	r := sources.MustTable("R", 1, []access.Pattern{"o"}, rRows)
	one := sources.MustTable("R", 1, []access.Pattern{"o"}, rRows[:1])
	replicated, err := sources.NewReplicaSet(sources.ReplicaConfig{Policy: declOrder{}}, mk(false), mk(false))
	if err != nil {
		t.Fatal(err)
	}
	q := ucq(t, `Q(x, y) :- R(x), P(x, y).`)
	ps := pats(t, `R^o P^io`)

	cases := []struct {
		name   string
		r, p   sources.Source
		hedge  bool
		stream bool
	}{
		{name: "sequential", r: one, p: mk(false)},
		{name: "pool", r: r, p: mk(false)},
		{name: "batched group", r: r, p: mk(true)},
		{name: "hedged leg", r: r, p: replicated, hedge: true},
		{name: "stream", r: r, p: mk(false), stream: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rt := NewRuntime()
			rt.Concurrency = 4
			rt.Retry = RetryPolicy{}
			if c.hedge {
				rt.Hedge = HedgePolicy{Delay: time.Millisecond}
			}
			cat := sources.MustCatalog(c.r, c.p)
			var err error
			if c.stream {
				var s *Stream
				if s, err = rt.Stream(context.Background(), q, ps, cat); err == nil {
					_, err = s.Drain()
				}
			} else {
				_, err = rt.Answer(context.Background(), q, ps, cat)
			}
			if err == nil || !strings.Contains(err.Error(), "source P panicked: adapter bug") {
				t.Fatalf("err = %v, want the contained panic of source P", err)
			}
		})
	}

	// The contained panic is an ordinary rule failure: partial-results
	// mode drops the disjunct and answers with the healthy one.
	u := ucq(t, `Q(x) :- R(x). Q(x) :- R(x), P(x, y).`)
	rel, _, inc, err := NewRuntime().Eval(context.Background(), u, ps, sources.MustCatalog(r, mk(false)), Opts{Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != len(rRows) || inc == nil || len(inc.Failed) != 1 {
		t.Fatalf("partial answer = %s, incompleteness = %+v; want %d rows and one dropped disjunct", rel, inc, len(rRows))
	}
}

// shortSource is a source that breaks its contract: it answers every
// input vector with a tuple one value short of the relation's arity.
type shortSource struct{ *sources.Table }

func (s shortSource) Call(_ context.Context, _ access.Pattern, inputs [][]string) ([][]sources.Tuple, error) {
	out := make([][]sources.Tuple, len(inputs))
	for i, in := range inputs {
		out[i] = []sources.Tuple{in}
	}
	return out, nil
}

// A tuple of the wrong arity must fail the call that returned it, before
// the join indexes into it — on the whole schedule and inside a stage
// goroutine of the staged one, where a panic would kill the process —
// and it is an ordinary terminal rule failure: partial-results mode
// drops the disjunct and names the source.
func TestShortTupleFailsTheCall(t *testing.T) {
	r := sources.MustTable("R", 1, []access.Pattern{"o"}, []sources.Tuple{{"a"}, {"b"}})
	p := shortSource{sources.MustTable("P", 2, []access.Pattern{"io"}, nil)}
	cat := sources.MustCatalog(r, p)
	ps := pats(t, `R^o P^io`)
	u := ucq(t, `Q(x) :- R(x). Q(x) :- R(x), P(x, y).`)
	const want = "engine: source P returned a tuple of 1 values, want 2"
	ctx := context.Background()

	for _, staged := range []bool{false, true} {
		var err error
		if staged {
			var s *Stream
			if s, err = NewRuntime().Stream(ctx, u, ps, cat); err == nil {
				_, err = s.Drain()
			}
		} else {
			_, err = NewRuntime().Answer(ctx, u, ps, cat)
		}
		if err == nil || !strings.Contains(err.Error(), want) || sources.IsTransient(err) {
			t.Errorf("staged=%v: err = %v, want the non-transient %q", staged, err, want)
		}

		var rel *Rel
		var inc Incompleteness
		if staged {
			s, serr := NewRuntime().StreamEval(ctx, u, ps, cat, Answered{}, Opts{Partial: true})
			if serr != nil {
				t.Fatal(serr)
			}
			rel, err = s.Drain()
			inc, _ = s.Incomplete()
		} else {
			var got *Incompleteness
			rel, _, got, err = NewRuntime().Eval(ctx, u, ps, cat, Opts{Partial: true})
			if got != nil {
				inc = *got
			}
		}
		if err != nil {
			t.Fatalf("staged=%v: partial mode must absorb the failure: %v", staged, err)
		}
		if rel.Len() != 2 || len(inc.Failed) != 1 {
			t.Fatalf("staged=%v: answer = %s, incompleteness = %+v; want R's rows and one dropped disjunct", staged, rel, inc)
		}
		if f := inc.Failed[0]; f.RuleIndex != 1 || f.Source != "P" || f.Class != FailTerminal || !strings.Contains(f.Err.Error(), want) {
			t.Errorf("staged=%v: failure = %+v, want rule 2 at P, terminal, %q", staged, f, want)
		}
	}
}
