package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/logic"
	"repro/internal/sources"
)

// handPlan adorns the single rule of src with the given patterns, one
// per body literal, as written: the plans AdornInOrder refuses (a
// negated literal over an unbound variable, an unbound call input) are
// exactly the ones whose lazy errors and liveness corner cases need
// pinning.
func handPlan(t *testing.T, src string, patterns ...access.Pattern) (logic.CQ, []access.AdornedLiteral) {
	t.Helper()
	q := ucq(t, src).Rules[0]
	return q, handSteps(t, q, patterns...)
}

func handSteps(t *testing.T, q logic.CQ, patterns ...access.Pattern) []access.AdornedLiteral {
	t.Helper()
	if len(patterns) != len(q.Body) {
		t.Fatalf("%d patterns for %d literals of %s", len(patterns), len(q.Body), q)
	}
	steps := make([]access.AdornedLiteral, len(q.Body))
	for i, l := range q.Body {
		steps[i] = access.AdornedLiteral{Literal: l.Clone(), Pattern: patterns[i]}
	}
	return steps
}

// runPlan runs one hand-adorned rule through the driver under either
// schedule (batch size 1, so every binding of a staged run is a batch
// of its own).
func runPlan(q logic.CQ, steps []access.AdornedLiteral, cat *sources.Catalog, staged bool) (*Rel, Profile, error) {
	rt := NewRuntime()
	rt.BatchSize = 1
	out := NewRel()
	x := rt.newExecution(cat, Opts{}, staged, Into(out))
	var ords relOrds
	x.rules = []ruleRun{{rule: q, prog: compileRule(q, steps, &x.pool, &ords)}}
	x.calls.init(ords)
	prof, _, err := x.run(context.Background())
	return out, prof, err
}

// oraclePlan is the same rule through the map evaluator.
func oraclePlan(q logic.CQ, steps []access.AdornedLiteral, cat *sources.Catalog) (*Rel, error) {
	out := NewRel()
	err := NewRuntime().newExecution(cat, Opts{}, false, nil).runStepsMap(context.Background(), q, steps, out, &RuleProfile{}, oracleCalls{})
	return out, err
}

// agreesWithOracle holds both schedules to the oracle on one hand-made
// plan: rows in order, source calls, and the error, if any.
func agreesWithOracle(t *testing.T, q logic.CQ, steps []access.AdornedLiteral, mkCat func() *sources.Catalog) {
	t.Helper()
	cat := mkCat()
	want, wantErr := oraclePlan(q, steps, cat)
	wantCalls := cat.TotalStats().Calls
	for _, staged := range []bool{false, true} {
		label := fmt.Sprintf("%s, staged=%v", q, staged)
		cat := mkCat()
		got, _, err := runPlan(q, steps, cat, staged)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%s: err = %v, oracle's %v", label, err, wantErr)
		}
		if err != nil {
			continue
		}
		sameRows(t, got, want, label)
		if c := cat.TotalStats().Calls; c != wantCalls {
			t.Fatalf("%s: %d source calls, oracle %d", label, c, wantCalls)
		}
	}
}

// The liveness pass, case by case: which slots each step carries on, at
// which atom positions groupJoin reads the tuple, and which steps
// deduplicate — then the same plan against the oracle on data that
// makes the dropped slots matter.
func TestCompileRuleLiveSets(t *testing.T) {
	type step struct {
		carry string // variables of the step's output columns, copied then new
		need  string // per atom position: n = read by groupJoin, - = never interned
		dedup bool
	}
	cases := []struct {
		name     string
		rule     string
		patterns []access.Pattern
		want     []step
		facts    string
	}{
		{
			name:     "E25: six columns nobody reads",
			rule:     `Q(z, y) :- R(x, a, b, c, d, e, z), S(z, w), T(w, y), not N(z).`,
			patterns: []access.Pattern{"ooooooo", "io", "io", "i"},
			want: []step{
				{"z", "------n", true},
				{"z w", "nn", false},
				{"z y", "nn", true},
				{"z y", "n", false},
			},
			facts: `R("x1","a","b","c","d","e","z1"). R("x2","a","b","c","d","e","z1"). R("x3","a","b","c","d","e","z2").
				S("z1","w1"). S("z1","w2"). S("z2","w1"). T("w1","y1"). T("w2","y1"). N("z2").`,
		},
		{
			name:     "variable local to a negated literal, rebound later",
			rule:     `Q(y) :- R(x), not S(x, y), T(y).`,
			patterns: []access.Pattern{"o", "io", "o"},
			want: []step{
				{"x", "n", false},
				{"", "n-", true}, // x stops here; y is not bound by a filter
				{"y", "n", false},
			},
			facts: `R("a"). R("b"). R("c"). S("a","k"). T("t1"). T("t2").`,
		},
		{
			name:     "repeated variable whose first occurrence is dead",
			rule:     `Q(y) :- R(x, x, y), T(y).`,
			patterns: []access.Pattern{"ooo", "i"},
			want: []step{
				{"y", "nnn", true},
				{"y", "n", false},
			},
			facts: `R("a","a","y1"). R("b","b","y1"). R("a","b","y2"). R("c","c","y3"). T("y1"). T("y2"). T("y3").`,
		},
		{
			name:     "constants are compared, never carried",
			rule:     `Q(x) :- R(x, "c", u), S("k", x).`,
			patterns: []access.Pattern{"ooo", "io"},
			want: []step{
				{"x", "nn-", true},
				{"x", "nn", false},
			},
			facts: `R("a","c","u1"). R("a","c","u2"). R("b","d","u1"). R("e","c","u3"). S("k","a"). S("j","e").`,
		},
		{
			name:     "boolean head",
			rule:     `Q() :- R(x), S(y).`,
			patterns: []access.Pattern{"o", "o"},
			want: []step{
				{"", "-", true},
				{"", "-", false},
			},
			facts: `R("a"). R("b"). S("c"). S("d").`,
		},
		{
			name:     "head variable bound by the last step",
			rule:     `Q(y) :- R(x), T(x, y).`,
			patterns: []access.Pattern{"o", "io"},
			want: []step{
				{"x", "n", false},
				{"y", "nn", false}, // x is dropped, but the head's distinct set follows
			},
			facts: `R("a"). R("b"). T("a","y1"). T("b","y1"). T("b","y2").`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, steps := handPlan(t, tc.rule, tc.patterns...)
			prog := compileRule(q, steps, newColPool(newEngineState()), &relOrds{})
			name := make([]string, prog.numSlots)
			for si := range prog.steps {
				for j, a := range prog.steps[si].args {
					if a.role == argFirst {
						name[a.slot] = steps[si].Literal.Atom.Args[j].Name
					}
				}
			}
			for si, sp := range prog.steps {
				var carry []string
				for _, s := range sp.copySlots {
					carry = append(carry, name[s])
				}
				for _, nc := range sp.newCols {
					carry = append(carry, name[nc.slot])
				}
				need := make([]byte, len(sp.args))
				for j, a := range sp.args {
					need[j] = '-'
					if a.need {
						need[j] = 'n'
					}
				}
				got := step{strings.Join(carry, " "), string(need), sp.dedup}
				if got != tc.want[si] {
					t.Errorf("step %d (%s): %+v, want %+v", si+1, sp.step, got, tc.want[si])
				}
			}
			in := NewInstance()
			if err := in.ParseInto(tc.facts); err != nil {
				t.Fatal(err)
			}
			var decl []string
			for i, st := range steps {
				decl = append(decl, fmt.Sprintf("%s^%s", st.Literal.Atom.Pred, tc.patterns[i]))
			}
			ps := pats(t, strings.Join(decl, " "))
			agreesWithOracle(t, q, steps, func() *sources.Catalog { return in.MustCatalog(ps) })
		})
	}
}

// Planning errors stay lazy under projection: an unbound call input and
// an unsafe head fail the rule only when bindings reach them, with the
// oracle's message, on both schedules — and cost nothing when none do.
func TestLazyPlanErrorsSurviveProjection(t *testing.T) {
	ps := pats(t, `R^o S^io`)
	unbound, unboundSteps := handPlan(t, `Q(y) :- R(x), S(w, y).`, "o", "io")
	ghost := logic.CQ{
		HeadPred: "Q",
		HeadArgs: []logic.Term{logic.Var("ghost")},
		Body:     []logic.Literal{logic.Pos(logic.NewAtom("R", logic.Var("x")))},
	}
	ghostSteps := handSteps(t, ghost, "o")
	for _, tc := range []struct {
		q     logic.CQ
		steps []access.AdornedLiteral
		want  string
	}{
		{unbound, unboundSteps, "needs unbound variable w"},
		{ghost, ghostSteps, "head variable ghost is unbound"},
	} {
		full := NewInstance().MustAdd("R", "a").MustAdd("R", "b").MustAdd("S", "a", "b")
		// An instance has no empty relations: R without rows is a table
		// of its own.
		emptyCat := func() *sources.Catalog {
			return sources.MustCatalog(
				sources.MustTable("R", 1, []access.Pattern{"o"}, nil),
				sources.MustTable("S", 2, []access.Pattern{"io"}, []sources.Tuple{{"a", "b"}}))
		}
		for _, staged := range []bool{false, true} {
			if rel, _, err := runPlan(tc.q, tc.steps, emptyCat(), staged); err != nil || rel.Len() != 0 {
				t.Errorf("%s, staged=%v, no bindings: rows %s, err %v; want neither", tc.q, staged, rel, err)
			}
			if _, _, err := runPlan(tc.q, tc.steps, full.MustCatalog(ps), staged); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, staged=%v: err = %v, want %q", tc.q, staged, err, tc.want)
			}
		}
		agreesWithOracle(t, tc.q, tc.steps, emptyCat)
		agreesWithOracle(t, tc.q, tc.steps, func() *sources.Catalog { return full.MustCatalog(ps) })
	}
}

// twiceSource answers every call with each of its table's tuples twice
// in a row: a source that is not set-valued.
type twiceSource struct{ *sources.Table }

func (s twiceSource) Call(ctx context.Context, p access.Pattern, inputs [][]string) ([][]sources.Tuple, error) {
	groups, err := s.Table.Call(ctx, p, inputs)
	out := make([][]sources.Tuple, len(groups)) // the table's answer is read-only
	for i, g := range groups {
		twice := make([]sources.Tuple, 0, 2*len(g))
		for _, tup := range g {
			twice = append(twice, tup, tup)
		}
		out[i] = twice
	}
	return out, err
}

// Duplicate tuples from a source never reach the answer twice and never
// cost a call: where a step deduplicates they stop there, elsewhere they
// ride to the head's distinct set, as in the oracle — same rows, same
// order, same calls on both schedules.
func TestDuplicateTuplesFromSource(t *testing.T) {
	var r, s []sources.Tuple
	for i := 0; i < 12; i++ {
		r = append(r, sources.Tuple{fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%3)})
	}
	for z := 0; z < 3; z++ {
		s = append(s, sources.Tuple{fmt.Sprintf("z%d", z), fmt.Sprintf("y%d", z%2)})
	}
	mkCat := func() *sources.Catalog {
		return sources.MustCatalog(
			twiceSource{sources.MustTable("R", 2, []access.Pattern{"oo"}, r)},
			twiceSource{sources.MustTable("S", 2, []access.Pattern{"io"}, s)})
	}
	for _, tc := range []struct {
		rule         string
		firstStepOut int
	}{
		{`Q(z, y) :- R(x, z), S(z, y).`, 3},  // x is dropped: R's step deduplicates
		{`Q(x, y) :- R(x, z), S(z, y).`, 24}, // nothing dropped before the last step
	} {
		q, steps := handPlan(t, tc.rule, "oo", "io")
		agreesWithOracle(t, q, steps, mkCat)
		for _, staged := range []bool{false, true} {
			_, prof, err := runPlan(q, steps, mkCat(), staged)
			if err != nil {
				t.Fatal(err)
			}
			if got := prof.Rules[0].Steps[0].BindingsOut; got != tc.firstStepOut {
				t.Errorf("%s, staged=%v: first step sent %d bindings, want %d", tc.rule, staged, got, tc.firstStepOut)
			}
		}
	}
}

// A staged step's seen set is carried across its batches: with batch
// size 1 every z reaches S's stage in a batch of its own, and the y
// values they share must leave it once each, in first-appearance order.
func TestStagedRepeatsAcrossBatches(t *testing.T) {
	in := NewInstance()
	for i := 0; i < 24; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%8))
	}
	for z := 0; z < 8; z++ {
		in.MustAdd("S", fmt.Sprintf("z%d", z), fmt.Sprintf("y%d", z%3))
	}
	for y := 0; y < 3; y++ {
		in.MustAdd("U", fmt.Sprintf("y%d", y))
	}
	ps := pats(t, `R^oo S^io U^i`)
	q, steps := handPlan(t, `Q(y) :- R(x, z), S(z, y), U(y).`, "oo", "io", "i")
	agreesWithOracle(t, q, steps, func() *sources.Catalog { return in.MustCatalog(ps) })
	for _, staged := range []bool{false, true} {
		rel, prof, err := runPlan(q, steps, in.MustCatalog(ps), staged)
		if err != nil {
			t.Fatal(err)
		}
		st := prof.Rules[0].Steps
		if st[0].BindingsOut != 8 || st[1].BindingsIn != 8 || st[1].BindingsOut != 3 || st[2].Calls != 3 || rel.Len() != 3 {
			t.Errorf("staged=%v: bindings R→%d, S %d→%d, U calls %d, %d rows; want 8, 8→3, 3, 3",
				staged, st[0].BindingsOut, st[1].BindingsIn, st[1].BindingsOut, st[2].Calls, rel.Len())
		}
		if staged && prof.Batch.BatchesProcessed < 1+8+3 {
			t.Errorf("only %d batches: S's stage must have seen each z in a batch of its own", prof.Batch.BatchesProcessed)
		}
	}
}

// A column no literal compares and no head returns is never interned:
// one scan of a wide relation grows the catalog's interner by its live
// values only — and so does a scan that finds its state full and starts
// a fresh one.
func TestDeadColumnsAreNotInterned(t *testing.T) {
	const rows, keys = 10000, 10
	mkInstance := func(tag string) *Instance {
		in := NewInstance()
		for i := 0; i < rows; i++ {
			in.MustAdd("W", fmt.Sprintf("%s_k%d", tag, i%keys), fmt.Sprintf("%s_dead%d", tag, i))
		}
		return in
	}
	u := ucq(t, `Q(k) :- W(k, d).`)
	ps := pats(t, `W^oo`)
	rt := NewRuntime()
	check := func(in *Instance, rel *Rel) {
		t.Helper()
		want, err := AnswerNaive(u, in)
		if err != nil {
			t.Fatal(err)
		}
		if !rel.Equal(want) || rel.Len() != keys {
			t.Fatalf("answer %s, naive evaluation gives %s", rel, want)
		}
	}

	in := mkInstance("deadcol")
	cat := in.MustCatalog(ps)
	before, _ := InternerOccupancy(cat)
	rel, _, _, err := eval(context.Background(), rt, u, ps, cat, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	check(in, rel)
	if after, _ := InternerOccupancy(cat); after-before != keys {
		t.Errorf("interner grew by %d entries over a scan with %d live values and %d dead ones, want %d", after-before, keys, rows, keys)
	}
	if _, ok := stateOf(cat).ids.ids.Load("deadcol_dead17"); ok {
		t.Error("a value of the dead column was interned")
	}

	full := stateOf(cat)
	withInternLimit(1, func() { rel, _, _, err = eval(context.Background(), rt, u, ps, cat, Opts{}) })
	if err != nil {
		t.Fatal(err)
	}
	check(in, rel)
	if stateOf(cat) == full {
		t.Fatal("a full state was not replaced")
	}
	if entries, _ := InternerOccupancy(cat); entries != keys {
		t.Errorf("the fresh state holds %d values, want the %d live ones", entries, keys)
	}
}
