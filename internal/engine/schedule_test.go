package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/sources"
	"repro/internal/workload"
)

// schedule is one way to run the driver: whole (Eval) or staged
// (StreamEval, drained) with the batch knobs that shape the stages.
type schedule struct {
	staged        bool
	batch, buffer int
}

func (s schedule) String() string {
	if !s.staged {
		return "whole"
	}
	return fmt.Sprintf("staged(batch=%d,buffer=%d)", s.batch, s.buffer)
}

var schedules = []schedule{
	{},
	{true, 1, 1}, {true, 1, 2},
	{true, 3, 1}, {true, 3, 2},
	{true, 64, 1}, {true, 64, 2},
}

// run executes u under the schedule and returns what a caller of either
// API shape can observe once the execution has finished.
func (s schedule) run(u logic.UCQ, ps *access.Set, cat *sources.Catalog, pre Answered, o Opts) (*Rel, Profile, *Incompleteness, error) {
	rt := NewRuntime()
	rt.Retry = RetryPolicy{}
	ctx := context.Background()
	if !s.staged {
		out := NewRel()
		prof, inc, err := rt.Run(ctx, u, ps, cat, pre, o, Into(out))
		return out, prof, inc, err
	}
	rt.BatchSize, rt.StageBuffer = s.batch, s.buffer
	st, err := rt.StreamEval(ctx, u, ps, cat, pre, o)
	if err != nil {
		return nil, Profile{}, nil, err
	}
	rel, err := st.Drain()
	prof, _ := st.Profile()
	var inc *Incompleteness
	if got, ok := st.Incomplete(); ok {
		inc = &got
	}
	return rel, prof, inc, err
}

// incSummary renders the parts of a degradation report two executions
// of the same plan over the same faults must agree on.
func incSummary(inc *Incompleteness) string {
	if inc == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d", inc.RulesSurvived, inc.RulesTotal)
	for _, f := range inc.Failed {
		fmt.Fprintf(&b, " rule%d@%s:%s", f.RuleIndex, f.Source, f.Class)
	}
	return b.String()
}

// killedCatalog is in's catalog with every call to the dead relation
// failing.
func killedCatalog(t *testing.T, in *Instance, ps *access.Set, dead string) *sources.Catalog {
	t.Helper()
	cat, _, _ := deadCatalog(t, in, ps, map[string]bool{dead: true}, nil)
	return cat
}

// liveStep is what the oracle says about one reached step of one rule:
// how many distinct bindings its output holds once projected onto the
// variables a later literal or the head still reads, and whether the
// compiled step deduplicates (it drops a slot and is not the last).
type liveStep struct {
	distinct int
	dedup    bool
}

// oracleLiveBindings replays every rule step by step through the
// oracle's applyStep — full bindings, no projection — and projects each
// step's output onto its live variables here, by name, independently of
// compileRule's slot analysis.
func oracleLiveBindings(t *testing.T, rt *Runtime, u logic.UCQ, ps *access.Set, cat *sources.Catalog) [][]liveStep {
	t.Helper()
	var out [][]liveStep
	for _, rule := range u.Rules {
		if rule.False {
			continue
		}
		steps, ok := access.AdornInOrder(rule.Body, ps)
		if !ok {
			t.Fatalf("not executable: %s", rule)
		}
		prog := compileRule(rule, steps, newColPool())
		var perStep []liveStep
		bindings := []binding{{}}
		for k, step := range steps {
			var err error
			var sp StepProfile
			if bindings, err = rt.applyStep(context.Background(), step, cat, bindings, &sp, rt.newBudget()); err != nil {
				t.Fatal(err)
			}
			live := map[string]bool{}
			for _, later := range steps[k+1:] {
				for _, a := range later.Literal.Atom.Args {
					live[a.Name] = a.IsVar()
				}
			}
			for _, a := range rule.HeadArgs {
				live[a.Name] = a.IsVar()
			}
			names := make([]string, 0, len(live))
			for name, isVar := range live {
				if isVar {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			distinct := map[string]bool{}
			for _, b := range bindings {
				var key strings.Builder
				for _, name := range names {
					if v, bound := b[name]; bound {
						fmt.Fprintf(&key, "%s=%q,", name, v)
					}
				}
				distinct[key.String()] = true
			}
			perStep = append(perStep, liveStep{distinct: len(distinct), dedup: prog.steps[k].dedup})
			if len(bindings) == 0 {
				break
			}
		}
		out = append(out, perStep)
	}
	return out
}

// checkStepBindings holds a healthy run's per-step accounting to the
// oracle's: a step sends on at least the distinct live bindings and at
// most the oracle's bag of them — exactly the distinct ones when it
// deduplicates — is handed what the step before sent, and serves from
// its memo every binding beyond its distinct calls, never more of them
// than the oracle.
func checkStepBindings(t *testing.T, label string, got, want Profile, live [][]liveStep) {
	t.Helper()
	if len(got.Rules) != len(want.Rules) || len(live) != len(want.Rules) {
		t.Fatalf("%s\n%d rule profiles, oracle %d, replay %d", label, len(got.Rules), len(want.Rules), len(live))
	}
	for ri := range want.Rules {
		in := 1
		for k, w := range want.Rules[ri].Steps {
			g, l := got.Rules[ri].Steps[k], live[ri][k]
			if g.BindingsIn != in {
				t.Fatalf("%s\nrule %d step %d handed %d bindings, the step before sent %d", label, ri+1, k+1, g.BindingsIn, in)
			}
			if g.BindingsOut < l.distinct || g.BindingsOut > w.BindingsOut || (l.dedup && g.BindingsOut != l.distinct) {
				t.Fatalf("%s\nrule %d step %d sent %d bindings; distinct live %d, oracle %d, dedup=%v", label, ri+1, k+1, g.BindingsOut, l.distinct, w.BindingsOut, l.dedup)
			}
			if g.DedupedCalls != g.BindingsIn-g.Calls || g.DedupedCalls > w.DedupedCalls {
				t.Fatalf("%s\nrule %d step %d: %d deduped calls for %d bindings and %d calls, oracle %d", label, ri+1, k+1, g.DedupedCalls, g.BindingsIn, g.Calls, w.DedupedCalls)
			}
			in = g.BindingsOut
		}
	}
}

// The executor's differential suite. On random executable plans with
// negation, constants, and repeated variables, every way to run the one
// driver — {whole, staged × batch 1/3/64 × stage buffer 1/2} ×
// {sequential, parallel} × {strict, partial with one source killed} —
// must agree with the map-based oracle: byte-identical rows in the same
// insertion order (as a set where parallel pipelines interleave), the
// same source calls, per step the oracle's bindings projected onto the
// live variables (checkStepBindings), and the same Incompleteness
// report. With half the disjuncts pre-answered, the materialized and the
// drained-stream results must both be that same relation, for the
// remaining disjuncts' calls only.
func TestSchedulesAgreeWithOracle(t *testing.T) {
	g := workload.New(311)
	s := g.Schema(4, 1, 2)
	ps := g.Patterns(s, 0.3, 2) // mostly-output patterns: more orderable draws
	cfg := workload.QueryConfig{PosLits: 3, NegLits: 1, VarPool: 4, ConstProb: 0.1, HeadVars: 1, DomainSize: 5}
	ctx := context.Background()
	oracleRT := NewRuntime()
	oracleRT.Retry = RetryPolicy{}
	tested, degraded := 0, 0
	for i := 0; i < 250; i++ {
		u, ok := core.ReorderUCQ(g.UCQ(s, 3, cfg), ps)
		if !ok {
			continue
		}
		in := NewInstance()
		if err := in.LoadFacts(g.Facts(s, 10, 5)); err != nil {
			t.Fatal(err)
		}
		var dead string // the first source of the last rule that runs
		for _, rule := range u.Rules {
			if !rule.False {
				dead = rule.Body[0].Atom.Pred
			}
		}
		if dead == "" {
			continue
		}

		healthy := in.MustCatalog(ps)
		want, wantProf, _, err := oracleEval(ctx, oracleRT, u, ps, healthy, false)
		if err != nil {
			t.Fatalf("oracle failed on executable query %s: %v", u, err)
		}
		wantCalls := healthy.TotalStats().Calls
		wantLive := oracleLiveBindings(t, oracleRT, u, ps, in.MustCatalog(ps))
		killed := killedCatalog(t, in, ps, dead)
		wantDeg, _, wantInc, err := oracleEval(ctx, oracleRT, u, ps, killed, true)
		if err != nil {
			t.Fatalf("oracle failed to degrade on %s: %v", u, err)
		}
		wantDegCalls := killed.TotalStats().Calls
		if !wantInc.Complete() {
			degraded++
		}

		for _, sched := range schedules {
			for _, parallel := range []bool{false, true} {
				label := fmt.Sprintf("plan %d, %s, parallel=%v:\n%s", i, sched, parallel, u)
				inOrder := !parallel || !sched.staged

				cat := in.MustCatalog(ps)
				got, prof, inc, err := sched.run(u, ps, cat, Answered{}, Opts{Parallel: parallel})
				if err != nil {
					t.Fatalf("%s\nfailed: %v", label, err)
				}
				if inOrder {
					sameRows(t, got, want, label)
				} else if !got.Equal(want) {
					t.Fatalf("%s\nrows %s, want %s", label, got, want)
				}
				if c := cat.TotalStats().Calls; c != wantCalls || prof.TotalCalls() != wantCalls {
					t.Fatalf("%s\n%d source calls (%d profiled), want %d", label, c, prof.TotalCalls(), wantCalls)
				}
				checkStepBindings(t, label, prof, wantProf, wantLive)
				if inc != nil {
					t.Fatalf("%s\nstrict run reported incompleteness %+v", label, inc)
				}

				cat = killedCatalog(t, in, ps, dead)
				got, _, inc, err = sched.run(u, ps, cat, Answered{}, Opts{Parallel: parallel, Partial: true})
				if err != nil {
					t.Fatalf("%s\nfailed to degrade with %s dead: %v", label, dead, err)
				}
				if inOrder {
					sameRows(t, got, wantDeg, label+"\ndegraded")
				} else if !got.Equal(wantDeg) {
					t.Fatalf("%s\ndegraded rows %s, want %s", label, got, wantDeg)
				}
				if g, w := incSummary(inc), incSummary(wantInc); g != w {
					t.Fatalf("%s\nincompleteness %s, want %s", label, g, w)
				}
				// A whole rule finishes every step before the one that
				// dies; a staged rule's upstream stages are torn down
				// with calls still unissued.
				if c := cat.TotalStats().Calls; c > wantDegCalls || (!sched.staged && c != wantDegCalls) {
					t.Fatalf("%s\n%d source calls with %s dead, want %d", label, c, dead, wantDegCalls)
				}
			}
		}

		// Pre-answer every other disjunct with its own rows.
		pre := Answered{Covered: make([]bool, len(u.Rules)), Rows: make([][]Row, len(u.Rules))}
		live, liveCalls := 0, 0
		for ri, rule := range u.Rules {
			cat := in.MustCatalog(ps)
			own, _, _, err := oracleEval(ctx, oracleRT, logic.UCQ{Rules: []logic.CQ{rule}}, ps, cat, false)
			if err != nil {
				t.Fatal(err)
			}
			if ri%2 == 0 {
				pre.Covered[ri], pre.Rows[ri] = true, own.Rows()
			} else if !rule.False {
				live++
				liveCalls += cat.TotalStats().Calls
			}
		}
		for _, sched := range []schedule{{}, {true, 3, 1}} {
			cat := in.MustCatalog(ps)
			got, prof, _, err := sched.run(u, ps, cat, pre, Opts{})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("plan %d, %s, half pre-answered:\n%s", i, sched, u)
			sameRows(t, got, want, label)
			if c := cat.TotalStats().Calls; c != liveCalls {
				t.Fatalf("%s\n%d source calls, want the live disjuncts' %d", label, c, liveCalls)
			}
			if len(prof.Rules) != live {
				t.Fatalf("%s\n%d rule profiles, want one per live disjunct (%d)", label, len(prof.Rules), live)
			}
		}
		tested++
	}
	if tested < 40 || degraded < 20 {
		t.Errorf("only %d plans engaged, %d of them degraded", tested, degraded)
	}
}

// runStar executes ANSWER* for plans under the schedule: the report,
// what the caller's API shape hands out as the answer (Under itself, or
// the drained stream), the profile and the degradation report.
func (s schedule) runStar(plans core.PlanStar, ps *access.Set, cat *sources.Catalog, o Opts) (AnswerStar, *Rel, Profile, *Incompleteness, error) {
	rt := NewRuntime()
	rt.Retry = RetryPolicy{}
	ctx := context.Background()
	if !s.staged {
		star, prof, inc, err := rt.RunAnswerStarWithPlans(ctx, plans, ps, cat, o)
		return star, star.Under, prof, inc, err
	}
	rt.BatchSize, rt.StageBuffer = s.batch, s.buffer
	st, err := rt.StreamAnswerStar(ctx, plans, ps, cat, o)
	if err != nil {
		return AnswerStar{}, nil, Profile{}, nil, err
	}
	rel, err := st.Drain()
	if err != nil {
		return AnswerStar{}, nil, Profile{}, nil, err
	}
	star, ok := st.Star()
	if !ok {
		return AnswerStar{}, nil, Profile{}, nil, fmt.Errorf("no ANSWER* report after the stream ran to its end")
	}
	prof, _ := st.Profile()
	var inc *Incompleteness
	if got, ok := st.Incomplete(); ok {
		inc = &got
	}
	return star, rel, prof, inc, nil
}

// covered reports whether some row of rel equals row on every non-null
// position: the null-aware order of Example 7.
func covered(row Row, rel *Rel) bool {
	for _, o := range rel.Rows() {
		match := len(o) == len(row)
		for j := 0; match && j < len(o); j++ {
			match = o[j].Null || o[j] == row[j]
		}
		if match {
			return true
		}
	}
	return false
}

// ANSWER* held to the oracle. On Example 4/5's union, a three-rule union
// with two complete rules around a dismissed one, an incomplete rule
// whose overestimate is null-free (the ratio case), and a union PLAN*
// dismisses entirely, every schedule × {sequential, parallel} must give
// Under and Over byte-identical, in insertion order, to evaluating
// plans.Under and plans.Over separately through the map evaluator — for
// exactly the source calls of plans.Over alone — with Under ⊆ naive ⊆
// Over on the null-aware order and the report derived as Figure 4 says.
// With one source killed under Opts.Partial, the estimates are those of
// the surviving rules and the overestimate is not certified.
func TestAnswerStarAgreesWithOracle(t *testing.T) {
	schema := workload.Schema{Relations: []workload.RelDef{
		{Name: "R", Arity: 2}, {Name: "S", Arity: 1}, {Name: "B", Arity: 2}, {Name: "T", Arity: 2},
	}}
	ps := pats(t, `S^o R^oo B^oi T^oo`)
	cases := []struct {
		name, query string
		certain     []bool
		dead        string
	}{
		{"example 4", "Q(x, y) :- not S(z), R(x, z), B(x, y).\nQ(x, y) :- T(x, y).", []bool{false, true}, "T"},
		{"complete, dismissed, complete", "Q(x, y) :- T(x, y), not S(x).\nQ(x, y) :- not S(z), R(x, z), B(x, y).\nQ(x, y) :- R(x, y).", []bool{true, false, true}, "T"},
		{"null-free overestimate", "Q(x) :- R(x, z), B(z, w).\nQ(x) :- T(x, x).", []bool{false, true}, "R"},
		{"all dismissed", "Q(x, y) :- R(x, z), B(x, y).\nQ(x, y) :- S(x), B(x, y).", []bool{false, false}, "S"},
	}
	ctx := context.Background()
	oracleRT := NewRuntime()
	oracleRT.Retry = RetryPolicy{}
	g := workload.New(97)
	for _, c := range cases {
		u := ucq(t, c.query)
		plans := core.ComputePlans(u, ps)
		for i, ra := range plans.Rules {
			if ra.Complete() != c.certain[i] {
				t.Fatalf("%s: rule %d complete = %v, the case needs %v", c.name, i+1, ra.Complete(), c.certain[i])
			}
		}
		ratios, incomplete := 0, 0
		for draw := 0; draw < 20; draw++ {
			in := NewInstance()
			if err := in.LoadFacts(g.Facts(schema, 6, 5)); err != nil {
				t.Fatal(err)
			}
			naive, err := AnswerNaive(u, in)
			if err != nil {
				t.Fatal(err)
			}
			underCat, overCat := in.MustCatalog(ps), in.MustCatalog(ps)
			wantUnder, _, _, err := oracleEval(ctx, oracleRT, plans.Under, ps, underCat, false)
			if err != nil {
				t.Fatal(err)
			}
			wantOver, _, _, err := oracleEval(ctx, oracleRT, plans.Over, ps, overCat, false)
			if err != nil {
				t.Fatal(err)
			}
			wantStats := overCat.TotalStats()
			if len(plans.Under.Rules) > 0 && underCat.TotalStats().Calls == 0 {
				t.Fatalf("%s: the underestimate made no calls; the case saves nothing", c.name)
			}
			wantDegUnder, _, _, err := oracleEval(ctx, oracleRT, plans.Under, ps, killedCatalog(t, in, ps, c.dead), true)
			if err != nil {
				t.Fatal(err)
			}
			wantDegOver, _, wantInc, err := oracleEval(ctx, oracleRT, plans.Over, ps, killedCatalog(t, in, ps, c.dead), true)
			if err != nil {
				t.Fatal(err)
			}
			if wantInc.Complete() {
				t.Fatalf("%s: killing %s degrades no rule of the overestimate", c.name, c.dead)
			}

			for _, sched := range schedules {
				for _, parallel := range []bool{false, true} {
					label := fmt.Sprintf("%s, draw %d, %s, parallel=%v", c.name, draw, sched, parallel)
					inOrder := !parallel || !sched.staged
					same := func(got, want *Rel, what string) {
						t.Helper()
						if inOrder {
							sameRows(t, got, want, label+"\n"+what)
						} else if !got.Equal(want) {
							t.Fatalf("%s\n%s = %s, want %s", label, what, got, want)
						}
					}

					cat := in.MustCatalog(ps)
					star, answer, prof, inc, err := sched.runStar(plans, ps, cat, Opts{Parallel: parallel})
					if err != nil {
						t.Fatalf("%s\nfailed: %v", label, err)
					}
					same(star.Under, wantUnder, "Under")
					same(star.Over, wantOver, "Over")
					same(answer, wantUnder, "answer handed out")
					if got := cat.TotalStats(); got.Calls != wantStats.Calls || got.TuplesReturned != wantStats.TuplesReturned || prof.TotalCalls() != wantStats.Calls {
						t.Fatalf("%s\n%d calls / %d tuples (%d calls profiled), want those of the overestimate alone: %d / %d", label, got.Calls, got.TuplesReturned, prof.TotalCalls(), wantStats.Calls, wantStats.TuplesReturned)
					}
					if len(prof.Rules) != len(plans.Over.Rules) {
						t.Fatalf("%s\n%d rule profiles, want one per rule of the overestimate (%d)", label, len(prof.Rules), len(plans.Over.Rules))
					}
					if inc != nil {
						t.Fatalf("%s\nstrict run reported incompleteness %+v", label, inc)
					}
					for _, row := range star.Under.Rows() {
						if !naive.Contains(row) {
							t.Fatalf("%s\nunderestimate row %s is no answer", label, row)
						}
					}
					for _, row := range naive.Rows() {
						if !covered(row, star.Over) {
							t.Fatalf("%s\nanswer %s is not covered by the overestimate %s", label, row, star.Over)
						}
					}
					delta := wantOver.Minus(wantUnder)
					if !star.OverCertified || !star.Delta.Equal(delta) || star.Complete != (delta.Len() == 0) ||
						star.RatioValid != (delta.Len() > 0 && !delta.HasNull()) ||
						(star.RatioValid && star.Ratio != float64(wantUnder.Len())/float64(wantOver.Len())) {
						t.Fatalf("%s\nreport does not follow from the estimates:\n%s", label, star.Report())
					}
					if star.RatioValid {
						ratios++
					}
					if !star.Complete {
						incomplete++
					}

					cat = killedCatalog(t, in, ps, c.dead)
					star, answer, _, inc, err = sched.runStar(plans, ps, cat, Opts{Parallel: parallel, Partial: true})
					if err != nil {
						t.Fatalf("%s\nfailed to degrade with %s dead: %v", label, c.dead, err)
					}
					same(star.Under, wantDegUnder, "degraded Under")
					same(star.Over, wantDegOver, "degraded Over")
					same(answer, wantDegUnder, "degraded answer handed out")
					if g, w := incSummary(inc), incSummary(wantInc); g != w {
						t.Fatalf("%s\nincompleteness %s, want %s", label, g, w)
					}
					if star.OverCertified || star.Complete || star.RatioValid || !strings.Contains(star.Report(), "not certified") {
						t.Fatalf("%s\na dropped disjunct must leave the overestimate uncertified:\n%s", label, star.Report())
					}
				}
			}
		}
		if c.name == "null-free overestimate" && ratios == 0 {
			t.Errorf("%s: no draw reported a completeness ratio", c.name)
		}
		if incomplete == 0 {
			t.Errorf("%s: every draw was complete; Δ was never exercised", c.name)
		}
	}
}

// What the merge of the materialized and streamed drivers could
// silently change, pinned.

// A streamed execution reports the same error value Eval does: under
// Parallel, every distinct rule failure, joined in rule order.
func TestStreamErrJoinsParallelRuleErrors(t *testing.T) {
	in := NewInstance().MustAdd("R", "a")
	ps := pats(t, `R^o Z1^o Z2^o`)
	cat := in.MustCatalog(pats(t, `R^o`)) // Z1/Z2 declared but unpublished
	u := ucq(t, "Q(x) :- Z1(x).\nQ(x) :- Z2(x).\nQ(x) :- R(x).")
	_, _, _, want := NewRuntime().Eval(context.Background(), u, ps, cat, Opts{Parallel: true})
	if want == nil {
		t.Fatal("rule errors must propagate")
	}
	s, err := NewRuntime().StreamParallel(context.Background(), u, ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	for s.Next() {
	}
	got := s.Err()
	if got == nil || got.Error() != want.Error() {
		t.Errorf("Stream.Err = %v, want Eval's %v", got, want)
	}
	if err := s.Close(); err == nil || err.Error() != want.Error() {
		t.Errorf("Close = %v, want %v", err, want)
	}
	for _, part := range []string{"engine: rule 1:", "Z1", "engine: rule 2:", "Z2"} {
		if !strings.Contains(want.Error(), part) {
			t.Errorf("joined error missing %q: %v", part, want)
		}
	}
}

// A streamed rule whose head repeats emits each distinct row once, also
// when the repeats arrive in different batches.
func TestStreamEmitsDistinctRowsPerRule(t *testing.T) {
	u := ucq(t, `Q(z) :- R(x, z).`)
	ps := pats(t, `R^oo`)
	in := NewInstance()
	for i := 0; i < 40; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%4))
	}
	rt := NewRuntime()
	rt.BatchSize = 3
	s, err := rt.Stream(context.Background(), u, ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	seen := map[string]bool{}
	for s.Next() {
		k := s.Tuple().Key()
		if seen[k] {
			t.Fatalf("row %s emitted twice", s.Tuple())
		}
		seen[k] = true
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Errorf("%d distinct rows, want 4", len(seen))
	}
	if prof, ok := s.Profile(); !ok || prof.Rules[0].Answers != 4 {
		t.Errorf("profile = %+v/%v, want 4 answers emitted", prof, ok)
	}
}

// The inline path stays inline: Eval of a one-rule, two-step plan over
// Tables allocates 313 times (422 before the evaluator's string-keyed
// maps became idTables; 411 before per-step accounting was always
// recorded). One stage goroutine with its channel costs more than the
// slack left here, and so does a key allocated per binding.
func TestEvalInlineAllocs(t *testing.T) {
	u := ucq(t, `Q(x, y) :- R(x, z), T(z, y).`)
	ps := pats(t, `R^oo T^io`)
	in := NewInstance()
	for i := 0; i < 50; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%5))
		in.MustAdd("T", fmt.Sprintf("z%d", i%5), fmt.Sprintf("y%d", i%5))
	}
	cat := in.MustCatalog(ps)
	rt := NewRuntime()
	rt.Concurrency = 1 // no worker pool: every allocation is the driver's
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, _, err := rt.Eval(context.Background(), u, ps, cat, Opts{}); err != nil {
			t.Fatal(err)
		}
	})
	const limit = 313 + 8
	if allocs > limit {
		t.Errorf("Eval allocated %.0f times, want at most %d", allocs, limit)
	}
}
