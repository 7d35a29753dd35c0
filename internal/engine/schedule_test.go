package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/sources"
	"repro/internal/sources/sourcetest"
	"repro/internal/workload"
)

// schedule is one way to run the driver: whole (Run) or staged
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
func (s schedule) run(u logic.UCQ, ps *access.Set, cat *sources.Catalog, pre Answered, o Opts) (*Rel, Profile, *Report, error) {
	p, err := core.NewPlan(u, ps)
	if err != nil {
		return nil, Profile{}, nil, err
	}
	rt := NewRuntime()
	rt.Retry = RetryPolicy{}
	ctx := context.Background()
	if !s.staged {
		star := NewStarSink(p)
		prof, rep, err := rt.Run(ctx, p, cat, pre, o, star.Sink())
		star.Fill(&rep)
		return rep.Over, prof, partialReport(rep, o), err
	}
	rt.BatchSize, rt.StageBuffer = s.batch, s.buffer
	st := rt.StreamEval(ctx, p, cat, pre, o)
	rel, err := st.Drain()
	prof, _ := st.Profile()
	var inc *Report
	if got, ok := st.Report(); ok {
		inc = partialReport(got, o)
	}
	return rel, prof, inc, err
}

// incSummary renders the parts of a degradation report two executions
// of the same plan over the same faults must agree on.
func incSummary(inc *Report) string {
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
// variables a later literal or the head still reads, whether the
// compiled step deduplicates (it drops a slot and is not the last), and
// how many distinct calls the step asks — each at most once, whoever
// asked it before.
type liveStep struct {
	distinct int
	dedup    bool
	calls    int
}

// oracleLiveBindings replays every rule step by step through the
// oracle's applyStep — full bindings, no projection — and projects each
// step's output onto its live variables here, by name, independently of
// compileRule's slot analysis.
func oracleLiveBindings(t *testing.T, rt *Runtime, u logic.UCQ, ps *access.Set, cat *sources.Catalog) [][]liveStep {
	t.Helper()
	x := rt.newExecution(cat, Opts{}, false, nil)
	var out [][]liveStep
	for _, rule := range u.Rules {
		if rule.False {
			continue
		}
		steps, ok := access.AdornInOrder(rule.Body, ps)
		if !ok {
			t.Fatalf("not executable: %s", rule)
		}
		prog := compileRule(rule, steps, newColPool(newEngineState()), &relOrds{})
		var perStep []liveStep
		bindings := []binding{{}}
		for k, step := range steps {
			var err error
			var sp StepProfile
			if bindings, err = x.applyStep(context.Background(), step, bindings, &sp, nil); err != nil {
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
			perStep = append(perStep, liveStep{distinct: len(distinct), dedup: prog.steps[k].dedup, calls: sp.Calls})
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
// the call table every binding it does not ask for, asking at most its
// distinct calls. Where the rules and their steps run one after another
// in the oracle's order (exact), a step asks exactly the calls the
// oracle's asks; otherwise which of two steps that share a call asks it
// is a race.
func checkStepBindings(t *testing.T, label string, got, want Profile, live [][]liveStep, exact bool) {
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
			if g.DedupedCalls != g.BindingsIn-g.Calls || g.Calls > l.calls || (exact && g.Calls != w.Calls) {
				t.Fatalf("%s\nrule %d step %d: %d deduped calls for %d bindings and %d calls; %d distinct, oracle asked %d", label, ri+1, k+1, g.DedupedCalls, g.BindingsIn, g.Calls, l.calls, w.Calls)
			}
			in = g.BindingsOut
		}
	}
}

// distinctQuestions returns cat with every table recording the distinct
// (relation, pattern, inputs) triples it is asked, and their count.
func distinctQuestions(cat *sources.Catalog) (*sources.Catalog, func() int) {
	var mu sync.Mutex
	asked := map[string]bool{}
	for _, name := range cat.Names() {
		tab := cat.Source(name).(*sources.Table)
		tab.OnCall = func(p access.Pattern, inputs []string) {
			mu.Lock()
			asked[name+"^"+string(p)+"\x00"+sources.Key(inputs)] = true
			mu.Unlock()
		}
	}
	return cat, func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(asked)
	}
}

// agreeStrict runs u over in under every schedule × {sequential,
// parallel}, each runs times on one read-only catalog — from the second
// run on, every held answer's joins are the ones the first run built —
// and holds every run to the oracle: rows in its order (as a set where
// parallel stages interleave), its source calls — the distinct
// (relation, pattern, inputs) triples it asks, each once — its bindings
// per step (checkStepBindings), no incompleteness, and no write into an
// answer. It returns the oracle's rows, its calls and the number of
// calls whose join side was held.
func agreeStrict(t *testing.T, label string, u logic.UCQ, ps *access.Set, in *Instance, runs int) (want *Rel, wantCalls, held int) {
	t.Helper()
	oracleRT := NewRuntime()
	oracleRT.Retry = RetryPolicy{}
	healthy, questions := distinctQuestions(in.MustCatalog(ps))
	want, wantProf, _, err := oracleEval(context.Background(), oracleRT, u, ps, healthy, false)
	if err != nil {
		t.Fatalf("oracle failed on executable query %s: %v", u, err)
	}
	wantCalls = healthy.TotalStats().Calls
	if q := questions(); wantCalls != q {
		t.Fatalf("%s: %s\nthe oracle made %d calls for %d distinct questions", label, u, wantCalls, q)
	}
	wantLive := oracleLiveBindings(t, oracleRT, u, ps, in.MustCatalog(ps))
	for _, sched := range schedules {
		for _, parallel := range []bool{false, true} {
			cat, verify := sourcetest.ReadOnlyCatalog(in.MustCatalog(ps))
			for run := 1; run <= runs; run++ {
				label := fmt.Sprintf("%s, %s, parallel=%v, run %d:\n%s", label, sched, parallel, run, u)
				got, prof, inc, err := sched.run(u, ps, cat, Answered{}, Opts{Parallel: parallel})
				if err != nil {
					t.Fatalf("%s\nfailed: %v", label, err)
				}
				if !parallel || !sched.staged {
					sameRows(t, got, want, label)
				} else if !got.Equal(want) {
					t.Fatalf("%s\nrows %s, want %s", label, got, want)
				}
				if c := cat.TotalStats().Calls; c != run*wantCalls || prof.Calls.Total != wantCalls {
					t.Fatalf("%s\n%d source calls (%d profiled), want %d a run", label, c, prof.Calls.Total, wantCalls)
				}
				checkStepBindings(t, label, prof, wantProf, wantLive, !parallel && !sched.staged)
				if inc != nil {
					t.Fatalf("%s\nstrict run reported incompleteness %+v", label, inc)
				}
				held += prof.Batch.HeldAnswers
			}
			verify(t)
		}
	}
	return want, wantCalls, held
}

// The executor's differential suite. On random executable plans with
// negation, constants, and repeated variables, every way to run the one
// driver — {whole, staged × batch 1/3/64 × stage buffer 1/2} ×
// {sequential, parallel} × {strict, partial with one source killed} —
// must agree with the map-based oracle: byte-identical rows in the same
// insertion order (as a set where parallel pipelines interleave), the
// same source calls, per step the oracle's bindings projected onto the
// live variables (checkStepBindings), and the same Report
// report. With half the disjuncts pre-answered, the materialized and the
// drained-stream results must both be that same relation, for the
// remaining disjuncts' calls only. Every fifth plan also runs, strict and
// twice per catalog, over an instance of ≥ heldMinRows tuples a relation,
// so that its scans are held answers and the second run reads the held
// joins the first one built.
func TestSchedulesAgreeWithOracle(t *testing.T) {
	g := workload.New(311)
	s := g.Schema(4, 1, 2)
	ps := g.Patterns(s, 0.3, 2) // mostly-output patterns: more orderable draws
	cfg := workload.QueryConfig{PosLits: 3, NegLits: 1, VarPool: 4, ConstProb: 0.1, HeadVars: 1, DomainSize: 5}
	long := workload.New(312) // its own stream: the draws above stay as they were
	ctx := context.Background()
	oracleRT := NewRuntime()
	oracleRT.Retry = RetryPolicy{}
	tested, degraded, heldDraws := 0, 0, 0

	// A union whose rules share accesses: R's scan and S's two lookups
	// are asked once for all three rules, 9 distinct questions where
	// asking once per step made 15.
	shared := ucq(t, `Q(x, y) :- R(x, z), S(z, y), not T(y).
		Q(x, y) :- R(x, z), S(z, y), U(y).
		Q(x, y) :- R(x, y), S(y, x).`)
	sharedIn := NewInstance().MustAdd("R", "a", "1").MustAdd("R", "a", "2").MustAdd("R", "b", "1").
		MustAdd("S", "1", "c").MustAdd("S", "2", "d").MustAdd("S", "1", "a").
		MustAdd("T", "c").MustAdd("U", "d").MustAdd("U", "a")
	sharedRows, calls, _ := agreeStrict(t, "shared accesses", shared, pats(t, `R^oo S^io T^i U^i`), sharedIn, 2)
	if calls != 9 || sharedRows.Len() != 4 {
		t.Fatalf("shared accesses: %d calls, rows\n%s\nwant 9 calls and 4 rows", calls, sharedRows)
	}

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

		want, _, _ := agreeStrict(t, fmt.Sprintf("plan %d", i), u, ps, in, 1)
		if tested%5 == 0 {
			big := NewInstance()
			if err := big.LoadFacts(long.Facts(s, 80, 48)); err != nil {
				t.Fatal(err)
			}
			for _, r := range s.Relations {
				if n := len(big.Rows(r.Name)); n < heldMinRows {
					t.Fatalf("plan %d: the long instance has %d tuples of %s", i, n, r.Name)
				}
			}
			if _, _, held := agreeStrict(t, fmt.Sprintf("plan %d, long relations", i), u, ps, big, 2); held > 0 {
				heldDraws++
			}
		}
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

				cat := killedCatalog(t, in, ps, dead)
				got, _, inc, err := sched.run(u, ps, cat, Answered{}, Opts{Parallel: parallel, Partial: true})
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
		var liveRules logic.UCQ
		for ri, rule := range u.Rules {
			if ri%2 == 0 {
				own, _, _, err := oracleEval(ctx, oracleRT, logic.UCQ{Rules: []logic.CQ{rule}}, ps, in.MustCatalog(ps), false)
				if err != nil {
					t.Fatal(err)
				}
				pre.Covered[ri], pre.Rows[ri] = true, own.Rows()
			} else if !rule.False {
				liveRules.Rules = append(liveRules.Rules, rule)
			}
		}
		liveCat := in.MustCatalog(ps)
		if _, _, _, err := oracleEval(ctx, oracleRT, liveRules, ps, liveCat, false); err != nil {
			t.Fatal(err)
		}
		live, liveCalls := len(liveRules.Rules), liveCat.TotalStats().Calls
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
	if tested < 40 || degraded < 20 || heldDraws < 10 {
		t.Errorf("only %d plans engaged, %d of them degraded, %d read held answers", tested, degraded, heldDraws)
	}
}

// runStar executes ANSWER* for plan p under the schedule: the report,
// what the caller's API shape hands out as the answer (Under itself, or
// the drained stream), the profile and, under o.Partial, the report
// again (partialReport).
func (s schedule) runStar(p core.Plan, cat *sources.Catalog, o Opts) (Report, *Rel, Profile, *Report, error) {
	rt := NewRuntime()
	rt.Retry = RetryPolicy{}
	ctx := context.Background()
	if !s.staged {
		star, prof, inc, err := runStar(ctx, rt, p, cat, o)
		return star, star.Under, prof, inc, err
	}
	rt.BatchSize, rt.StageBuffer = s.batch, s.buffer
	st := rt.StreamEval(ctx, p, cat, Answered{}, o)
	rel, err := st.Drain()
	if err != nil {
		return Report{}, nil, Profile{}, nil, err
	}
	star, ok := st.Report()
	if !ok {
		return Report{}, nil, Profile{}, nil, fmt.Errorf("no ANSWER* report after the stream ran to its end")
	}
	prof, _ := st.Profile()
	return star, rel, prof, partialReport(star, o), nil
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
		plans, p := core.ComputePlans(u, ps), mustPlan(t, u, ps)
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

					cat, verify := sourcetest.ReadOnlyCatalog(in.MustCatalog(ps))
					star, answer, prof, inc, err := sched.runStar(p, cat, Opts{Parallel: parallel})
					if err != nil {
						t.Fatalf("%s\nfailed: %v", label, err)
					}
					verify(t)
					same(star.Under, wantUnder, "Under")
					same(star.Over, wantOver, "Over")
					same(answer, wantUnder, "answer handed out")
					if got := cat.TotalStats(); got.Calls != wantStats.Calls || got.TuplesReturned != wantStats.TuplesReturned || prof.Calls.Total != wantStats.Calls {
						t.Fatalf("%s\n%d calls / %d tuples (%d calls profiled), want those of the overestimate alone: %d / %d", label, got.Calls, got.TuplesReturned, prof.Calls.Total, wantStats.Calls, wantStats.TuplesReturned)
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
					if !star.Certified || !star.Delta.Equal(delta) || star.Complete() != (delta.Len() == 0) ||
						star.RatioValid != (delta.Len() > 0 && !delta.HasNull()) ||
						(star.RatioValid && star.Ratio != float64(wantUnder.Len())/float64(wantOver.Len())) {
						t.Fatalf("%s\nreport does not follow from the estimates:\n%s", label, star.String())
					}
					if star.RatioValid {
						ratios++
					}
					if !star.Complete() {
						incomplete++
					}

					cat = killedCatalog(t, in, ps, c.dead)
					star, answer, _, inc, err = sched.runStar(p, cat, Opts{Parallel: parallel, Partial: true})
					if err != nil {
						t.Fatalf("%s\nfailed to degrade with %s dead: %v", label, c.dead, err)
					}
					same(star.Under, wantDegUnder, "degraded Under")
					same(star.Over, wantDegOver, "degraded Over")
					same(answer, wantDegUnder, "degraded answer handed out")
					if g, w := incSummary(inc), incSummary(wantInc); g != w {
						t.Fatalf("%s\nincompleteness %s, want %s", label, g, w)
					}
					if star.Certified || star.Complete() || star.RatioValid || !strings.Contains(star.String(), "not certified") {
						t.Fatalf("%s\na dropped disjunct must leave the overestimate uncertified:\n%s", label, star.String())
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

// A streamed execution reports the same error value a materialized run does: under
// Parallel, every distinct rule failure, joined in rule order.
func TestStreamErrJoinsParallelRuleErrors(t *testing.T) {
	in := NewInstance().MustAdd("R", "a")
	ps := pats(t, `R^o Z1^o Z2^o`)
	cat := in.MustCatalog(pats(t, `R^o`)) // Z1/Z2 declared but unpublished
	u := ucq(t, "Q(x) :- Z1(x).\nQ(x) :- Z2(x).\nQ(x) :- R(x).")
	_, _, _, want := eval(context.Background(), NewRuntime(), u, ps, cat, Opts{Parallel: true})
	if want == nil {
		t.Fatal("rule errors must propagate")
	}
	s := NewRuntime().StreamEval(context.Background(), mustPlan(t, u, ps), cat, Answered{}, Opts{Parallel: true})
	for s.Next() {
	}
	got := s.Err()
	if got == nil || got.Error() != want.Error() {
		t.Errorf("Stream.Err = %v, want the materialized run's %v", got, want)
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
	s, err := streamQuery(context.Background(), rt, u, ps, in.MustCatalog(ps))
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

// The inline path stays inline: eval of a one-rule, two-step plan over
// Tables allocates 28 times in a warm process (63 before an execution
// recycled its scratch; 269 before head rows were cut from one
// slab and the answer relation took them over without a key or a copy;
// 299 before a step's short answers shared one join and its calls one
// slab; 422 before the evaluator's string-keyed maps became idTables).
// One stage goroutine with its channel costs more than the slack left
// here, and so does a key or an allocation per row.
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
		if _, _, _, err := eval(context.Background(), rt, u, ps, cat, Opts{}); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(28 + 8 + raceAllocSlack); allocs > limit {
		t.Errorf("eval allocated %.0f times, want at most %.0f", allocs, limit)
	}
}

// The driver runs the plan's adornment and does not re-adorn: a plan
// whose steps chose T's widest pattern (PreferFewestInputs, where
// planning picks T^io) calls T with that pattern, on either schedule,
// and answers what the default plan answers.
func TestRunUsesThePlansAdornment(t *testing.T) {
	u := ucq(t, `Q(x, y) :- R(x), T(x, y).`)
	ps := pats(t, `R^o T^io T^oo`)
	in := NewInstance().MustAdd("R", "a").MustAdd("R", "b").MustAdd("T", "a", "1").MustAdd("T", "c", "2")
	want, err := answer(context.Background(), defaultRuntime, u, ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	steps, ok := access.AdornInOrderPrefer(u.Rules[0].Body, ps, access.PreferFewestInputs)
	if !ok || steps[1].Pattern != "oo" {
		t.Fatalf("fixture: widest adornment = %v", steps)
	}
	p := core.Plan{Exec: u, Steps: [][]access.AdornedLiteral{steps}}
	for _, staged := range []bool{false, true} {
		cat := in.MustCatalog(ps)
		var mu sync.Mutex
		var seen []access.Pattern
		cat.Source("T").(*sources.Table).OnCall = func(pat access.Pattern, _ []string) {
			mu.Lock()
			defer mu.Unlock()
			seen = append(seen, pat)
		}
		got := NewRel()
		if staged {
			if got, err = NewRuntime().StreamEval(context.Background(), p, cat, Answered{}, Opts{}).Drain(); err != nil {
				t.Fatal(err)
			}
		} else if _, _, err := NewRuntime().Run(context.Background(), p, cat, Answered{}, Opts{}, Into(got)); err != nil {
			t.Fatal(err)
		}
		if len(seen) == 0 || !got.Equal(want) {
			t.Fatalf("staged=%v: %d calls to T, answer %s; want calls and %s", staged, len(seen), got, want)
		}
		for _, pat := range seen {
			if pat != "oo" {
				t.Fatalf("staged=%v: T called with %s, want the plan's oo", staged, pat)
			}
		}
	}
}

// A call is keyed by its relation, its pattern and its inputs: R^io(d)
// and R^io(a) are two questions, and so are R^io(a) and R^oi(a), each
// with its own answer. A key without the inputs would answer R^io(a)
// with R^io(d)'s tuple, one without the pattern R^oi(a) with R^io(a)'s,
// and either would lose the one row and ask fewer than 5 questions.
func TestCallTableKeysRelationPatternInputs(t *testing.T) {
	u := ucq(t, `Q(y, w) :- A(x), R(x, y), R(w, x).`)
	ps := pats(t, `A^o R^io R^oi`)
	in := NewInstance().MustAdd("A", "d").MustAdd("A", "a").
		MustAdd("R", "d", "e").MustAdd("R", "a", "b").MustAdd("R", "c", "a")
	p, err := core.NewPlan(u, ps)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(p.Steps[0]); got != "[A^o(x) R^io(x, y) R^oi(w, x)]" {
		t.Fatalf("plan %s, want R looked up by x on both patterns", got)
	}
	want, calls, _ := agreeStrict(t, "same inputs, two patterns", u, ps, in, 1)
	if calls != 5 || want.Len() != 1 || !want.Contains(RowOf("b", "c")) {
		t.Fatalf("%d calls, rows %s; want 5 calls and (b, c)", calls, want)
	}
}
