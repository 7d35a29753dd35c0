package ucqn

// Graceful-degradation facade tests and the fault-injection smoke suite
// (`make fault-smoke`): the paper's worked examples executed through
// their PLAN* underestimates with one source killed must degrade — drop
// the disjuncts that need the dead source, answer with the rest, and say
// so — never crash or hang.

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// degradeFixtureQ is a two-rule union where killing S leaves exactly
// rule 1's answers.
func degradeFixtureQ(t *testing.T) (Query, *PatternSet, *Instance) {
	t.Helper()
	q := MustParseQuery(`
		Q(x) :- R(x).
		Q(x) :- S(x).
	`)
	ps := MustParsePatterns(`R^o S^o`)
	in := NewInstance()
	in.MustAdd("R", "a").MustAdd("R", "b").MustAdd("S", "c")
	return q, ps, in
}

// fastRuntime is a runtime with cheap retries for fault tests.
func fastRuntime() *Runtime {
	rt := NewRuntime()
	rt.Retry.MaxAttempts = 2
	rt.Retry.BaseDelay = 0
	return rt
}

// killSource rebuilds the catalog with relation dead permanently failing
// behind a circuit breaker; every other source is passed through.
func killSource(t testing.TB, in *Instance, ps *PatternSet, dead string) (*Catalog, *FlakySource, *Breaker) {
	t.Helper()
	base := in.MustCatalog(ps)
	var srcs []Source
	var flaky *FlakySource
	var brk *Breaker
	for _, name := range base.Names() {
		src := base.Source(name)
		if name == dead {
			flaky = NewFlakySource(src, FlakyConfig{FailEveryN: 1})
			brk = NewBreaker(flaky, BreakerConfig{Window: 4, Threshold: 2, Cooldown: time.Hour})
			src = brk
		}
		srcs = append(srcs, src)
	}
	cat, err := NewCatalog(srcs...)
	if err != nil {
		t.Fatal(err)
	}
	return cat, flaky, brk
}

func TestExecPartialResultsMaterialized(t *testing.T) {
	q, ps, in := degradeFixtureQ(t)
	cat, _, _ := killSource(t, in, ps, "S")

	// Strict mode surfaces the failure.
	if _, err := Exec(context.Background(), q, ps, cat, WithRuntime(fastRuntime())); err == nil {
		t.Fatal("strict Exec must fail with a dead source")
	}

	res, err := Exec(context.Background(), q, ps, cat, WithRuntime(fastRuntime()), WithPartialResults())
	if err != nil {
		t.Fatalf("partial Exec must degrade, not fail: %v", err)
	}
	rel, err := res.Rel()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Exec(context.Background(), MustParseQuery(`Q(x) :- R(x).`), ps, in.MustCatalog(ps))
	wantRel, _ := want.Rel()
	if !rel.Equal(wantRel) {
		t.Errorf("degraded answer = %s, want the healthy disjunct's %s", rel, wantRel)
	}
	inc, ok := res.Incompleteness()
	if !ok {
		t.Fatal("Incompleteness must be available with WithPartialResults")
	}
	if inc.Complete() {
		t.Fatal("report must flag the dropped disjunct")
	}
	if got := inc.FailedSources(); len(got) != 1 || got[0] != "S" {
		t.Errorf("FailedSources = %v, want [S]", got)
	}
	if r, ok := inc.RuleRatio(); !ok || r != 0.5 {
		t.Errorf("RuleRatio = %v/%v, want 0.5", r, ok)
	}
}

func TestExecPartialResultsStreaming(t *testing.T) {
	q, ps, in := degradeFixtureQ(t)
	matCat, _, _ := killSource(t, in, ps, "S")
	matRes, err := Exec(context.Background(), q, ps, matCat, WithRuntime(fastRuntime()), WithPartialResults())
	if err != nil {
		t.Fatal(err)
	}
	want, err := matRes.Rel()
	if err != nil {
		t.Fatal(err)
	}

	strCat, _, _ := killSource(t, in, ps, "S")
	// Rule 1's only call blocks until released, so the stream cannot
	// have finished when the report is asked for.
	release := make(chan struct{})
	strCat.Source("R").(*Table).OnCall = func(Pattern, []string) { <-release }
	res, err := Exec(context.Background(), q, ps, strCat, WithRuntime(fastRuntime()), WithPartialResults(), WithStreaming())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Incompleteness(); ok {
		t.Error("Incompleteness must not be readable before the stream finished")
	}
	close(release)
	got, err := res.Rel() // drains
	if err != nil {
		t.Fatalf("partial stream must not surface the degraded failure: %v", err)
	}
	g, w := got.Rows(), want.Rows()
	if len(g) != len(w) {
		t.Fatalf("streamed degraded answer has %d rows, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i].Key() != w[i].Key() {
			t.Fatalf("row %d = %s, want %s (byte-for-byte with materialized)", i, g[i], w[i])
		}
	}
	inc, ok := res.Incompleteness()
	if !ok || inc.Complete() {
		t.Fatalf("stream incompleteness = %+v/%v, want the recorded failure", inc, ok)
	}
	if got := inc.FailedSources(); len(got) != 1 || got[0] != "S" {
		t.Errorf("FailedSources = %v, want [S]", got)
	}
}

// paperInstance mirrors the engine tests' deterministic instance: enough
// value sharing that joins produce repeated keys.
func paperInstance(ps *PatternSet) *Instance {
	in := NewInstance()
	dom := []string{"a", "b", "c", "d"}
	for _, rel := range ps.Relations() {
		ar := ps.Arity(rel)
		for i := 0; i < 8; i++ {
			vals := make([]string, ar)
			for j := range vals {
				vals[j] = dom[(i+2*j)%len(dom)]
			}
			in.MustAdd(rel, vals...)
		}
	}
	return in
}

// TestFaultSmokePaperExamples is the fault-injection smoke suite: every
// paper example's executable underestimate runs with each of its sources
// killed in turn. The run must degrade — answer exactly with the rules
// that avoid the dead source, name it in the report — and the breaker
// must cap the dead source's traffic at its window.
func TestFaultSmokePaperExamples(t *testing.T) {
	for _, ex := range workload.PaperExamples() {
		t.Run(ex.Name, func(t *testing.T) {
			under := Plan(ex.Query, ex.Patterns).Under
			in := paperInstance(ex.Patterns)
			rels := map[string]bool{}
			for _, rule := range under.Rules {
				if rule.False {
					continue
				}
				for name := range rule.Relations() {
					rels[name] = true
				}
			}
			if len(rels) == 0 {
				t.Skip("underestimate has no executable rules to degrade")
			}
			for dead := range rels {
				t.Run("dead="+dead, func(t *testing.T) {
					// The certified expectation: the answer of the rules
					// that do not touch the dead source, on healthy data.
					var kept Query
					kept.Rules = nil
					for _, rule := range under.Rules {
						if rule.False {
							continue
						}
						if _, uses := rule.Relations()[dead]; !uses {
							kept.Rules = append(kept.Rules, rule)
						}
					}
					var wantRows int
					if len(kept.Rules) > 0 {
						want, err := execAnswer(kept, ex.Patterns, paperInstance(ex.Patterns).MustCatalog(ex.Patterns))
						if err != nil {
							t.Fatal(err)
						}
						wantRows = want.Len()
					}

					cat, flaky, _ := killSource(t, in, ex.Patterns, dead)
					res, err := Exec(context.Background(), under, ex.Patterns, cat,
						WithRuntime(fastRuntime()), WithPartialResults())
					if err != nil {
						t.Fatalf("degraded run crashed: %v", err)
					}
					rel, err := res.Rel()
					if err != nil {
						t.Fatal(err)
					}
					if rel.Len() != wantRows {
						t.Errorf("degraded answer has %d rows, want the %d of the surviving rules", rel.Len(), wantRows)
					}
					inc, ok := res.Incompleteness()
					if !ok {
						t.Fatal("no incompleteness report")
					}
					for _, src := range inc.FailedSources() {
						if src != dead {
							t.Errorf("reported failed source %s, only %s was killed", src, dead)
						}
					}
					for _, f := range inc.Failed {
						if _, uses := f.Rule.Relations()[dead]; !uses {
							t.Errorf("dropped rule %s does not touch %s", f.Rule, dead)
						}
					}
					if got := flaky.Injected(); got > 4 {
						t.Errorf("dead source %s absorbed %d calls, want the breaker to cap at its window (4)", dead, got)
					}
				})
			}
		})
	}
}

// The ratio vocabulary survives the facade: a degraded run's report
// renders the Figure-4-shaped completeness lines.
func TestExecPartialReportVocabulary(t *testing.T) {
	q, ps, in := degradeFixtureQ(t)
	cat, _, _ := killSource(t, in, ps, "S")
	res, err := Exec(context.Background(), q, ps, cat, WithRuntime(fastRuntime()), WithPartialResults())
	if err != nil {
		t.Fatal(err)
	}
	inc, _ := res.Incompleteness()
	report := inc.Report()
	for _, want := range []string{"underestimate", "failed sources: S", "1 of 2 disjuncts"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}
