package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/sources"
)

// liarSource answers one input value with tuples that name other inputs
// at the input position: a source need not agree with what it was asked.
type liarSource struct {
	*sources.Table
	liar string
	lies []sources.Tuple
}

func (s liarSource) Call(ctx context.Context, p access.Pattern, inputs [][]string) ([][]sources.Tuple, error) {
	groups, err := s.Table.Call(ctx, p, inputs)
	if err != nil {
		return nil, err
	}
	out := append([][]sources.Tuple(nil), groups...) // the table's answer is read-only
	for i, in := range inputs {
		if in[0] == s.liar {
			out[i] = s.lies
		}
	}
	return out, nil
}

// One batch of S calls mixes every kind of answer the batch join sees:
// k_big's is held (≥ heldMinRows tuples), k1's and k2's are short,
// k_none's empty, k1 and k_liar come twice, and k_liar's answer names k1
// and k2 at the input position. The short answers share one join, so
// only the call's ordinal in it keeps k_liar's tuples away from the rows
// that made k1's and k2's calls; the oracle re-unifies every tuple with
// its binding. The second rule probes T negated over the same bindings.
// Every way to run the step — whole, staged in batches of 1 and 3, rules
// sequential and parallel, calls deduplicated or not — gives the
// oracle's rows in its order (as a set where parallel stages
// interleave), its source calls and its per-step calls, deduplicated
// calls, tuples and bindings — of which parallel rules that share calls
// keep only the bindings and the calls asked or read per step.
func TestStepJoinSharesShortAnswers(t *testing.T) {
	u := parser.MustUCQ(`
		Q(r, x, y) :- R(r, x), S(x, y).
		Q(r, x, y) :- R(r, x), S(x, y), not T(y).
	`)
	ps := parser.MustPatterns(`R^oo S^io T^i`)
	in := NewInstance()
	for i, x := range []string{"k1", "k_liar", "k1", "k_big", "k_none", "k2", "k_liar", "k2"} {
		in.MustAdd("R", fmt.Sprintf("r%d", i), x)
	}
	for i := 0; i < heldMinRows+8; i++ {
		in.MustAdd("S", "k_big", fmt.Sprintf("big%d", i))
	}
	in.MustAdd("S", "k1", "y1").MustAdd("S", "k1", "y2").MustAdd("S", "k2", "y3")
	in.MustAdd("T", "y2").MustAdd("T", "big3")
	lies := []sources.Tuple{{"k1", "lie1"}, {"k_liar", "own"}, {"k2", "lie2"}, {"k1", "y1"}}
	catalog := func() *sources.Catalog {
		var srcs []sources.Source
		for _, name := range []string{"R", "S", "T"} {
			tbl, err := sources.NewTable(name, ps.Arity(name), ps.Patterns(name), in.Rows(name))
			if err != nil {
				t.Fatal(err)
			}
			if name == "S" {
				srcs = append(srcs, liarSource{tbl, "k_liar", lies})
				continue
			}
			srcs = append(srcs, tbl)
		}
		return sources.MustCatalog(srcs...)
	}
	p, err := core.NewPlan(u, ps)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, dedup := range []bool{true, false} {
		oracleRT := NewRuntime()
		oracleRT.Retry, oracleRT.Dedup = RetryPolicy{}, dedup
		oracleCat := catalog()
		want, wantProf, _, err := oracleEval(ctx, oracleRT, u, ps, oracleCat, false)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Contains(RowOf("r1", "k_liar", "own")) || want.Contains(RowOf("r0", "k1", "lie1")) {
			t.Fatalf("fixture: oracle answer %s", want)
		}
		wantCalls := oracleCat.TotalStats().Calls
		for _, sched := range []schedule{{}, {true, 1, 1}, {true, 3, 1}} {
			for _, parallel := range []bool{false, true} {
				label := fmt.Sprintf("dedup=%v, %s, parallel=%v", dedup, sched, parallel)
				rt := NewRuntime()
				rt.Retry, rt.Dedup = RetryPolicy{}, dedup
				cat := catalog()
				var got *Rel
				var prof Profile
				if sched.staged {
					rt.BatchSize, rt.StageBuffer = sched.batch, sched.buffer
					s := rt.StreamEval(ctx, p, cat, Answered{}, Opts{Parallel: parallel})
					got, err = s.Drain()
					prof, _ = s.Profile()
				} else {
					got = NewRel()
					prof, _, err = rt.Run(ctx, p, cat, Answered{}, Opts{Parallel: parallel}, Into(got))
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameAnswer(t, got, want, sched, parallel, label)
				if c := cat.TotalStats().Calls; c != wantCalls || prof.Calls.Total != wantCalls {
					t.Fatalf("%s: %d source calls (%d profiled), want %d", label, c, prof.Calls.Total, wantCalls)
				}
				for ri, wr := range wantProf.Rules {
					for k, w := range wr.Steps {
						g := prof.Rules[ri].Steps[k]
						if parallel && dedup {
							// Which of the two rules asks a call they share is
							// a race; the other reads it from the call table.
							if g.Calls+g.DedupedCalls != w.Calls+w.DedupedCalls {
								t.Fatalf("%s: rule %d step %d: %d calls and %d deduped, oracle %d and %d", label, ri+1, k+1, g.Calls, g.DedupedCalls, w.Calls, w.DedupedCalls)
							}
							g.Calls, g.DedupedCalls, g.TuplesReturned = w.Calls, w.DedupedCalls, w.TuplesReturned
						}
						if g.Calls != w.Calls || g.DedupedCalls != w.DedupedCalls || g.TuplesReturned != w.TuplesReturned ||
							g.BindingsIn != w.BindingsIn || g.BindingsOut != w.BindingsOut {
							t.Fatalf("%s: rule %d step %d: calls %d, deduped %d, tuples %d, bindings %d → %d; oracle %d, %d, %d, %d → %d",
								label, ri+1, k+1, g.Calls, g.DedupedCalls, g.TuplesReturned, g.BindingsIn, g.BindingsOut,
								w.Calls, w.DedupedCalls, w.TuplesReturned, w.BindingsIn, w.BindingsOut)
						}
					}
				}
			}
		}
	}
}

// shortStepQuery is Q(y) :- R(x), S(x, y). over n keys: R's scan hands
// S n distinct inputs, each answered by one tuple, all with the one y,
// so the head has one row however many calls the step makes.
func shortStepQuery(n int) (logic.UCQ, *access.Set, *sources.Catalog) {
	u := parser.MustUCQ(`Q(y) :- R(x), S(x, y).`)
	ps := parser.MustPatterns(`R^o S^io`)
	in := NewInstance()
	for i := 0; i < n; i++ {
		x := fmt.Sprintf("k%d", i)
		in.MustAdd("R", x).MustAdd("S", x, "y")
	}
	return u, ps, in.MustCatalog(ps)
}

// A call with a short answer costs its answer, not its bookkeeping: the
// step's short answers share one join and its calls one slab, so from 16
// to 256 calls an eval allocates at most 1.5 times more a call (≈ 9
// when each call built its own join and record).
func TestStepCallAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		u, ps, cat := shortStepQuery(n)
		rt := NewRuntime()
		rt.Concurrency = 1 // no worker pool: every allocation is the driver's
		return testing.AllocsPerRun(20, func() {
			if _, _, _, err := eval(context.Background(), rt, u, ps, cat, Opts{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	a16, a256 := allocs(16), allocs(256)
	if per := (a256 - a16) / 240; per > 1.5 {
		t.Errorf("%.0f allocations at 16 calls, %.0f at 256: %.2f a call, want at most 1.5", a16, a256, per)
	}
}

// One eval of the short-answer step by number of calls: allocs/op over
// calls is what a call's bookkeeping costs (TestStepCallAllocs pins it).
func BenchmarkBatchedStep(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("calls=%d", n), func(b *testing.B) {
			u, ps, cat := shortStepQuery(n)
			rt := NewRuntime()
			rt.Concurrency = 1
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := eval(context.Background(), rt, u, ps, cat, Opts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
