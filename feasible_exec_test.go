package ucqn_test

import (
	"context"
	"fmt"
	"testing"

	ucqn "repro"
	"repro/internal/core"
	"repro/internal/workload"
)

// A feasible union whose plan still dismisses a rule — the rule is
// contained in the union, not in any one disjunct — is answered exactly
// by ANSWER* at runtime: the dismissed rule's overestimate adds no row
// the certain rules miss, so Δ = ∅ (Example 5) and the report is
// complete with no static FEASIBLE verdict. Two such unions: the case
// split R(x) ∧ S(x) | R(x) ∧ ¬S(x) beside a rule whose V(y) no step can
// call, and workload.CaseSplitFamily(3). Uncached, cached (miss, then a
// hit that makes no call) and streamed (drained, or read with Next)
// runs all return the naive rows, complete, with one report text. Run
// by `make cache-smoke`.
func TestFeasibleDismissedUnionAnsweredExactly(t *testing.T) {
	ctx := context.Background()
	split, splitPS := workload.CaseSplitFamily(3)
	splitIn := ucqn.NewInstance()
	for i := range 6 {
		splitIn.MustAdd("R", fmt.Sprintf("r%d", i))
		splitIn.MustAdd("B", fmt.Sprintf("b%d", i))
	}
	splitIn.MustAdd("S1", "r1").MustAdd("S2", "r2").MustAdd("S2", "r3").MustAdd("S3", "r3").MustAdd("S3", "x9")

	byUnion := ucqn.NewInstance()
	if err := byUnion.ParseInto(`R("a"). R("b"). R("c"). S("b"). S("d"). V("v").`); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		q    ucqn.Query
		ps   *ucqn.PatternSet
		in   *ucqn.Instance
	}{
		{"union", ucqn.MustParseQuery(`Q(x) :- R(x), S(x). Q(x) :- R(x), not S(x). Q(x) :- R(x), V(y).`), ucqn.MustParsePatterns(`R^o S^i V^i`), byUnion},
		{"case-split-3", split, splitPS, splitIn},
	} {
		naiveRes, err := ucqn.Exec(ctx, tc.q, nil, nil, ucqn.WithNaive(tc.in))
		if err != nil {
			t.Fatal(err)
		}
		naive, _ := naiveRes.Rel()
		if naive.Len() == 0 {
			t.Fatalf("%s: the fixture must have answers", tc.name)
		}
		if plan, _, err := core.PlanUnion(tc.q, tc.ps, core.PlanBudget); err != nil || plan.Dismissed == nil {
			t.Fatalf("%s: the plan (err %v) must dismiss a rule", tc.name, err)
		}

		cat := tc.in.MustCatalog(tc.ps)
		qc := ucqn.NewQueryCache(ucqn.QueryCacheOptions{})
		var firstReport string
		for _, mode := range []string{"uncached", "cached miss", "cached hit", "streamed, drained", "streamed, Next"} {
			opts := []ucqn.ExecOption{ucqn.WithProfile()}
			switch mode {
			case "cached miss", "cached hit":
				opts = append(opts, ucqn.WithQueryCache(qc))
			case "streamed, drained", "streamed, Next":
				opts = append(opts, ucqn.WithStreaming())
			}
			before := cat.TotalStats().Calls
			res, err := ucqn.Exec(ctx, tc.q, tc.ps, cat, opts...)
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, mode, err)
			}
			got := ucqn.NewRel()
			if mode == "streamed, Next" {
				s := res.Stream()
				for s.Next() {
					got.Add(s.Tuple())
				}
				if err := s.Close(); err != nil {
					t.Fatalf("%s, %s: %v", tc.name, mode, err)
				}
			} else {
				rel, err := res.Rel()
				if err != nil {
					t.Fatalf("%s, %s: %v", tc.name, mode, err)
				}
				got.AddAll(rel)
			}
			calls := cat.TotalStats().Calls - before
			if !got.Equal(naive) {
				t.Errorf("%s, %s: rows %s, want the naive %s", tc.name, mode, got, naive)
			}
			rep, ok := res.Report()
			if !ok || !rep.Complete() {
				t.Errorf("%s, %s: want a complete report (ok %v):\n%s", tc.name, mode, ok, rep.String())
			}
			if mode == "cached hit" {
				if prof, _ := res.Profile(); calls != 0 || prof.Cache.AnswerHits != 1 {
					t.Errorf("%s, cached hit: %d calls, cache %+v; want 0 calls and a full answer hit", tc.name, calls, prof.Cache)
				}
			}
			if firstReport == "" {
				firstReport = rep.String()
			} else if rep.String() != firstReport {
				t.Errorf("%s, %s: report\n%s\nwant the uncached\n%s", tc.name, mode, rep.String(), firstReport)
			}
		}
	}
}
