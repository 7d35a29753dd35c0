package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/parser"
)

// Executions recycle their scratch — the call table, the column pool,
// the step states and the head sets (executions, scratchMaxKept) — so
// what one execution leaves behind is what the next one starts from.
// Under -race, executions of every kind run concurrently and take each
// other's scratch: a whole run and a streamed drain of E25's join, a
// stream abandoned after its first row, a run without Dedup, a
// partial-results run whose T source is dead, and a run its call budget
// cuts. Each must give what the oracle gives — rows in order, calls and
// report — however its scratch was used before, and the budget-cut run
// its budget's error after exactly its budget's calls. All but the run without
// Dedup share one runtime (Concurrency 2, so steps fan out to a
// helper); Dedup is a runtime's switch, so that run has a runtime of its
// own, and the pool of executions is the process's.
func TestRecycledScratchAcrossConcurrentExecutions(t *testing.T) {
	q, ps, in := e25Fixture(t, 1000, 8)
	// A second disjunct that never reads T, so that a dead T drops only
	// the join.
	side, err := parser.ParseUCQ(`Q(z, w) :- R(x, a, b, c, d, e, z), S(z, w), not N(z).`)
	if err != nil {
		t.Fatal(err)
	}
	union := logic.UCQ{Rules: []logic.CQ{q.Rules[0], side.Rules[0]}}
	ctx := context.Background()
	plan := func(u logic.UCQ) core.Plan {
		p, err := core.NewPlan(u, ps)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	join, both := plan(q), plan(union)

	rt := NewRuntime()
	rt.Concurrency, rt.BatchSize, rt.Retry = 2, 8, RetryPolicy{}
	perBinding := NewRuntime()
	perBinding.Concurrency, perBinding.Dedup, perBinding.Retry = 2, false, RetryPolicy{}

	oracle := func(rt *Runtime, u logic.UCQ, dead string) (*Rel, int, string) {
		cat := in.MustCatalog(ps)
		if dead != "" {
			cat = killedCatalog(t, in, ps, dead)
		}
		want, _, inc, err := oracleEval(ctx, rt, u, ps, cat, true)
		if err != nil {
			t.Fatal(err)
		}
		return want, cat.TotalStats().Calls, incSummary(inc)
	}
	joinRows, joinCalls, joinRep := oracle(rt, q, "")
	seqRows, _, seqRep := oracle(perBinding, q, "")
	degRows, degCalls, degRep := oracle(rt, union, "T")
	// Without Dedup a step asks once per binding it is handed: the
	// oracle's bindings projected onto the live variables.
	seqCalls := 1
	for _, st := range oracleLiveBindings(t, perBinding, q, ps, in.MustCatalog(ps))[0][:3] {
		seqCalls += st.distinct
	}
	if joinCalls != 49 || joinRows.Len() != 120 || seqCalls <= joinCalls || degRows.Len() == 0 || degRep == joinRep {
		t.Fatalf("fixture: %d calls and %d rows deduplicated, %d calls per binding, %d rows degraded (%s)",
			joinCalls, joinRows.Len(), seqCalls, degRows.Len(), degRep)
	}
	const budget = 10

	type outcome struct {
		rows  *Rel
		calls int
		rep   *Report
		err   error
	}
	whole := func(rt *Runtime, p core.Plan, o Opts, dead string) outcome {
		cat := in.MustCatalog(ps)
		if dead != "" {
			cat = killedCatalog(t, in, ps, dead)
		}
		star := NewStarSink(p)
		prof, rep, err := rt.Run(ctx, p, cat, Answered{}, o, star.Sink())
		star.Fill(&rep)
		if o.Budget.MaxCalls != 0 {
			return outcome{rep.Under, prof.Calls.BudgetSpent, &rep, err}
		}
		return outcome{rep.Under, cat.TotalStats().Calls, &rep, err}
	}
	check := func(label string, got outcome, want *Rel, calls int, rep string) error {
		if got.err != nil {
			return fmt.Errorf("%s: %v", label, got.err)
		}
		g, w := got.rows.Rows(), want.Rows()
		if len(g) != len(w) {
			return fmt.Errorf("%s: %d rows, want %d", label, len(g), len(w))
		}
		for i := range g {
			if g[i].Key() != w[i].Key() {
				return fmt.Errorf("%s: row %d = %s, want %s", label, i, g[i], w[i])
			}
		}
		if got.calls != calls {
			return fmt.Errorf("%s: %d calls, want %d", label, got.calls, calls)
		}
		if s := incSummary(got.rep); s != rep {
			return fmt.Errorf("%s: report %s, want %s", label, s, rep)
		}
		return nil
	}
	kinds := []func() error{
		func() error {
			return check("whole", whole(rt, join, Opts{}, ""), joinRows, joinCalls, joinRep)
		},
		func() error {
			cat := in.MustCatalog(ps)
			s := rt.StreamEval(ctx, join, cat, Answered{}, Opts{})
			rows, err := s.Drain()
			rep, ok := s.Report()
			if !ok {
				return fmt.Errorf("drained stream: no report")
			}
			return check("drained stream", outcome{rows, cat.TotalStats().Calls, &rep, err}, joinRows, joinCalls, joinRep)
		},
		func() error {
			cat := in.MustCatalog(ps)
			s := rt.StreamEval(ctx, join, cat, Answered{}, Opts{})
			if !s.Next() {
				return fmt.Errorf("abandoned stream: no first row (%v)", s.Err())
			}
			row := s.Tuple()
			if !joinRows.Contains(row) {
				return fmt.Errorf("abandoned stream: first row %s is not an answer", row)
			}
			if err := s.Close(); err != nil {
				return fmt.Errorf("abandoned stream: %v", err)
			}
			if c := cat.TotalStats().Calls; c > joinCalls {
				return fmt.Errorf("abandoned stream: %d calls, want at most %d", c, joinCalls)
			}
			if _, ok := s.Report(); ok {
				return fmt.Errorf("abandoned stream: a report, though it was closed before its end")
			}
			return nil
		},
		func() error {
			return check("without Dedup", whole(perBinding, join, Opts{}, ""), seqRows, seqCalls, seqRep)
		},
		func() error {
			return check("partial, T dead", whole(rt, both, Opts{Partial: true}, "T"), degRows, degCalls, degRep)
		},
		func() error {
			got := whole(rt, join, Opts{Budget: Budget{MaxCalls: budget}}, "")
			if !errors.Is(got.err, ErrCallBudget) || got.calls != budget {
				return fmt.Errorf("budget-cut: %d calls, %v; want %d and the budget's error", got.calls, got.err, budget)
			}
			return nil
		},
	}
	const rounds = 12
	var wg sync.WaitGroup
	errs := make(chan error, len(kinds)*rounds)
	for _, kind := range kinds {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds/2; i++ {
					if err := kind(); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
