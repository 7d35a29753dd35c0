package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
)

// A plan run with one Prepared across a generation bump and an interner
// rollover keeps programs from its second run under a state on and
// never runs a program compiled under an earlier state. The query's
// constant is what would show it: compile interns "c" first, so it is ID
// 0 of every state a compile starts, while a state that only scans R
// gives ID 0 to "k0" — a stale program would answer x0.
func TestPreparedProgramsFollowTheState(t *testing.T) {
	in := NewInstance()
	for i := 0; i < 5; i++ {
		in.MustAdd("R", fmt.Sprintf("k%d", i), fmt.Sprintf("x%d", i))
	}
	in.MustAdd("R", "c", "hit")
	ps := pats(t, `R^oo`)
	p, err := core.NewPlan(ucq(t, `Q(x) :- R("c", x).`), ps)
	if err != nil {
		t.Fatal(err)
	}
	cat := in.MustCatalog(ps)
	var prep Prepared
	run := func(label string) *preparedRules {
		t.Helper()
		got := NewRel()
		if _, _, err := NewRuntime().Run(context.Background(), p, cat, Answered{}, Opts{Prepared: &prep}, Into(got)); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got.Len() != 1 || !got.Contains(RowOf("hit")) {
			t.Fatalf("%s: answer %s, want (\"hit\")", label, got)
		}
		return prep.cur.Load()
	}
	// kept runs the plan twice more under the state its last run pinned:
	// the first of them keeps the programs, the second reuses them.
	kept := func(label string) *preparedRules {
		t.Helper()
		cur := run(label + ", second run")
		if st := stateOf(cat); cur == nil || cur.state != st.serial {
			t.Fatalf("%s: the kept programs are not the pinned state's (%d)", label, st.serial)
		}
		if run(label+", third run") != cur {
			t.Fatalf("%s: a third run under the state compiled the plan again", label)
		}
		return cur
	}

	if run("first run") != nil {
		t.Fatal("a plan's first run kept its programs")
	}
	first := kept("first state")
	cat.Invalidate()
	if run("after a generation bump") != first {
		t.Fatal("the first run under a new state replaced the kept programs")
	}
	bumped := kept("after a generation bump")
	withInternLimit(1, func() { run("rolling over") })
	if rolled := kept("after an interner rollover"); rolled == bumped || rolled == first {
		t.Fatal("a rollover kept the programs of the full state")
	}
}

// Executions that share one Prepared share its programs: materialized
// and streamed, with parallel rules, from many goroutines at once (run
// under -race; a program is read-only after compile).
func TestPreparedSharedByParallelExecutions(t *testing.T) {
	u := ucq(t, `
		Q(x, y) :- R(x, z), T(z, y).
		Q(x, y) :- R(x, y), not L(y).
		Q(x, y) :- R(x, "z1"), T("z1", y).
	`)
	ps := pats(t, `R^oo T^io L^i`)
	in := NewInstance()
	for i := 0; i < 60; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%4))
	}
	for z := 0; z < 4; z++ {
		in.MustAdd("T", fmt.Sprintf("z%d", z), fmt.Sprintf("y%d", z))
	}
	in.MustAdd("L", "z2")
	p, err := core.NewPlan(u, ps)
	if err != nil {
		t.Fatal(err)
	}
	cat := in.MustCatalog(ps)
	want, err := answer(context.Background(), defaultRuntime, u, ps, cat)
	if err != nil {
		t.Fatal(err)
	}
	var prep Prepared
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			o := Opts{Parallel: g%2 == 0, Prepared: &prep}
			for i := 0; i < 5; i++ {
				got := NewRel()
				var err error
				if g%4 == 1 {
					got, err = NewRuntime().StreamEval(context.Background(), p, cat, Answered{}, o).Drain()
				} else {
					_, _, err = NewRuntime().Run(context.Background(), p, cat, Answered{}, o, Into(got))
				}
				switch {
				case err != nil:
					errs <- err
					return
				case !got.Equal(want):
					errs <- fmt.Errorf("goroutine %d: %d rows, want %d", g, got.Len(), want.Len())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if cur := prep.cur.Load(); cur == nil || cur.state != stateOf(cat).serial {
		t.Fatal("the shared programs are not the catalog state's")
	}
}
