package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/logic"
	"repro/internal/sources"
	"repro/internal/sources/sourcetest"
)

// columnsBuilt is the number of columns h has interned.
func (h *heldTable) columnsBuilt() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.built
}

// heldColumns is the number of columns h holds.
func (h *heldTable) heldColumns() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, a := range h.answers {
		for _, s := range a.state {
			if s == colHeld {
				n++
			}
		}
	}
	return n
}

// heldInstance is R, a long answer, and S, short ones, over values
// named by tag.
func heldInstance(tag string) *Instance {
	in := NewInstance()
	for i := 0; i < 4*heldMinRows; i++ {
		in.MustAdd("R", fmt.Sprintf("%s_x%d", tag, i), fmt.Sprintf("%s_z%d", tag, i%10))
	}
	for z := 0; z < 10; z++ {
		in.MustAdd("S", fmt.Sprintf("%s_z%d", tag, z), fmt.Sprintf("%s_y%d", tag, z%3))
	}
	return in
}

// heldQuery is a union whose rules both scan R, one call each
// (heldRCalls): the first needs R's x and z columns, the second only z.
func heldQuery(t *testing.T) (logic.UCQ, *access.Set) {
	return ucq(t, `
		Q(x, y) :- R(x, z), S(z, y).
		Q(x, y) :- R(w, x), S(x, y), not S(x, "held_y0").
	`), pats(t, `R^oo S^io`)
}

const heldRCalls = 2

// Executions running at once over one catalog, across invalidations,
// share its held table and each get the oracle's rows.
func TestHeldAnswerConcurrentExecutions(t *testing.T) {
	u, ps := heldQuery(t)
	in := heldInstance("held")
	cat := in.MustCatalog(ps)
	want, _, _, err := oracleEval(context.Background(), NewRuntime(), u, ps, cat, false)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				got, prof, _, err := schedule{}.run(u, ps, cat, Answered{}, Opts{Parallel: g%2 == 1})
				switch {
				case err != nil:
					t.Errorf("goroutine %d: %v", g, err)
				case !got.Equal(want) || fmt.Sprint(got.Rows()) != fmt.Sprint(want.Rows()):
					t.Errorf("goroutine %d: rows %s, want %s in the oracle's order", g, got, want)
				case prof.Batch.HeldAnswers != heldRCalls:
					t.Errorf("goroutine %d: %d held answers, want %d", g, prof.Batch.HeldAnswers, heldRCalls)
				default:
					continue
				}
				return
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-done:
			return
		default:
			cat.Invalidate()
			runtime.Gosched()
		}
	}
}

// sameAnswer holds got to the oracle's rows: in the oracle's order,
// except where parallel staged rules interleave their emissions.
func sameAnswer(t *testing.T, got, want *Rel, s schedule, parallel bool, label string) {
	t.Helper()
	if !parallel || !s.staged {
		sameRows(t, got, want, label)
	} else if !got.Equal(want) {
		t.Fatalf("%s: rows %s, want %s", label, got, want)
	}
}

// A long answer is interned once per catalog generation: the second run
// over one catalog reads R's join side from the held table and interns
// none of its values, with the oracle's rows in the oracle's order, on
// both schedules and with the rules sharing the table concurrently. A
// generation bump rebuilds the table; under a full interner cap no
// column that would spill is held and the answers do not change.
func TestHeldAnswerInternedOnce(t *testing.T) {
	u, ps := heldQuery(t)

	for _, s := range []schedule{{}, {true, 3, 1}, {true, 64, 2}} {
		for _, parallel := range []bool{false, true} {
			label := fmt.Sprintf("%s/parallel=%v", s, parallel)
			o := Opts{Parallel: parallel}
			in := heldInstance("held")
			want, _, _, err := oracleEval(context.Background(), NewRuntime(), u, ps, in.MustCatalog(ps), false)
			if err != nil {
				t.Fatal(err)
			}
			cat, verify := sourcetest.ReadOnlyCatalog(in.MustCatalog(ps))
			run := func(what string) Profile {
				t.Helper()
				got, prof, _, err := s.run(u, ps, cat, Answered{}, o)
				if err != nil {
					t.Fatalf("%s, %s: %v", label, what, err)
				}
				sameAnswer(t, got, want, s, parallel, label+", "+what)
				if prof.Batch.HeldAnswers != heldRCalls {
					t.Errorf("%s, %s: %d held answers, want %d", label, what, prof.Batch.HeldAnswers, heldRCalls)
				}
				return prof
			}

			run("first run")
			held := heldOf(cat)
			built := held.columnsBuilt()
			if built != 2 {
				t.Errorf("%s: %d columns interned, want R's x and z", label, built)
			}
			if prof := run("second run"); prof.Batch.InternedValues != 0 || held.columnsBuilt() != built {
				t.Errorf("%s: the second run interned %d values and %d columns, want none",
					label, prof.Batch.InternedValues, held.columnsBuilt()-built)
			}

			cat.Invalidate()
			run("after Invalidate")
			if again := heldOf(cat); again == held || again.columnsBuilt() != built {
				t.Errorf("%s: after Invalidate the join side was not rebuilt", label)
			}
			verify(t)
		}
	}

	// A full cap: values interned above are held as before, and a new
	// universe spills — its columns are not held and the answer holds.
	entries, _ := InternerOccupancy()
	SetInternerCap(entries, 0)
	defer SetInternerCap(0, 0)
	for _, tag := range []string{"held", "held_capped"} {
		in := heldInstance(tag)
		want, _, _, err := oracleEval(context.Background(), NewRuntime(), u, ps, in.MustCatalog(ps), false)
		if err != nil {
			t.Fatal(err)
		}
		cat := in.MustCatalog(ps)
		for _, s := range []schedule{{}, {true, 3, 1}} {
			for _, parallel := range []bool{false, true} {
				label := fmt.Sprintf("%s/%s/parallel=%v", tag, s, parallel)
				got, prof, _, err := s.run(u, ps, cat, Answered{}, Opts{Parallel: parallel})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameAnswer(t, got, want, s, parallel, label)
				spills := tag == "held_capped"
				if (prof.Batch.SpilledValues > 0) != spills || (prof.Batch.HeldAnswers > 0) == spills {
					t.Errorf("%s: %d spilled, %d held answers", label, prof.Batch.SpilledValues, prof.Batch.HeldAnswers)
				}
				if held := heldOf(cat).heldColumns(); (held > 0) == spills {
					t.Errorf("%s: %d columns held", label, held)
				}
			}
		}
	}
	if entries1, _ := InternerOccupancy(); entries1 != entries {
		t.Errorf("the capped runs grew the interner by %d", entries1-entries)
	}
}

var spillGuardRuns atomic.Int64

// An execution that has spilled reads no held column. Here it spills the
// constant and G's value under a full cap and waits in G's call; the cap
// is lifted and another execution interns those values and holds R's
// columns. The held IDs now disagree with the spill IDs the first
// execution gave the same values, so it must build R's join side itself.
func TestHeldAnswerSkippedAfterSpill(t *testing.T) {
	tag := fmt.Sprintf("sg%d", spillGuardRuns.Add(1)) // values no earlier run interned
	in := NewInstance().MustAdd("G", tag+"_x0")
	for i := 0; i < heldMinRows+8; i++ {
		in.MustAdd("R", fmt.Sprintf("%s_x%d", tag, i), []string{tag + "_const", tag + "_other"}[i%2])
	}
	ps := pats(t, `G^o R^oo`)
	cat := in.MustCatalog(ps)
	first := ucq(t, fmt.Sprintf(`Q(x) :- G(x), R(x, "%s_const").`, tag))
	second := ucq(t, fmt.Sprintf(`Q(x) :- R(x, "%s_const").`, tag))
	entered, release := make(chan struct{}), make(chan struct{})
	cat.Source("G").(*sources.Table).OnCall = func(access.Pattern, []string) {
		close(entered)
		<-release
	}
	entries, _ := InternerOccupancy()
	SetInternerCap(entries, 0)
	defer SetInternerCap(0, 0)

	type result struct {
		rel  *Rel
		prof Profile
		err  error
	}
	done := make(chan result)
	go func() {
		rel, prof, err := NewRuntime().AnswerProfiled(context.Background(), first, ps, cat)
		done <- result{rel, prof, err}
	}()
	<-entered
	SetInternerCap(0, 0)
	if _, prof, err := NewRuntime().AnswerProfiled(context.Background(), second, ps, cat); err != nil || prof.Batch.HeldAnswers != 1 {
		t.Fatalf("the second execution: %v, %d held answers, want R's held", err, prof.Batch.HeldAnswers)
	}
	close(release)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if want := RowOf(tag + "_x0"); r.rel.Len() != 1 || !r.rel.Contains(want) {
		t.Errorf("answer %s, want %s", r.rel, want)
	}
	if r.prof.Batch.SpilledValues == 0 || r.prof.Batch.HeldAnswers != 0 {
		t.Errorf("%d spilled, %d held answers; want spills and no held answer", r.prof.Batch.SpilledValues, r.prof.Batch.HeldAnswers)
	}
}

// The held table is bounded: an answer larger than the bound is not
// held, and one that would overflow it starts the table over.
func TestHeldTableBound(t *testing.T) {
	args := []stepArg{{need: true}}
	tuples := []sources.Tuple{{"bound_0"}, {"bound_1"}, {"bound_2"}}
	answer := func(n int) []sources.Tuple { // a group of its own, over shared tuples
		rows := make([]sources.Tuple, n)
		for i := range rows {
			rows[i] = tuples[i%len(tuples)]
		}
		return rows
	}
	h, pool := newHeldTable(), newColPool()
	if h.columns(answer(heldMaxCells+1), args, pool) != nil {
		t.Error("an answer larger than the table was held")
	}
	half := answer(heldMaxCells / 2)
	if h.columns(half, args, pool) == nil || h.columns(answer(heldMaxCells/2), args, pool) == nil {
		t.Fatal("two half-size answers were not held")
	}
	if h.columns(answer(1), args, pool) == nil {
		t.Fatal("an answer that overflows the table was not held")
	}
	if len(h.answers) != 1 || h.cells != 1 {
		t.Errorf("after the overflow the table holds %d answers, %d cells; want only the new one", len(h.answers), h.cells)
	}
	if h.columns(half, args, pool); h.columnsBuilt() != 4 {
		t.Errorf("%d columns built; an answer dropped by the reset must be interned again", h.columnsBuilt())
	}
}
