package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
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

// joinsBuilt is the number of joins h has built.
func (h *heldTable) joinsBuilt() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.joined
}

// heldJoins is the number of joins h holds.
func (h *heldTable) heldJoins() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, a := range h.answers {
		n += len(a.joins)
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

// A long answer is interned once per catalog state: the second run over
// one catalog reads R's join sides from the held table, interning none
// of its values and building no join, with the oracle's rows in the
// oracle's order, on both schedules and with the rules sharing the table
// concurrently. A generation bump rebuilds the table, and so does a
// rollover: the fresh state interns R's columns and builds its joins
// again, and the answers do not change.
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
			held := stateOf(cat).held
			built := held.columnsBuilt()
			if built != 2 {
				t.Errorf("%s: %d columns interned, want R's x and z", label, built)
			}
			// The rules read R in two shapes: x and z carried, and z alone
			// (w dropped, so that step keeps one tuple per z).
			if held.joinsBuilt() != heldRCalls || held.heldJoins() != heldRCalls {
				t.Errorf("%s: %d joins built, %d held; want one per shape (%d)", label, held.joinsBuilt(), held.heldJoins(), heldRCalls)
			}
			if prof := run("second run"); prof.Batch.InternedValues != 0 || held.columnsBuilt() != built || held.joinsBuilt() != heldRCalls {
				t.Errorf("%s: the second run interned %d values and %d columns and built %d joins, want none",
					label, prof.Batch.InternedValues, held.columnsBuilt()-built, held.joinsBuilt()-heldRCalls)
			}

			cat.Invalidate()
			run("after Invalidate")
			if again := stateOf(cat).held; again == held || again.columnsBuilt() != built || again.joinsBuilt() != heldRCalls {
				t.Errorf("%s: after Invalidate the join side was not rebuilt", label)
			}
			verify(t)
		}
	}

	// A rollover: past its bound, the catalog's state gives way to a fresh
	// one at the next execution, which interns R's columns and builds its
	// joins again under IDs of its own; the answers do not change.
	in := heldInstance("held")
	want, _, _, err := oracleEval(context.Background(), NewRuntime(), u, ps, in.MustCatalog(ps), false)
	if err != nil {
		t.Fatal(err)
	}
	_, ref, _, err := schedule{}.run(u, ps, in.MustCatalog(ps), Answered{}, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	cat := in.MustCatalog(ps)
	for _, s := range []schedule{{}, {true, 3, 1}} {
		for _, parallel := range []bool{false, true} {
			label := fmt.Sprintf("rollover/%s/parallel=%v", s, parallel)
			if _, _, _, err := s.run(u, ps, cat, Answered{}, Opts{Parallel: parallel}); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			old := stateOf(cat)
			var got *Rel
			var prof Profile
			withInternLimit(1, func() { got, prof, _, err = s.run(u, ps, cat, Answered{}, Opts{Parallel: parallel}) })
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameAnswer(t, got, want, s, parallel, label)
			st := stateOf(cat)
			if st == old {
				t.Fatalf("%s: a full state was not replaced", label)
			}
			if prof.Batch.HeldAnswers != heldRCalls || prof.Batch.InternedValues != ref.Batch.InternedValues {
				t.Errorf("%s: %d held answers, %d values interned; want %d and a fresh catalog's %d",
					label, prof.Batch.HeldAnswers, prof.Batch.InternedValues, heldRCalls, ref.Batch.InternedValues)
			}
			if st.held.columnsBuilt() != 2 || st.held.joinsBuilt() != heldRCalls || st.held.heldJoins() != heldRCalls {
				t.Errorf("%s: the fresh state built %d columns and %d joins, want R's x and z and one join per shape",
					label, st.held.columnsBuilt(), st.held.joinsBuilt())
			}
		}
	}
}

// An execution keeps the state it pinned. One execution pins the
// catalog's state, interns the constant there and waits in G's call.
// Meanwhile the state is past its bound, so another execution installs a
// fresh one and holds R's columns and join in it, under IDs that differ
// from the pinned ones. The first execution must still answer correctly,
// reading R through the state it pinned.
func TestHeldAnswerPinnedAcrossRollover(t *testing.T) {
	in := NewInstance().MustAdd("G", "pin_x0")
	for i := 0; i < heldMinRows+8; i++ {
		in.MustAdd("R", fmt.Sprintf("pin_x%d", i), []string{"pin_const", "pin_other"}[i%2])
	}
	ps := pats(t, `G^o R^oo`)
	cat := in.MustCatalog(ps)
	first := ucq(t, `Q(x) :- G(x), R(x, "pin_const").`)
	second := ucq(t, `Q(x) :- R(x, "pin_const").`)
	entered, release := make(chan struct{}), make(chan struct{})
	cat.Source("G").(*sources.Table).OnCall = func(access.Pattern, []string) {
		close(entered)
		<-release
	}
	// Values only the pinned state holds shift its IDs off the fresh one's.
	pinned := stateOf(cat)
	for i := 0; i < 7; i++ {
		pinned.ids.id(fmt.Sprintf("pin_pad%d", i))
	}

	type result struct {
		rel  *Rel
		prof Profile
		err  error
	}
	done := make(chan result)
	go func() {
		rel, prof, _, err := eval(context.Background(), NewRuntime(), first, ps, cat, Opts{})
		done <- result{rel, prof, err}
	}()
	<-entered
	withInternLimit(1, func() {
		if _, prof, _, err := eval(context.Background(), NewRuntime(), second, ps, cat, Opts{}); err != nil || prof.Batch.HeldAnswers != 1 {
			t.Fatalf("the second execution: %v, %d held answers, want R's held", err, prof.Batch.HeldAnswers)
		}
	})
	fresh := stateOf(cat)
	if fresh == pinned {
		t.Fatal("the second execution did not install a fresh state")
	}
	pinnedID, _ := pinned.ids.id("pin_const")
	freshID, _ := fresh.ids.id("pin_const")
	if pinnedID == freshID {
		t.Fatalf("fixture: the constant has ID %d in both states", pinnedID)
	}
	close(release)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if want := RowOf("pin_x0"); r.rel.Len() != 1 || !r.rel.Contains(want) {
		t.Errorf("answer %s, want %s", r.rel, want)
	}
	if r.prof.Batch.HeldAnswers != 1 {
		t.Errorf("%d held answers, want R's, from the pinned state", r.prof.Batch.HeldAnswers)
	}
	if p, f := pinned.held.joinsBuilt(), fresh.held.joinsBuilt(); p != 1 || f != 1 {
		t.Errorf("held joins built: %d in the pinned state, %d in the fresh one; want one each", p, f)
	}
}

// The held table is bounded, joins included: an answer larger than the
// bound is not held; a join counts its words, and one that would
// overflow the table is used by its call but not held; an answer that
// would overflow it starts it over, dropping the joins with their
// answers, which are interned and joined again on their next use.
func TestHeldTableBound(t *testing.T) {
	tuples := []sources.Tuple{{"bound_0"}, {"bound_1"}, {"bound_2"}}
	answer := func(n int) []sources.Tuple { // a group of its own, over shared tuples
		rows := make([]sources.Tuple, n)
		for i := range rows {
			rows[i] = tuples[i%len(tuples)]
		}
		return rows
	}
	// Two steps reading the answer's one column: carry keeps every tuple,
	// first (a dedup step) one per value.
	step := func(dedup bool) *stepProgram {
		return &stepProgram{args: []stepArg{{role: argFirst, need: true}}, newCols: []newCol{{pos: 0}}, dedup: dedup}
	}
	carry, first := step(false), step(true)
	h, pool := newHeldTable(), newColPool(newEngineState())
	joins := func(rows []sources.Tuple) int { return len(h.answers[heldKey{&rows[0], len(rows)}].joins) }

	if h.join(answer(heldMaxCells+1), first, pool, nil) != nil {
		t.Error("an answer larger than the table was held")
	}
	quarter, half := answer(heldMaxCells/4), answer(heldMaxCells/2)
	jq, jh := h.join(quarter, first, pool, nil), h.join(half, first, pool, nil)
	if jq == nil || jh == nil || len(jq.idx) != len(tuples) || len(jh.idx) != len(tuples) {
		t.Fatal("a quarter- and a half-size answer were not held with one tuple per value")
	}
	if want := len(quarter) + len(half) + jq.cells() + jh.cells(); len(h.answers) != 2 || h.cells != want {
		t.Errorf("%d answers, %d cells; want both answers and their joins, %d", len(h.answers), h.cells, want)
	}

	// quarter's carry join, a quarter of the table, would overflow it.
	cells, built := h.cells, h.joinsBuilt()
	if jc := h.join(quarter, carry, pool, nil); jc == nil || len(jc.idx) != len(quarter) {
		t.Fatal("the call did not get its join")
	}
	if h.cells != cells || joins(quarter) != 1 || len(h.answers) != 2 {
		t.Errorf("a join overflowing the table was held: %d cells, %d joins", h.cells, joins(quarter))
	}
	if h.join(quarter, carry, pool, nil); h.joinsBuilt() != built+2 {
		t.Errorf("%d joins built; a join not held is built again", h.joinsBuilt()-built)
	}

	// A new answer that overflows the table drops quarter and its join,
	// and the table counts the new answer and its join alone.
	big := answer(3 * heldMaxCells / 4)
	jb := h.join(big, first, pool, nil)
	if jb == nil || len(jb.idx) != len(tuples) {
		t.Fatal("the answer that overflowed the table was not held with one tuple per value")
	}
	if want := len(big) + jb.cells(); len(h.answers) != 1 || h.cells != want {
		t.Fatalf("%d answers, %d cells; an answer overflowing the table must start it over with %d", len(h.answers), h.cells, want)
	}
	cols, built := h.columnsBuilt(), h.joinsBuilt()
	if h.join(quarter, first, pool, nil); h.columnsBuilt() != cols+1 || h.joinsBuilt() != built+1 {
		t.Errorf("%d columns and %d joins built; an answer dropped by the reset must be interned and joined again",
			h.columnsBuilt()-cols, h.joinsBuilt()-built)
	}
}

// heldJoinInstance is R and W, long answers read in several shapes, and
// S and U, short ones, over values named by tag.
func heldJoinInstance(tag string) *Instance {
	in := NewInstance()
	v := func(i int) string { return fmt.Sprintf("%s_v%d", tag, i) }
	for i := 0; i < 4*heldMinRows; i++ {
		in.MustAdd("R", fmt.Sprintf("%s_x%d", tag, i), v(i%4), v(i%6))
		in.MustAdd("W", fmt.Sprintf("%s_x%d", tag, i%3), v(i%4), v(i%6), fmt.Sprintf("%s_w%d", tag, i))
	}
	for i := 0; i < 10; i++ {
		in.MustAdd("S", fmt.Sprintf("%s_x%d", tag, 3*i))
	}
	in.MustAdd("S", v(1)).MustAdd("U", tag+"_x0", v(5)).MustAdd("U", tag+"_x1", v(6))
	return in
}

// One held R read by two constant filters, two repeat filters, two scans
// of one shape, a probe and two dedup steps, one carrying nothing, in one
// union gets one join per shape, eight; one held W read by two dedup
// steps that differ only in what they carry gets two more. A second
// execution builds none, interns nothing and reads all eleven calls from
// the table. Every run matches the oracle, on whole and staged
// schedules, sequential and parallel.
func TestHeldJoinPerShape(t *testing.T) {
	u := ucq(t, `
		Q(x, z) :- R(x, "hj_v1", z).
		Q(x, z) :- R(x, "hj_v2", z).
		Q(x, z) :- R(x, z, z).
		Q(x, z) :- R(x, z, x).
		Q(x, z) :- R(x, y, z).
		Q(x, z) :- R(z, w, x).
		Q(x, z) :- S(x), R(x, y, z).
		Q(x, z) :- R(w, x, z), S(x).
		Q(x, z) :- R(w, y, v), S(x), S(z).
		Q(x, z) :- W(x, y, y, w), U(x, z).
		Q(x, z) :- W(x, z, z, w), S(x).
	`)
	ps := pats(t, `R^ooo S^o W^oooo U^io`)
	const shapes, calls = 10, 11
	for _, s := range []schedule{{}, {true, 3, 1}, {true, 64, 2}} {
		for _, parallel := range []bool{false, true} {
			label := fmt.Sprintf("%s/parallel=%v", s, parallel)
			in := heldJoinInstance("hj")
			want, _, _, err := oracleEval(context.Background(), NewRuntime(), u, ps, in.MustCatalog(ps), false)
			if err != nil {
				t.Fatal(err)
			}
			cat, verify := sourcetest.ReadOnlyCatalog(in.MustCatalog(ps))
			for run := 0; run < 2; run++ {
				got, prof, _, err := s.run(u, ps, cat, Answered{}, Opts{Parallel: parallel})
				if err != nil {
					t.Fatalf("%s, run %d: %v", label, run, err)
				}
				sameAnswer(t, got, want, s, parallel, fmt.Sprintf("%s, run %d", label, run))
				if prof.Batch.HeldAnswers != calls {
					t.Errorf("%s, run %d: %d held answers, want %d", label, run, prof.Batch.HeldAnswers, calls)
				}
				held := stateOf(cat).held
				if held.heldJoins() != shapes {
					t.Errorf("%s, run %d: %d joins held, want one per shape (%d)", label, run, held.heldJoins(), shapes)
				}
				// Parallel rules of one shape may race to build its join.
				if built := held.joinsBuilt(); (!parallel && built != shapes) || built < shapes || built > calls {
					t.Errorf("%s, run %d: %d joins built, want %d", label, run, built, shapes)
				}
				if run == 1 && prof.Batch.InternedValues != 0 {
					t.Errorf("%s: the second run interned %d values", label, prof.Batch.InternedValues)
				}
			}
			verify(t)
		}
	}
}

// dupSource answers every call with one fixed group, the same slice each
// time, that repeats tuples: a source need not be set-valued.
type dupSource struct {
	*sources.Table
	rows []sources.Tuple
}

func (s dupSource) Call(_ context.Context, _ access.Pattern, inputs [][]string) ([][]sources.Tuple, error) {
	out := make([][]sources.Tuple, len(inputs))
	for i := range out {
		out[i] = s.rows
	}
	return out, nil
}

// A held dedup step keeps the first tuple of each carried projection per
// group, and nothing else changes: with repeated projections and repeated
// source tuples, every schedule gives the oracle's rows in its order and
// sends on exactly its distinct live bindings (checkStepBindings), on the
// run that builds the joins and on the one that reads them. The last
// rule's step has the second's shape but for dedup, so it gets a join of
// its own that keeps the repeats: like the oracle, it sends on one
// binding per matching tuple. Each group of a held dedup join is the
// call's own group less its later repeats.
func TestHeldJoinDedupFirstOccurrence(t *testing.T) {
	var base []sources.Tuple
	for i := 0; i < 48; i++ {
		base = append(base, sources.Tuple{fmt.Sprintf("hd_a%d", i%4), fmt.Sprintf("hd_b%d", i%6), fmt.Sprintf("hd_c%d", i%5)})
	}
	ps := pats(t, `R^ooo P^o T^i`)
	table, err := sources.NewTable("R", 3, ps.Patterns("R"), base)
	if err != nil {
		t.Fatal(err)
	}
	r := dupSource{table, append(base[:len(base):len(base)], base[5:21]...)}
	in := NewInstance().MustAdd("P", "hd_a0").MustAdd("P", "hd_a2").MustAdd("P", "hd_a3").MustAdd("P", "hd_a9")
	for _, b := range []string{"hd_b0", "hd_b1", "hd_b3", "hd_b5"} {
		in.MustAdd("T", b)
	}
	catalog := func() *sources.Catalog {
		inner := in.MustCatalog(pats(t, `P^o T^i`))
		return sources.MustCatalog(r, inner.Source("P"), inner.Source("T"))
	}
	u := ucq(t, `
		Q(b) :- P(a), R(a, b, c), T(b).
		Q(b) :- R(a, b, c), T(b).
		Q(b) :- R(a, b, c).
	`)
	oracleRT := NewRuntime()
	want, wantProf, _, err := oracleEval(context.Background(), oracleRT, u, ps, catalog(), false)
	if err != nil {
		t.Fatal(err)
	}
	wantLive := oracleLiveBindings(t, oracleRT, u, ps, catalog())

	for _, s := range []schedule{{}, {true, 1, 1}, {true, 3, 2}, {true, 64, 1}} {
		for _, parallel := range []bool{false, true} {
			cat, verify := sourcetest.ReadOnlyCatalog(catalog())
			for run := 0; run < 2; run++ {
				label := fmt.Sprintf("%s/parallel=%v, run %d", s, parallel, run)
				got, prof, _, err := s.run(u, ps, cat, Answered{}, Opts{Parallel: parallel})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameAnswer(t, got, want, s, parallel, label)
				checkStepBindings(t, label, prof, wantProf, wantLive, !parallel && !s.staged)
				if g, w := prof.Rules[2].Steps[0].BindingsOut, wantProf.Rules[2].Steps[0].BindingsOut; g != w || w != len(r.rows) {
					t.Fatalf("%s: the last rule sent on %d bindings, want one per tuple (%d, oracle %d)", label, g, len(r.rows), w)
				}
				if prof.Batch.HeldAnswers != 3 {
					t.Errorf("%s: %d held answers, want R's three calls", label, prof.Batch.HeldAnswers)
				}
			}
			verify(t)
		}
	}

	// The probe step of the first rule, held and not.
	steps, ok := access.AdornInOrder(u.Rules[0].Body, ps)
	if !ok {
		t.Fatal("not executable")
	}
	pool := newColPool(newEngineState())
	sp := &compileRule(u.Rules[0], steps, pool, &relOrds{}).steps[1]
	if !sp.dedup || len(sp.boundPos) != 1 {
		t.Fatalf("fixture: R step dedup=%v, probe positions %v", sp.dedup, sp.boundPos)
	}
	own, held := ownJoin(sp, r.rows, pool, nil), newHeldTable().join(r.rows, sp, pool, nil)
	if own.keys.len() != held.keys.len() || len(held.idx) >= len(own.idx) {
		t.Fatalf("held join: %d groups, %d tuples; own %d, %d", held.keys.len(), len(held.idx), own.keys.len(), len(own.idx))
	}
	for g := 0; g < own.keys.len(); g++ {
		var firsts []int32
		seen := map[string]bool{}
		for _, ti := range own.idx[own.start[g]:own.start[g+1]] {
			if b := r.rows[ti][1]; !seen[b] {
				seen[b] = true
				firsts = append(firsts, ti)
			}
		}
		if got := held.idx[held.start[g]:held.start[g+1]]; fmt.Sprint(got) != fmt.Sprint(firsts) {
			t.Errorf("group %d: held tuples %v, want the first of each b %v", g, got, firsts)
		}
	}
}
