package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/logic"
)

// withInternLimit runs f with internLimit lowered to n.
func withInternLimit(n int64, f func()) {
	defer func(old int64) { internLimit = old }(internLimit)
	internLimit = n
	f()
}

// roundValue is one value of round r of tag's rounds.
func roundValue(tag string, r int, kind string, i int) string {
	return fmt.Sprintf("%s_r%d_%s%d", tag, r, kind, i)
}

// roundKey is the constant that selects round r.
func roundKey(tag string, r int) string { return fmt.Sprintf("%s_r%d", tag, r) }

// addRounds adds rounds disjoint universes of values to in, each reached
// through its own key: R(key, x, z) with 300 x over 30 z, and T(z, y).
func addRounds(in *Instance, tag string, rounds int) {
	for r := 0; r < rounds; r++ {
		for i := 0; i < 300; i++ {
			in.MustAdd("R", roundKey(tag, r), roundValue(tag, r, "x", i), roundValue(tag, r, "z", i%30))
		}
		for z := 0; z < 30; z++ {
			in.MustAdd("T", roundValue(tag, r, "z", z), roundValue(tag, r, "y", z))
		}
	}
}

// roundQuery reads round r: 300 answers.
func roundQuery(t *testing.T, tag string, r int) logic.UCQ {
	return ucq(t, fmt.Sprintf(`Q(x, y) :- R("%s", x, z), T(z, y).`, roundKey(tag, r)))
}

// roundBytes is what round r's values cost an interner: its key, and its
// x, z and y values.
func roundBytes(tag string, r int) int64 {
	cost := func(s string) int64 { return int64(len(s)) + internEntryOverhead }
	n := cost(roundKey(tag, r))
	for i := 0; i < 300; i++ {
		n += cost(roundValue(tag, r, "x", i))
	}
	for i := 0; i < 30; i++ {
		n += cost(roundValue(tag, r, "z", i)) + cost(roundValue(tag, r, "y", i))
	}
	return n
}

// checkRound holds round r's answer to naive evaluation.
func checkRound(t *testing.T, in *Instance, q logic.UCQ, r int, rel *Rel) {
	t.Helper()
	want, err := AnswerNaive(q, in)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Equal(want) || rel.Len() != 300 {
		t.Fatalf("round %d: answer of %d rows, naive evaluation gives %d", r, rel.Len(), want.Len())
	}
}

// testRollover runs rounds of values no earlier round read through one
// catalog whose bound is under one round's worth, materialized or
// streamed. Every round after the first finds the state full and starts
// a fresh one. Answers stay exact, and the state a round leaves — the
// one the profile reports — holds that round's values and nothing else.
func testRollover(t *testing.T, streamed bool) {
	const tag, rounds = "roll", 4
	in := NewInstance()
	addRounds(in, tag, rounds)
	ps := pats(t, `R^ioo T^io`)
	cat := in.MustCatalog(ps)
	withInternLimit(roundBytes(tag, 0)/2, func() {
		var prev *engineState
		for r := 0; r < rounds; r++ {
			q := roundQuery(t, tag, r)
			var rel *Rel
			var prof Profile
			var err error
			if streamed {
				var s *Stream
				if s, err = streamQuery(context.Background(), NewRuntime(), q, ps, cat); err == nil {
					rel, err = s.Drain()
					prof, _ = s.Profile()
				}
			} else {
				rel, prof, _, err = eval(context.Background(), NewRuntime(), q, ps, cat, Opts{})
			}
			if err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			checkRound(t, in, q, r, rel)
			st := stateOf(cat)
			if st == prev {
				t.Fatalf("round %d ran in round %d's full state", r, r-1)
			}
			prev = st
			if _, bytes := st.ids.occupancy(); bytes != roundBytes(tag, r) || prof.Batch.InternerBytes != bytes {
				t.Fatalf("round %d: the state holds %d bytes (profile: %d), want the round's %d",
					r, bytes, prof.Batch.InternerBytes, roundBytes(tag, r))
			}
		}
	})
}

// Materialized executions roll a full state over and answer exactly.
func TestInternerRolloverWithoutWrongAnswers(t *testing.T) { testRollover(t, false) }

// So do streamed ones: the pipeline's stages share the pinned state.
func TestInternerRolloverStream(t *testing.T) { testRollover(t, true) }

// Executions over one catalog race its rollovers: workers run rounds of
// their own values, and each round's values alone fill a state, so
// states are installed while executions pinned to the one before still
// run. Every answer stays exact (exercised by -race). A state holds no
// more than the values of the executions that started in it, at most
// one per worker, since each one's values fill it.
func TestInternerRolloverConcurrent(t *testing.T) {
	const workers, rounds = 6, 3
	in := NewInstance()
	var widest int64
	for g := 0; g < workers; g++ {
		tag := fmt.Sprintf("cc%d", g)
		addRounds(in, tag, rounds)
		for r := 0; r < rounds; r++ {
			widest = max(widest, roundBytes(tag, r))
		}
	}
	ps := pats(t, `R^ioo T^io`)
	cat := in.MustCatalog(ps)
	first := stateOf(cat)
	rt := NewRuntime()
	withInternLimit(roundBytes("cc0", 0)/2, func() {
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(tag string) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					q := roundQuery(t, tag, r)
					rel, err := answer(context.Background(), rt, q, ps, cat)
					if err != nil {
						t.Errorf("%s round %d: %v", tag, r, err)
						return
					}
					want, _ := AnswerNaive(q, in)
					if !rel.Equal(want) || rel.Len() != 300 {
						t.Errorf("%s round %d: %d rows, want naive evaluation's %d", tag, r, rel.Len(), want.Len())
						return
					}
				}
			}(fmt.Sprintf("cc%d", g))
		}
		wg.Wait()
	})
	st := stateOf(cat)
	if st == first {
		t.Fatal("no execution rolled the state over")
	}
	if _, bytes := st.ids.occupancy(); bytes > workers*widest {
		t.Fatalf("the state holds %d bytes, more than %d workers' rounds (%d)", bytes, workers, workers*widest)
	}
}

// A dropped catalog takes its values with it: mount 1 000 catalogs with
// values of their own, run one query on each and drop them; once the
// collector has run, no dropped catalog's engine state is reachable.
func TestInternerStateDiesWithCatalog(t *testing.T) {
	const tenants = 1000
	q := ucq(t, `Q(x, y) :- R(x, y).`)
	ps := pats(t, `R^oo`)
	rt := NewRuntime()
	states := make([]weak.Pointer[engineState], tenants)
	for i := range states {
		cat := NewInstance().MustAdd("R", fmt.Sprintf("churn%d_x", i), fmt.Sprintf("churn%d_y", i)).MustCatalog(ps)
		if rel, err := answer(context.Background(), rt, q, ps, cat); err != nil || rel.Len() != 1 {
			t.Fatalf("tenant %d: %v, %v", i, rel, err)
		}
		if entries, _ := InternerOccupancy(cat); entries != 2 {
			t.Fatalf("tenant %d: its interner holds %d values, want its own 2", i, entries)
		}
		states[i] = weak.Make(stateOf(cat))
	}
	runtime.GC()
	live := 0
	for _, p := range states {
		if p.Value() != nil {
			live++
		}
	}
	if live != 0 {
		t.Errorf("%d of %d dropped catalogs' engine states are still reachable", live, tenants)
	}
}
