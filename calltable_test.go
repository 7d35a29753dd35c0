package ucqn

// One call table per execution: the rules of a union that ask a source
// the same question share one call, however the execution runs them,
// and a failed shared call fails every rule that reads it.

import (
	"context"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// callTableFixture is a three-rule union whose rules share accesses:
// R's scan is every rule's first step and rules 1 and 2 look up S with
// the same inputs. It asks 10 distinct questions — R's scan, S for z = 1
// and 2, L for x = a, b, c, M for y = p, q and T for y = 1, 2 — where
// asking once per step made 14.
func callTableFixture() (Query, *PatternSet, *Instance) {
	q := MustParseQuery(`
		Q(x, y) :- R(x, z), S(z, y), not L(x).
		Q(x, y) :- R(x, z), S(z, y), not M(y).
		Q(x, y) :- R(x, y), T(y).
	`)
	ps := MustParsePatterns(`R^oo S^io L^i M^i T^i`)
	in := NewInstance()
	in.MustAdd("R", "a", "1").MustAdd("R", "b", "1").MustAdd("R", "c", "2")
	in.MustAdd("S", "1", "p").MustAdd("S", "2", "q")
	in.MustAdd("L", "b").MustAdd("M", "q").MustAdd("T", "1")
	return q, ps, in
}

const callTableQuestions = 10

// questionCounter counts the questions cat's tables are asked, by
// (relation, pattern, inputs). R's scan is held in flight for a moment,
// so that the other rules of a parallel or streamed run find it there.
type questionCounter struct {
	mu    sync.Mutex
	asked map[string]int
}

func countQuestions(cat *Catalog) *questionCounter {
	qc := &questionCounter{asked: map[string]int{}}
	for _, name := range cat.Names() {
		tab := cat.Source(name).(*Table)
		tab.OnCall = func(p Pattern, inputs []string) {
			if name == "R" {
				time.Sleep(time.Millisecond)
			}
			qc.mu.Lock()
			qc.asked[name+"^"+string(p)+"("+strings.Join(inputs, ",")+")"]++
			qc.mu.Unlock()
		}
	}
	return qc
}

// repeats returns the questions asked more than once.
func (qc *questionCounter) repeats() []string {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	var out []string
	for k, n := range qc.asked {
		if n > 1 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// rowKeys reads a result's rows in the order they come: drained through
// Rel, or one at a time with Next, keeping the first of a row that two
// rules both stream.
func rowKeys(t *testing.T, res *Result, next bool) []string {
	t.Helper()
	var keys []string
	if next {
		s := res.Stream()
		seen := map[string]bool{}
		for s.Next() {
			if k := s.Tuple().Key(); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return keys
	}
	rel, err := res.Rel()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rel.Rows() {
		keys = append(keys, row.Key())
	}
	return keys
}

// Every way to run the fixture asks each of its 10 questions once —
// parallel rules, a stream drained or read with Next, both at once, a
// cached miss — and gives the uncached rows in their order (as a set
// where parallel rules interleave a stream); a cached hit asks nothing.
// Run under -race (make fault-smoke), repeated to vary the interleaving.
func TestCallTableSharedAcrossRules(t *testing.T) {
	q, ps, in := callTableFixture()
	ctx := context.Background()
	base, err := Exec(ctx, q, ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	want := rowKeys(t, base, false)
	if len(want) != 5 {
		t.Fatalf("fixture: %d rows %v, want 5", len(want), want)
	}
	qcache := NewQueryCache(QueryCacheOptions{})
	var cachedCat *Catalog // the cached miss's, which the hit reuses
	for _, mode := range []struct {
		name        string
		opts        []ExecOption
		next, inSet bool
		calls       int
	}{
		{"materialized", nil, false, false, callTableQuestions},
		{"parallel", []ExecOption{WithParallelRules()}, false, false, callTableQuestions},
		{"streamed, drained", []ExecOption{WithStreaming()}, false, false, callTableQuestions},
		{"streamed, Next", []ExecOption{WithStreaming()}, true, false, callTableQuestions},
		{"streamed parallel, drained", []ExecOption{WithStreaming(), WithParallelRules()}, false, true, callTableQuestions},
		{"streamed parallel, Next", []ExecOption{WithStreaming(), WithParallelRules()}, true, true, callTableQuestions},
		{"cached miss", []ExecOption{WithQueryCache(qcache)}, false, false, callTableQuestions},
		{"cached hit", []ExecOption{WithQueryCache(qcache)}, false, false, 0},
	} {
		rounds := 20
		if mode.name == "cached miss" || mode.name == "cached hit" {
			rounds = 1
		}
		for round := 0; round < rounds; round++ {
			cat := in.MustCatalog(ps)
			switch mode.name {
			case "cached miss":
				cachedCat = cat
			case "cached hit":
				cat = cachedCat
			}
			asked := countQuestions(cat)
			before := cat.TotalStats().Calls
			res, err := Exec(ctx, q, ps, cat, mode.opts...)
			if err != nil {
				t.Fatalf("%s: %v", mode.name, err)
			}
			got := rowKeys(t, res, mode.next)
			if mode.inSet {
				got, want := append([]string(nil), got...), append([]string(nil), want...)
				sort.Strings(got)
				sort.Strings(want)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: rows %q, want %q", mode.name, got, want)
				}
			} else if !slices.Equal(got, want) {
				t.Fatalf("%s: rows %q, want %q in that order", mode.name, got, want)
			}
			if calls := cat.TotalStats().Calls - before; calls != mode.calls {
				t.Fatalf("%s: %d source calls, want %d", mode.name, calls, mode.calls)
			}
			if r := asked.repeats(); len(r) > 0 {
				t.Fatalf("%s: asked %v more than once", mode.name, r)
			}
		}
	}
}

// A shared call that fails fails every rule that reads it: with S dead,
// WithPartialResults drops rules 1 and 2, which look S up with the same
// inputs, names both in the report, and answers with rule 3. S is asked
// each of its two questions at most once — the rule that reads a failed
// call asks nothing — however the rules run.
func TestCallTableSharedFailureDropsEveryReader(t *testing.T) {
	q, ps, in := callTableFixture()
	ctx := context.Background()
	survivor, err := Exec(ctx, MustParseQuery(`Q(x, y) :- R(x, y), T(y).`), ps, in.MustCatalog(ps))
	if err != nil {
		t.Fatal(err)
	}
	want := rowKeys(t, survivor, false)
	sort.Strings(want)
	rt := NewRuntime()
	rt.Retry.MaxAttempts = 1
	for _, mode := range []struct {
		name string
		opts []ExecOption
		next bool
	}{
		{"materialized", nil, false},
		{"parallel", []ExecOption{WithParallelRules()}, false},
		{"streamed, drained", []ExecOption{WithStreaming()}, false},
		{"streamed, Next", []ExecOption{WithStreaming()}, true},
		{"streamed parallel", []ExecOption{WithStreaming(), WithParallelRules()}, false},
	} {
		for round := 0; round < 20; round++ {
			base := in.MustCatalog(ps)
			var srcs []Source
			var dead *FlakySource
			for _, name := range base.Names() {
				src := base.Source(name)
				if name == "S" {
					dead = NewFlakySource(src, FlakyConfig{FailEveryN: 1})
					src = dead
				}
				srcs = append(srcs, src)
			}
			cat, err := NewCatalog(srcs...)
			if err != nil {
				t.Fatal(err)
			}
			opts := append([]ExecOption{WithRuntime(rt), WithPartialResults()}, mode.opts...)
			res, err := Exec(ctx, q, ps, cat, opts...)
			if err != nil {
				t.Fatalf("%s: %v", mode.name, err)
			}
			got := rowKeys(t, res, mode.next)
			sort.Strings(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: rows %q, want rule 3's %q", mode.name, got, want)
			}
			rep, ok := res.Report()
			if !ok {
				t.Fatalf("%s: no report", mode.name)
			}
			var dropped []int
			for _, f := range rep.Failed {
				if f.Source != "S" {
					t.Fatalf("%s: rule %d failed at %q, want S:\n%s", mode.name, f.RuleIndex+1, f.Source, rep)
				}
				dropped = append(dropped, f.RuleIndex)
			}
			if !slices.Equal(dropped, []int{0, 1}) || rep.RulesSurvived != 1 || rep.Certified {
				t.Fatalf("%s: dropped rules %v, %d of %d survived; want rules 1 and 2 dropped:\n%s", mode.name, dropped, rep.RulesSurvived, rep.RulesTotal, rep)
			}
			if n := dead.Injected(); n < 1 || n > 2 {
				t.Fatalf("%s: S asked %d times, want once or twice (each question at most once)", mode.name, n)
			}
		}
	}
}

// Next hands out a row once per rule that derives it, Rel holds it
// once: the fixture's (a, p) comes from rules 1 and 2, so a Next loop
// over its stream reads 6 rows and the drained stream holds 5.
func TestStreamNextYieldsARowPerRule(t *testing.T) {
	q, ps, in := callTableFixture()
	stream := func() *Stream {
		res, err := Exec(context.Background(), q, ps, in.MustCatalog(ps), WithStreaming())
		if err != nil {
			t.Fatal(err)
		}
		return res.Stream()
	}
	s := stream()
	next := 0
	for s.Next() {
		next++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rel, err := stream().Drain()
	if err != nil {
		t.Fatal(err)
	}
	if next != 6 || rel.Len() != 5 {
		t.Fatalf("Next read %d rows and Drain holds %d, want 6 and 5", next, rel.Len())
	}
}
