// Package sourcetest is the conformance suite of the sources.Source
// contract, run by internal/sources over the in-memory implementations
// and wrapper stacks and by internal/adapter over the SQL and HTTP
// adapters: one table of obligations instead of per-implementation
// copies. ReadOnly checks the contract's read-only rule: that nobody —
// a consumer or the source itself — writes into rows once handed out.
package sourcetest

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/access"
	"repro/internal/sources"
)

// Rows is the relation r(k, v) every fixture serves, through patterns
// io and oo.
var Rows = []sources.Tuple{{"a", "1"}, {"a", "2"}, {"b", "3"}}

// Patterns are the access patterns every fixture declares.
var Patterns = []access.Pattern{"io", "oo"}

// Leaf is an in-memory r(k, v) that can declare itself batching and be
// armed to fail in the middle of a group.
type Leaf struct {
	*sources.Table
	batches bool
	fail    atomic.Bool
}

// NewLeaf returns a leaf over Rows.
func NewLeaf(batches bool) *Leaf {
	return &Leaf{Table: sources.MustTable("r", 2, Patterns, Rows), batches: batches}
}

// Batches implements sources.Source.
func (l *Leaf) Batches() bool { return l.batches }

// FailNext makes the next call answer its first vector — real, metered
// traffic — and then fail: a failure in the middle of a group.
func (l *Leaf) FailNext() { l.fail.Store(true) }

// Call implements sources.Source.
func (l *Leaf) Call(ctx context.Context, p access.Pattern, inputs [][]string) ([][]sources.Tuple, error) {
	if len(inputs) > 0 && l.fail.CompareAndSwap(true, false) {
		if _, err := l.Table.Call(ctx, p, inputs[:1]); err != nil {
			return nil, err
		}
		return nil, sources.Transient(errors.New("sourcetest: injected mid-group failure"))
	}
	return l.Table.Call(ctx, p, inputs)
}

// ReadOnly wraps a source and fingerprints every group it hands out, so
// a test can check that the answer never changed afterwards: the
// sources.Source contract lets a source share its rows with every
// caller and lets callers key on a group's identity, so neither a
// consumer nor the source may write into it. It forwards metering to
// the wrapped source.
type ReadOnly struct {
	sources.Source
	mu     sync.Mutex
	handed []handout
}

// handout is one group as handed out and its fingerprint at the time.
type handout struct {
	group []sources.Tuple
	print string
}

// NewReadOnly wraps src.
func NewReadOnly(src sources.Source) *ReadOnly { return &ReadOnly{Source: src} }

// ReadOnlyCatalog wraps every source of cat; verify checks them all.
func ReadOnlyCatalog(cat *sources.Catalog) (wrapped *sources.Catalog, verify func(testing.TB)) {
	var all []*ReadOnly
	var srcs []sources.Source
	for _, name := range cat.Names() {
		r := NewReadOnly(cat.Source(name))
		all = append(all, r)
		srcs = append(srcs, r)
	}
	return sources.MustCatalog(srcs...), func(t testing.TB) {
		t.Helper()
		for _, r := range all {
			r.Verify(t)
		}
	}
}

// Call implements sources.Source.
func (r *ReadOnly) Call(ctx context.Context, p access.Pattern, inputs [][]string) ([][]sources.Tuple, error) {
	out, err := r.Source.Call(ctx, p, inputs)
	r.mu.Lock()
	for _, g := range out {
		r.handed = append(r.handed, handout{g, fingerprint(g)})
	}
	r.mu.Unlock()
	return out, err
}

// Verify fails t if any group handed out so far has changed since.
func (r *ReadOnly) Verify(t testing.TB) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, h := range r.handed {
		if got := fingerprint(h.group); got != h.print {
			t.Errorf("%s's answer changed after it was handed out (a consumer or the source wrote into it): %q became %q", r.Name(), h.print, got)
		}
	}
}

// StatsSnapshot implements sources.StatsReporter on the wrapped source.
func (r *ReadOnly) StatsSnapshot() sources.Stats {
	if m, ok := r.Source.(sources.StatsReporter); ok {
		return m.StatsSnapshot()
	}
	return sources.Stats{}
}

// ResetStats implements sources.StatsReporter on the wrapped source.
func (r *ReadOnly) ResetStats() {
	if m, ok := r.Source.(sources.StatsReporter); ok {
		m.ResetStats()
	}
}

func fingerprint(g []sources.Tuple) string {
	var sb strings.Builder
	for _, t := range g {
		sb.WriteString(t.Key())
		sb.WriteByte('\x1e')
	}
	return sb.String()
}

// Fixture is one implementation, or one stack of wrappers, under test.
type Fixture struct {
	Name string
	// Src serves Rows through Patterns.
	Src sources.Source
	// Batches is the batching property Src must declare.
	Batches bool
	// Meter sums the counters of the metering leaves under Src: what
	// Catalog.TotalStats over Src must report, no more and no less.
	Meter func() sources.Stats
	// Wire counts the requests that reached the data behind Src; a call
	// rejected up front must leave it unchanged.
	Wire func() int
	// Fail arms one failure of the next request that reaches the data;
	// nil for an implementation that cannot fail.
	Fail func()
}

// Contract checks every obligation of the Source contract against f.
func Contract(t *testing.T, f Fixture) {
	t.Helper()
	ctx := context.Background()
	want := map[string][]sources.Tuple{"a": Rows[:2], "b": Rows[2:], "zz": {}}
	aligned := func(t *testing.T, keys ...string) {
		t.Helper()
		inputs := make([][]string, len(keys))
		for i, k := range keys {
			inputs[i] = []string{k}
		}
		out, err := f.Src.Call(ctx, "io", inputs)
		if err != nil {
			t.Fatalf("Call(%v): %v", keys, err)
		}
		if len(out) != len(keys) {
			t.Fatalf("Call(%v): %d groups", keys, len(out))
		}
		for i, k := range keys {
			got := append([]sources.Tuple{}, out[i]...)
			if !reflect.DeepEqual(got, append([]sources.Tuple{}, want[k]...)) {
				t.Errorf("Call(%v): out[%d] = %v, want the rows of %q", keys, i, out[i], k)
			}
		}
	}
	untouched := func(t *testing.T, what string, call func() ([][]sources.Tuple, error), check func(error) bool) {
		t.Helper()
		before := f.Wire()
		out, err := call()
		if err == nil || out != nil || !check(err) {
			t.Errorf("%s: out = %v, err = %v", what, out, err)
		}
		if got := f.Wire() - before; got != 0 {
			t.Errorf("%s: %d requests reached the data, want none", what, got)
		}
	}
	anyErr := func(error) bool { return true }

	if got := f.Src.Batches(); got != f.Batches {
		t.Errorf("Batches() = %v, want %v", got, f.Batches)
	}
	if f.Src.Name() != "r" || f.Src.Arity() != 2 || !reflect.DeepEqual(f.Src.Patterns(), Patterns) {
		t.Errorf("identity = %s/%d %v", f.Src.Name(), f.Src.Arity(), f.Src.Patterns())
	}

	// A group once handed out is never written again, by anyone: every
	// call below — repeats, scans, rejected calls, a failure — leaves
	// these answers as they were.
	ro := NewReadOnly(f.Src)
	for _, call := range []struct {
		p      access.Pattern
		inputs [][]string
	}{{"io", [][]string{{"a"}, {"b"}, {"zz"}}}, {"oo", [][]string{{}}}} {
		if _, err := ro.Call(ctx, call.p, call.inputs); err != nil {
			t.Fatalf("Call(%s, %v): %v", call.p, call.inputs, err)
		}
	}
	defer ro.Verify(t)

	// out[i] answers inputs[i]: misses, duplicates and repeats included.
	aligned(t, "a", "zz", "b", "a")
	aligned(t, "b")
	aligned(t)
	scan, err := f.Src.Call(ctx, "oo", [][]string{{}, {}})
	if err != nil || len(scan) != 2 || len(scan[0]) != len(Rows) || len(scan[1]) != len(Rows) {
		t.Errorf("scan group = %v, %v", scan, err)
	}

	// Wrappers report the leaves' traffic exactly once.
	total, own := sources.MustCatalog(f.Src).TotalStats(), f.Meter()
	if total.Calls != own.Calls || total.TuplesReturned != own.TuplesReturned ||
		total.RoundTrips != own.RoundTrips || total.BatchedCalls != own.BatchedCalls {
		t.Errorf("TotalStats %+v != leaf counters %+v (double count or drop)", total, own)
	}
	if own.Calls == 0 {
		t.Error("the leaves metered nothing")
	}

	// Contract violations and dead contexts are refused before any
	// traffic.
	untouched(t, "undeclared pattern", func() ([][]sources.Tuple, error) {
		return f.Src.Call(ctx, "oi", [][]string{{"1"}})
	}, anyErr)
	untouched(t, "wrong input count", func() ([][]sources.Tuple, error) {
		return f.Src.Call(ctx, "io", [][]string{{"b"}, {"a", "b"}})
	}, anyErr)
	dead, cancel := context.WithCancel(ctx)
	cancel()
	untouched(t, "cancelled context", func() ([][]sources.Tuple, error) {
		return f.Src.Call(dead, "io", [][]string{{"fresh"}})
	}, func(err error) bool { return errors.Is(err, context.Canceled) })

	// A failure in the middle of a group fails the whole group, and
	// leaves nothing behind that a later call could trip over.
	if f.Fail == nil {
		return
	}
	f.Fail()
	if out, err := f.Src.Call(ctx, "io", [][]string{{"x"}, {"y"}, {"x"}}); err == nil || out != nil {
		t.Errorf("mid-group failure: out = %v, err = %v, want no groups and an error", out, err)
	}
	aligned(t, "x", "a", "y")
}
