// Package sources simulates relations exposed as web-service-style
// sources with limited access patterns (Section 1 of the paper models a
// web service operation as a relation with an access pattern). A source
// can only be called by supplying values for every input slot of one of
// its declared patterns; the call returns the matching tuples. Each
// source meters its traffic (calls made, tuples returned), which the
// benchmark harness reports as the cost of a plan.
//
// This package substitutes for the distributed sources of the paper's
// BIRN mediator deployment: the paper's algorithms interact with sources
// only through the access-pattern contract, which is enforced here at the
// call boundary.
package sources

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
)

// Tuple is a row of constant values.
type Tuple []string

// Key encodes the tuple for use as a map key (Key).
func (t Tuple) Key() string { return Key(t) }

// Source is a callable relation with limited access patterns. It is the
// one contract everything above the sources — planner, runtime, cache,
// adapters, middleware — programs against.
type Source interface {
	// Name returns the relation name.
	Name() string
	// Arity returns the relation arity.
	Arity() int
	// Patterns returns the declared access patterns.
	Patterns() []access.Pattern
	// Call invokes the source through pattern p for a group of input
	// vectors, each supplying values for the input slots of p in slot
	// order; a single call is a group of one. out[i] holds all tuples
	// matching inputs[i] (full rows, including the input positions), and
	// duplicate vectors each get their rows. A group succeeds or fails
	// as a whole. Calling with a pattern not declared for the source, or
	// with the wrong number of inputs in any vector, is an error before
	// any traffic: that is exactly the restriction the paper studies. A
	// done context is reported as ctx.Err(), never as a transient
	// failure. The input vectors are the caller's: a source reads them
	// during the call and keeps none of them once it returns (the engine
	// reuses their arrays).
	//
	// The answer is read-only, for good: the returned slice of groups, a
	// group or a tuple once handed out is never written again, by anyone
	// — not by the caller, and not by the source, which may share it with
	// other callers and with its own storage and hand the same one out
	// again (Table.Call returns a single input's answer as its index's
	// own one-group slice). A group's identity
	// (its first element's address and its length) therefore stands for
	// its contents for as long as anyone holds it: the engine keeps a
	// large answer's interned join columns under that identity
	// (Catalog.Held). A source whose data changes answers with new
	// groups.
	Call(ctx context.Context, p access.Pattern, inputs [][]string) ([][]Tuple, error)
	// Batches reports whether Call services a whole group in one wire
	// round trip (a SQL adapter compiles the group into one IN (...)
	// query; an HTTP adapter posts it as one request). The runtime hands
	// such a source a step's whole deduplicated binding group in one
	// call, charged as one budget unit; everything else gets groups of
	// one. Wrappers answer for the source at the bottom of their stack.
	Batches() bool
}

// CheckGroup enforces the access-pattern contract for one group call
// against the named source's declared patterns.
func CheckGroup(name string, declared []access.Pattern, p access.Pattern, inputs [][]string) error {
	ok := false
	for _, d := range declared {
		if d == p {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("sources: %s does not support pattern %s (has %v)", name, p, declared)
	}
	for _, in := range inputs {
		if len(in) != p.InputCount() {
			return fmt.Errorf("sources: call to %s^%s with %d inputs, want %d", name, p, len(in), p.InputCount())
		}
	}
	return nil
}

// forward is the part of a wrapper that is not behaviour: identity, the
// batching property and metering all come from the wrapped source.
// Wrappers embed it and add only their Call.
type forward struct{ inner Source }

func (f forward) Name() string               { return f.inner.Name() }
func (f forward) Arity() int                 { return f.inner.Arity() }
func (f forward) Patterns() []access.Pattern { return f.inner.Patterns() }
func (f forward) Batches() bool              { return f.inner.Batches() }

// StatsSnapshot implements StatsReporter with the wrapped source's
// counters, so a catalog of wrapped sources reports the real remote
// traffic. Wrapping a source that does not meter reports zero.
func (f forward) StatsSnapshot() Stats {
	if r, ok := f.inner.(StatsReporter); ok {
		return r.StatsSnapshot()
	}
	return Stats{}
}

// ResetStats implements StatsReporter on the wrapped source.
func (f forward) ResetStats() {
	if r, ok := f.inner.(StatsReporter); ok {
		r.ResetStats()
	}
}

// Stats is a source's traffic accounting. Besides call and tuple
// counts it carries per-call latency totals: sources that meter latency
// (Delayed, the SQL and HTTP adapters) fold each observed call duration
// in via Observe. An in-memory Table answers without a wait and meters
// none.
type Stats struct {
	Calls          int // input vectors answered (logical calls)
	TuplesReturned int // total tuples transferred

	LatencyCalls int           // calls with a latency observation
	TotalLatency time.Duration // sum of observed call latencies

	// Wire round trips: a source that services a whole binding group in
	// one request counts it as one round trip, and as BatchedCalls
	// logical calls when the group held more than one. In-memory sources
	// leave both zero.
	RoundTrips   int // wire requests made
	BatchedCalls int // logical calls covered by multi-vector round trips

	// Rate limiting: sources with a client-side limiter (the HTTP/JSON
	// adapter) record how often and how long calls waited for a token.
	RateLimitWaits int           // calls that had to wait for the limiter
	RateLimitWait  time.Duration // total time spent waiting
}

// Observe folds one call latency into the latency totals. The caller is
// responsible for synchronization.
func (s *Stats) Observe(d time.Duration) {
	s.LatencyCalls++
	s.TotalLatency += d
}

// MeanLatency returns the average observed call latency (zero when no
// call was metered).
func (s Stats) MeanLatency() time.Duration {
	if s.LatencyCalls == 0 {
		return 0
	}
	return s.TotalLatency / time.Duration(s.LatencyCalls)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Calls += other.Calls
	s.TuplesReturned += other.TuplesReturned
	s.RoundTrips += other.RoundTrips
	s.BatchedCalls += other.BatchedCalls
	s.RateLimitWaits += other.RateLimitWaits
	s.RateLimitWait += other.RateLimitWait
	s.TotalLatency += other.TotalLatency
	s.LatencyCalls += other.LatencyCalls
}

// StatsReporter is implemented by sources that meter their traffic.
// Wrappers (Cached, Flaky, ...) forward to the wrapped source, so a
// catalog of wrapped sources still reports the real remote traffic.
type StatsReporter interface {
	// StatsSnapshot returns a snapshot of the traffic counters.
	StatsSnapshot() Stats
	// ResetStats zeroes the traffic counters.
	ResetStats()
}

// transientError marks a source failure as transient: the call may
// succeed if retried (network blips, rate limiting, service restarts).
// Contract violations (undeclared pattern, wrong input count) are
// permanent and are never marked transient.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err to mark it as a transient source failure. A nil
// err returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is (or wraps) a transient source
// failure, i.e. one worth retrying.
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// Table is an in-memory Source over a fixed set of tuples, with one hash
// index per declared pattern. It is safe for concurrent use.
type Table struct {
	name     string
	arity    int
	patterns []access.Pattern

	mu   sync.Mutex
	rows []Tuple
	// index maps a pattern and an input key to the answer as a group of
	// one: a call with a single input vector returns it as it is.
	index  map[access.Pattern]map[string][][]Tuple
	stats  Stats
	OnCall func(p access.Pattern, inputs []string) // optional test/benchmark hook
}

// NewTable builds a table source. Every tuple must have the table's
// arity, and every pattern must match it.
func NewTable(name string, arity int, patterns []access.Pattern, rows []Tuple) (*Table, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("sources: table %s declared with no access pattern", name)
	}
	for _, p := range patterns {
		if p.Arity() != arity {
			return nil, fmt.Errorf("sources: table %s has arity %d but pattern %s has arity %d", name, arity, p, p.Arity())
		}
	}
	t := &Table{name: name, arity: arity, patterns: append([]access.Pattern(nil), patterns...)}
	seen := map[string]bool{}
	for _, r := range rows {
		if len(r) != arity {
			return nil, fmt.Errorf("sources: table %s tuple %v has %d values, want %d", name, r, len(r), arity)
		}
		k := r.Key()
		if seen[k] {
			continue // set semantics
		}
		seen[k] = true
		row := make(Tuple, len(r)) // exact capacity: see Call
		copy(row, r)
		t.rows = append(t.rows, row)
	}
	t.buildIndexes()
	return t, nil
}

// MustTable is NewTable that panics on error; for tests and fixtures.
func MustTable(name string, arity int, patterns []access.Pattern, rows []Tuple) *Table {
	t, err := NewTable(name, arity, patterns, rows)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Table) buildIndexes() {
	t.index = map[access.Pattern]map[string][][]Tuple{}
	for _, p := range t.patterns {
		groups := map[string][]Tuple{}
		for _, r := range t.rows {
			k := inputKey(p, r)
			groups[k] = append(groups[k], r)
		}
		idx := make(map[string][][]Tuple, len(groups))
		for k, rows := range groups {
			idx[k] = [][]Tuple{rows[:len(rows):len(rows)]}
		}
		t.index[p] = idx
	}
}

// noRows is the answer of one input vector no stored tuple matches.
var noRows = [][]Tuple{nil}

// inputKey extracts the input-slot values of row r under pattern p.
func inputKey(p access.Pattern, r Tuple) string {
	var parts []string
	for j := 0; j < p.Arity(); j++ {
		if p.Input(j) {
			parts = append(parts, r[j])
		}
	}
	return Key(parts)
}

// Name implements Source.
func (t *Table) Name() string { return t.name }

// Arity implements Source.
func (t *Table) Arity() int { return t.arity }

// Patterns implements Source.
func (t *Table) Patterns() []access.Pattern {
	return append([]access.Pattern(nil), t.patterns...)
}

// Batches implements Source: a table answers from memory, there is no
// round trip to save.
func (t *Table) Batches() bool { return false }

// Call implements Source, enforcing the access-pattern contract. The
// table answers from memory, so the context is only checked before the
// lookups. Each input vector is metered (and reported to OnCall) as one
// logical call. A group is the index's own slice and its tuples are
// the stored rows, each capped to its length so that a caller's append
// reallocates instead of writing into the table. A group of one input
// vector is answered without allocating: the result is the index's own
// one-group slice, capped too, shared by every call with that input.
// No wrapper in this package or in the adapters writes into the slice
// an inner source returns.
func (t *Table) Call(ctx context.Context, p access.Pattern, inputs [][]string) ([][]Tuple, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := CheckGroup(t.name, t.patterns, p, inputs); err != nil {
		return nil, err
	}
	idx := t.index[p]
	var out [][]Tuple
	if len(inputs) != 1 {
		out = make([][]Tuple, len(inputs))
	}
	for i, in := range inputs {
		t.mu.Lock()
		t.stats.Calls++
		one, ok := idx[Key(in)]
		if !ok {
			one = noRows
		}
		t.stats.TuplesReturned += len(one[0])
		hook := t.OnCall
		t.mu.Unlock()
		if hook != nil {
			hook(p, in)
		}
		if out == nil {
			return one, nil
		}
		out[i] = one[0]
	}
	return out, nil
}

// StatsSnapshot returns a snapshot of the source's traffic counters.
func (t *Table) StatsSnapshot() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// ResetStats zeroes the traffic counters.
func (t *Table) ResetStats() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats = Stats{}
}

// Rows returns a copy of all tuples (for ground-truth evaluation in
// tests; real limited sources would not expose this).
func (t *Table) Rows() []Tuple {
	out := make([]Tuple, len(t.rows))
	for i, r := range t.rows {
		out[i] = append(Tuple(nil), r...)
	}
	return out
}

// Catalog is a set of sources addressable by relation name.
//
// The catalog carries a generation counter for answer-level caches
// (internal/qcache): Invalidate bumps it, and ResetStats bumps it too,
// since callers reset stats exactly when they are about to re-measure —
// typically after changing the underlying data or wrappers. Cached
// answers keyed to an older generation are never reused.
//
// It also carries a process-unique identity (ID): caches must never key
// a catalog by its pointer, because the garbage collector recycles
// addresses — a new catalog allocated where a dead one lived would
// silently inherit the dead one's cached answers. IDs are handed out
// from a monotonic counter and are never reused within a process.
type Catalog struct {
	byName map[string]Source
	gen    atomic.Int64
	id     atomic.Int64
	pid    atomic.Pointer[string]
	held   atomic.Pointer[heldSlot]
}

// heldSlot is the value Held hands out for one generation.
type heldSlot struct {
	gen int64
	v   any
}

// catalogIDs hands out process-unique catalog identities; 0 is reserved
// for "not yet assigned".
var catalogIDs atomic.Int64

// NewCatalog builds a catalog from sources; duplicate names are an error.
func NewCatalog(srcs ...Source) (*Catalog, error) {
	c := &Catalog{byName: map[string]Source{}}
	for _, s := range srcs {
		if _, dup := c.byName[s.Name()]; dup {
			return nil, fmt.Errorf("sources: duplicate source %s", s.Name())
		}
		c.byName[s.Name()] = s
	}
	return c, nil
}

// MustCatalog is NewCatalog that panics on error.
func MustCatalog(srcs ...Source) *Catalog {
	c, err := NewCatalog(srcs...)
	if err != nil {
		panic(err)
	}
	return c
}

// Source returns the source for the relation, or nil.
func (c *Catalog) Source(name string) Source { return c.byName[name] }

// Names returns the catalog's relation names, sorted.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.byName))
	for n := range c.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PatternSet derives the access.Set the catalog's sources declare.
func (c *Catalog) PatternSet() *access.Set {
	set := access.NewSet()
	for _, s := range c.byName {
		for _, p := range s.Patterns() {
			// Arities are validated by the sources themselves.
			_ = set.Add(s.Name(), p)
		}
	}
	return set
}

// TotalStats sums the traffic of every metering source in the catalog.
// Wrappers such as Cached and Flaky forward their inner source's
// counters, so a wrapped catalog reports the real remote traffic.
func (c *Catalog) TotalStats() Stats {
	var total Stats
	for _, s := range c.byName {
		if r, ok := s.(StatsReporter); ok {
			total.Add(r.StatsSnapshot())
		}
	}
	return total
}

// ResetStats zeroes the traffic of every metering source in the catalog
// and invalidates answer-level caches keyed to this catalog.
func (c *Catalog) ResetStats() {
	c.Invalidate()
	for _, s := range c.byName {
		if r, ok := s.(StatsReporter); ok {
			r.ResetStats()
		}
	}
}

// ID returns the catalog's process-unique identity, assigning it on
// first use. Unlike the catalog's address it is monotonic and never
// recycled, so two catalogs alive at different times can never share an
// ID — the property answer caches key on. The zero Catalog value gets
// an ID lazily; IDs are safe to request concurrently.
func (c *Catalog) ID() int64 {
	if id := c.id.Load(); id != 0 {
		return id
	}
	next := catalogIDs.Add(1)
	if c.id.CompareAndSwap(0, next) {
		return next
	}
	return c.id.Load()
}

// Generation returns the catalog's invalidation generation.
func (c *Catalog) Generation() int64 { return c.gen.Load() }

// Invalidate bumps the catalog's generation: answers cached against an
// earlier generation will not be reused. Call it after mutating the
// data behind any of the catalog's sources.
func (c *Catalog) Invalidate() { c.gen.Add(1) }

// Held returns the value the catalog holds for its current generation,
// calling mk to build it on first use, again after every generation
// bump (Invalidate, ResetStats, AdvanceGeneration), and in place of a
// value that full reports; concurrent callers may each run mk, and one
// result wins. The engine keeps its state there — the value interner
// and the held answers, the interned join columns of large source
// answers keyed by group identity — so it lives no longer than the
// catalog and its generation.
func (c *Catalog) Held(mk func() any, full func(any) bool) any {
	gen := c.gen.Load()
	cur := c.held.Load()
	if cur != nil && cur.gen == gen && !full(cur.v) {
		return cur.v
	}
	next := &heldSlot{gen: gen, v: mk()}
	if c.held.CompareAndSwap(cur, next) {
		return next.v
	}
	return c.held.Load().v
}

// SetPersistentID labels the catalog with a stable, operator-chosen
// identity (e.g. the tenant name) that — unlike ID(), which is
// process-local — survives restarts. A persistent answer cache keys its
// on-disk state by this label; catalogs without one are never
// persisted. The label must be unique per logical dataset: two catalogs
// sharing a label are treated as the same data across restarts.
func (c *Catalog) SetPersistentID(label string) { c.pid.Store(&label) }

// PersistentID returns the label set by SetPersistentID ("" if none).
func (c *Catalog) PersistentID() string {
	if p := c.pid.Load(); p != nil {
		return *p
	}
	return ""
}

// AdvanceGeneration raises the catalog's generation to at least gen
// (no-op when already past it). A persistent cache calls it during warm
// restore to sync the live catalog past the generation its on-disk
// entries were stored under, so recovered and freshly computed answers
// share one fingerprint.
func (c *Catalog) AdvanceGeneration(gen int64) {
	for {
		cur := c.gen.Load()
		if cur >= gen || c.gen.CompareAndSwap(cur, gen) {
			return
		}
	}
}
