package engine

// Value interning for columnar evaluation. Every constant that flows
// through a plan — source tuple values, call inputs, compile constants —
// maps to a dense uint32 ID, so binding batches hold machine words
// instead of string headers and join keys compare in one instruction.
//
// An interner belongs to one catalog: it is half of the catalog's engine
// state (engineState), whose other half is the held answers (held.go)
// whose columns hold its IDs. The values a plan compares all come from
// one catalog's sources, and they recur across that catalog's queries
// (that is what makes the semantic caches pay off), so the interner is
// append-only while it lives and a steady workload interns almost
// nothing. It lives as long as the held table does: a generation bump
// starts a fresh state, and so does an interner past internLimit bytes,
// at the next execution. An execution pins the state it started in
// (newExecution), so the IDs of two interners never meet, and a state
// is freed when its catalog has moved on and its last execution ends; a
// dropped catalog takes its values with it. Two catalogs holding
// "paris" give it an ID each.

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/sources"
)

// Reverse-table chunking: IDs index fixed-size chunks, so growing the
// table never moves published strings and str() is two loads.
const (
	internChunkShift = 10
	internChunkSize  = 1 << internChunkShift
	internChunkMask  = internChunkSize - 1
)

// maxInternBytes bounds one catalog state's interner (approximate
// resident bytes, internEntryOverhead per value included): about 200 000
// short values. Past it, the next execution over the catalog starts a
// fresh state. No bench/ workload and no paperbench experiment comes
// near it: the largest state any of them builds, cold_plan's, stays
// under 1 MB.
const maxInternBytes = 16 << 20

// internLimit is the bound a state is checked against: maxInternBytes,
// which tests lower.
var internLimit int64 = maxInternBytes

// valueInterner maps strings to dense uint32 IDs and back. id() is
// lock-free for already-interned values (the hot path: a steady-state
// workload interns almost nothing); misses take a mutex to append.
// str() is always lock-free.
type valueInterner struct {
	ids sync.Map // string -> uint32

	mu     sync.Mutex   // guards appends: n, and chunk writes
	n      uint32       // next ID to assign
	bytes  atomic.Int64 // approximate resident bytes, written under mu
	chunks atomic.Pointer[[][]string]
}

// internEntryOverhead approximates the per-entry cost beyond the value
// bytes themselves: the sync.Map entry, the reverse-table slot, and two
// string headers.
const internEntryOverhead = 64

func newValueInterner() *valueInterner {
	in := &valueInterner{}
	chunks := make([][]string, 0, 8)
	in.chunks.Store(&chunks)
	return in
}

// id returns the ID for s, assigning a fresh one on first sight, and
// reports whether the value was new. Any byte string round-trips,
// including "" and non-UTF-8 data: the interner stores values verbatim.
func (in *valueInterner) id(s string) (uint32, bool) {
	if v, ok := in.ids.Load(s); ok {
		return v.(uint32), false
	}
	return in.add(s)
}

// add is id's slow path: it assigns s an ID under the lock unless a
// racing caller has just done so.
func (in *valueInterner) add(s string) (uint32, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if v, ok := in.ids.Load(s); ok {
		return v.(uint32), false
	}
	id := in.n
	if id == math.MaxUint32 {
		panic("engine: value interner overflow: 2^32-1 distinct values")
	}
	chunks := *in.chunks.Load()
	if ci := int(id >> internChunkShift); ci == len(chunks) {
		grown := make([][]string, ci+1)
		copy(grown, chunks)
		grown[ci] = make([]string, internChunkSize)
		in.chunks.Store(&grown)
		chunks = grown
	}
	chunks[id>>internChunkShift][id&internChunkMask] = s
	in.n = id + 1
	in.bytes.Add(int64(len(s)) + internEntryOverhead)
	// Publish last: a reader can only learn this ID through the map (or
	// through data derived after this Store), so the chunk write above
	// happens-before every str(id).
	in.ids.Store(s, id)
	return id, true
}

// str returns the string for an ID previously assigned by id. IDs are
// never recycled, so the result is valid for the interner's lifetime.
func (in *valueInterner) str(id uint32) string {
	return (*in.chunks.Load())[id>>internChunkShift][id&internChunkMask]
}

// occupancy returns the number of interned values and their approximate
// resident bytes.
func (in *valueInterner) occupancy() (entries int, bytes int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return int(in.n), in.bytes.Load()
}

// full reports whether the interner is past its bound, so that the next
// execution over its catalog starts a fresh state.
func (in *valueInterner) full() bool { return in.bytes.Load() >= internLimit }

// engineState is what the engine keeps on a catalog (Catalog.Held): the
// interner of one generation and the held answers built over its IDs.
// serial names the state for as long as the process runs, without
// keeping it alive: a plan's prepared programs (Prepared) record the
// serial of the state whose IDs they hold.
type engineState struct {
	ids    *valueInterner
	held   *heldTable
	serial uint64
}

// stateSerials hands out engine state serials; 0 is no state.
var stateSerials atomic.Uint64

func newEngineState() *engineState {
	return &engineState{ids: newValueInterner(), held: newHeldTable(), serial: stateSerials.Add(1)}
}

// pinState returns the engine state an execution over cat pins: the
// catalog's state for its current generation, or a fresh one installed
// in its place when its interner is full.
func pinState(cat *sources.Catalog) *engineState {
	return cat.Held(func() any { return newEngineState() }, func(v any) bool { return v.(*engineState).ids.full() }).(*engineState)
}

// stateOf returns cat's engine state for its current generation, full
// or not.
func stateOf(cat *sources.Catalog) *engineState {
	return cat.Held(func() any { return newEngineState() }, func(any) bool { return false }).(*engineState)
}

// InternerOccupancy reports the entry count and approximate resident
// bytes of cat's current interner: the values its executions have given
// IDs since the catalog's last generation bump or rollover.
func InternerOccupancy(cat *sources.Catalog) (entries int, bytes int64) {
	return stateOf(cat).ids.occupancy()
}
