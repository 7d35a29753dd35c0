package engine

// Held answers: the interned join columns of a large source answer,
// built once per catalog generation and shared by every execution that
// receives the same answer.
//
// A source's answer is read-only for good (sources.Source.Call): a group
// once handed out is never written again, by anyone, and Table.Call and
// Cached hand the same group to every caller. So a returned group's
// identity — its first tuple's address and its length — stands for its
// contents, and the IDs of its values at one atom position (a column)
// are the same for every step that reads it. buildJoin looks the group
// up here and interns each column it needs once, lazily, under the
// table's lock; the constant and repeat filters and the grouping by
// probe key depend on the step, so they stay per call.
//
// What keeps identity sound and the table small:
//   - an entry's key points into its rows and so keeps them alive: their
//     address cannot be reused by another answer while the entry exists;
//   - a column that would hold a spill ID (SetInternerCap) is never held,
//     since spill IDs are local to one execution; and an execution that
//     has spilled reads no held column, whose global IDs could disagree
//     with the spill IDs it gave the same values;
//   - answers shorter than heldMinRows are not held, so the one-row
//     answers an adapter builds afresh for every call never reach the
//     table;
//   - the table holds at most heldMaxCells IDs and starts over when a new
//     answer would overflow it;
//   - it lives on the catalog (sources.Catalog.Held): it dies with the
//     catalog and is rebuilt after every generation bump.

import (
	"sync"

	"repro/internal/sources"
)

const (
	// heldMinRows is the shortest answer that is held. A held build beats
	// a private one at every size once the entry exists
	// (BenchmarkBuildJoin on a 2-vCPU x86-64 VM: 1.1–1.6× at one row,
	// 2.2–3.1× at 32, 2.9–5.4× at 4 000), but an entry is a map slot,
	// its IDs and its rows kept alive. At one row the saving is under
	// 0.1 µs a reuse and short answers are what adapters return afresh on
	// every call (remote_batch makes 512 a request), so they would only
	// churn the table; from 32 rows on a reuse saves ≥ 0.7 µs.
	heldMinRows = 32
	// heldMaxCells bounds the IDs one catalog's table holds (1 MB of
	// uint32s; E25's R, 4 000 × 7, is 28 000).
	heldMaxCells = 1 << 18
)

// heldKey is a returned group's identity.
type heldKey struct {
	first *sources.Tuple
	n     int
}

// Column states of a held answer.
const (
	colUnbuilt uint8 = iota
	colHeld
	colRefused // a value of the column would have spilled
)

// heldAnswer is one held group: arity × n IDs, column-major, of which
// only the columns in state colHeld are filled.
type heldAnswer struct {
	vals  []uint32
	state []uint8 // per atom position
}

// heldTable is one catalog generation's held answers.
type heldTable struct {
	mu      sync.Mutex
	answers map[heldKey]*heldAnswer
	cells   int // len(vals) summed over answers
	built   int // columns interned so far (tests check a reuse interns none)
}

func newHeldTable() *heldTable { return &heldTable{answers: map[heldKey]*heldAnswer{}} }

// heldOf returns cat's held table for its current generation.
func heldOf(cat *sources.Catalog) *heldTable {
	return cat.Held(func() any { return newHeldTable() }).(*heldTable)
}

// columns returns the held column-major IDs of rows with every position
// args needs interned, or nil when the answer is not held: it is too
// large for the table, or a needed column would hold a spill ID. The
// result is shared and read-only; a column, once filled, never changes.
func (h *heldTable) columns(rows []sources.Tuple, args []stepArg, pool *colPool) []uint32 {
	n, arity := len(rows), len(args)
	h.mu.Lock()
	defer h.mu.Unlock()
	key := heldKey{&rows[0], n}
	a := h.answers[key]
	if a == nil {
		cells := arity * n
		if cells > heldMaxCells {
			return nil
		}
		if h.cells+cells > heldMaxCells {
			h.answers, h.cells = map[heldKey]*heldAnswer{}, 0
		}
		a = &heldAnswer{vals: make([]uint32, cells), state: make([]uint8, arity)}
		h.answers[key] = a
		h.cells += cells
	}
	for p := range args {
		if !args[p].need || a.state[p] == colHeld {
			continue
		}
		if a.state[p] == colRefused || !a.intern(p, rows, pool) {
			return nil
		}
		h.built++
	}
	return a.vals
}

// intern fills column p through the capped global interner; a value the
// cap refuses marks the column refused for good.
func (a *heldAnswer) intern(p int, rows []sources.Tuple, pool *colPool) bool {
	col := a.vals[p*len(rows) : (p+1)*len(rows)]
	for ti, t := range rows {
		id, fresh, ok := interned.tryID(t[p])
		if !ok {
			a.state[p] = colRefused
			return false
		}
		if fresh {
			pool.nInterned.Add(1)
		}
		col[ti] = id
	}
	a.state[p] = colHeld
	return true
}
