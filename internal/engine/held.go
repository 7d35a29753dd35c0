package engine

// Held answers: the interned columns and the finished join sides of a
// large source answer, built once per catalog state and shared by every
// execution that pins the state and receives the same answer.
//
// A source's answer is read-only for good (sources.Source.Call): a group
// once handed out is never written again, by anyone, and Table.Call and
// Cached hand the same group to every caller. So a returned group's
// identity — its first tuple's address and its length — stands for its
// contents, and the IDs of its values at one atom position (a column)
// are the same for every step that reads it. joinCalls looks the group
// up here. Each column a step needs is interned once, lazily, under the
// table's lock. The join side — filtered by the step's constants and
// repeats, grouped by its probe key, and for a dedup step cut to the
// first tuple of each carried projection — depends on the step only
// through its shape (appendShape), so it is built once per shape
// that reads the answer, outside the lock, and the first one published
// is the one every later call of that shape reads.
//
// What keeps identity sound and the table small:
//   - an entry's key points into its rows and so keeps them alive: their
//     address cannot be reused by another answer while the entry exists;
//   - the table and the interner whose IDs it holds are one engineState
//     (intern.go), pinned by an execution as a whole: a held column or
//     join is only ever read by executions that give the same values the
//     same IDs;
//   - answers shorter than heldMinRows are not held, so the one-row
//     answers an adapter builds afresh for every call never reach the
//     table: they go into their batch's one join, built per batch;
//   - a held group an adapter returned as a window of one statement's
//     row array (adapter.SQL) keeps that whole array alive with it;
//   - the table holds at most heldMaxCells IDs and join words: it starts
//     over when a new answer would overflow it, and a join that would is
//     used by its call but not held;
//   - it lives on the catalog (sources.Catalog.Held): it dies with the
//     catalog, and a fresh one comes with every generation bump and
//     interner rollover.

import (
	"slices"
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
	// churn the table; from 32 rows on a reuse saves ≥ 0.7 µs. A shorter
	// answer is not joined alone either: the short answers of a batch's
	// new calls share one join, whose set-up is paid once per batch.
	// The build sizes above are per call, before that sharing.
	heldMinRows = 32
	// heldMaxCells bounds the 32-bit words one catalog's table holds
	// (1 MB; E25's R, 4 000 × 7 IDs, is 28 000, and its one join 23).
	heldMaxCells = 1 << 18
)

// heldKey is a returned group's identity.
type heldKey struct {
	first *sources.Tuple
	n     int
}

// heldAnswer is one held group: arity × n IDs, column-major, of which
// only the filled columns hold IDs, and the joins built over them, one
// per step shape.
type heldAnswer struct {
	vals   []uint32
	filled []bool // per atom position
	joins  []heldJoin
}

// heldJoin is a finished join side and the shape it was built for.
type heldJoin struct {
	shape []uint32
	join  *callJoin
}

// cells is a join side's size in 32-bit words beyond its vals, what a
// held join counts against heldMaxCells.
func (j *callJoin) cells() int {
	return cap(j.keys.keys) + cap(j.keys.slots) + cap(j.start) + cap(j.idx)
}

// joinFor returns a's join for shape, or nil.
func (a *heldAnswer) joinFor(shape []uint32) *callJoin {
	for _, hj := range a.joins {
		if slices.Equal(hj.shape, shape) {
			return hj.join
		}
	}
	return nil
}

// heldTable is one catalog state's held answers.
type heldTable struct {
	mu      sync.Mutex
	answers map[heldKey]*heldAnswer
	cells   int // IDs and join words held (callJoin.cells)
	built   int // columns interned so far (tests check a reuse interns none)
	joined  int // joins built so far (tests check a reuse builds none)
}

func newHeldTable() *heldTable { return &heldTable{answers: map[heldKey]*heldAnswer{}} }

// appendShape appends sp's shape to dst: what its held join's groups
// depend on besides the answer, so that two steps of one shape share a
// join. Per atom position it is the role and the constant's ID or the
// repeated position (the roles give boundPos), then dedup, and for a
// dedup step the positions of newCols. A carry step's newCols are left
// out: its emit reads them from the answer's shared vals.
func (sp *stepProgram) appendShape(dst []uint32) []uint32 {
	for _, a := range sp.args {
		var operand uint32
		switch a.role {
		case argConst:
			operand = a.constID
		case argRepeat:
			operand = uint32(a.firstPos)
		}
		dst = append(dst, uint32(a.role), operand)
	}
	if !sp.dedup {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	for _, nc := range sp.newCols {
		dst = append(dst, uint32(nc.pos))
	}
	return dst
}

// join returns the held join side of rows for sp's shape, building it on
// first use, or nil when the answer is not held (columns). The build runs
// outside the lock; of two racing builds the first published wins. The
// result is shared and read-only.
func (h *heldTable) join(rows []sources.Tuple, sp *stepProgram, pool *colPool, key []uint32) *callJoin {
	var buf [32]uint32 // a shape of up to 32 words (any arity ≤ 10) stays on the stack
	shape := sp.appendShape(buf[:0])
	hk := heldKey{&rows[0], len(rows)}
	h.mu.Lock()
	a := h.columns(hk, rows, sp.args, pool)
	var j *callJoin
	if a != nil {
		j = a.joinFor(shape)
	}
	h.mu.Unlock()
	if a == nil || j != nil {
		return j
	}
	j = sp.groupJoin(&callJoin{vals: a.vals}, [][]sources.Tuple{rows}, pool, key, true)

	h.mu.Lock()
	defer h.mu.Unlock()
	h.joined++
	if won := a.joinFor(shape); won != nil {
		return won
	}
	// The table started over meanwhile, or the join would overflow it:
	// this call uses it, and the next one of its shape builds it again.
	cells := j.cells()
	if h.answers[hk] != a || h.cells+cells > heldMaxCells {
		return j
	}
	a.joins = append(a.joins, heldJoin{slices.Clone(shape), j})
	h.cells += cells
	return j
}

// columns returns the entry of rows with every position args needs
// interned through pool, or nil when the answer is too large for the
// table. A column, once filled, never changes. h.mu is held.
func (h *heldTable) columns(hk heldKey, rows []sources.Tuple, args []stepArg, pool *colPool) *heldAnswer {
	a := h.answers[hk]
	if a == nil {
		cells := len(args) * len(rows)
		if cells > heldMaxCells {
			return nil
		}
		if h.cells+cells > heldMaxCells {
			h.answers, h.cells = map[heldKey]*heldAnswer{}, 0
		}
		a = &heldAnswer{vals: make([]uint32, cells), filled: make([]bool, len(args))}
		h.answers[hk] = a
		h.cells += cells
	}
	for p := range args {
		if !args[p].need || a.filled[p] {
			continue
		}
		col := a.vals[p*len(rows) : (p+1)*len(rows)]
		for ti, t := range rows {
			col[ti] = pool.intern(t[p])
		}
		a.filled[p] = true
		h.built++
	}
	return a
}
