package engine

// Columnar batch evaluation: the hot loop of every execution.
//
// Each rule of a plan is compiled into a slot program — every variable
// gets a dense column slot, every atom position a static role — once
// per execution, or, for a cached plan, once per engine state (Prepared
// in eval.go: the program's constants are that state's IDs) — and
// bindings flow between steps as colBatch values: slot-indexed vectors
// of interned uint32 value IDs (see intern.go), all from the one
// interner the execution pinned. One step is then a hash
// join: each distinct source call's tuples are interned, filtered by
// the static constant and repeated-variable constraints once, and
// grouped by their bound-position key, and each input row probes by its
// own bound-slot key, emitting one output row per matching tuple. The
// short answers of one batch's new calls share one such join, built
// once per batch: there a key starts with the call's ordinal, which
// keeps each call's tuples to its own rows. A long answer's
// join side is built once per catalog state and step shape instead: its
// columns and finished joins are held beside the interner under the
// returned group's identity and shared by every execution that pins the
// state and receives the same group (held.go).
// Column buffers are recycled through a per-execution colPool. Strings
// materialize only at the edges: call inputs handed to internal/sources
// and head rows handed to the sink, a batch's new rows cut from one slab
// of values (headSet.rows) that the sink then owns.
//
// A step carries on only what something later reads. compileRule ends
// with a backward liveness pass (projectLive): a slot is live after a
// step iff a later literal — as a call input or a probe position — or
// the head reads it. A step's output has columns for its live slots
// only, and of a returned tuple only the positions the step compares or
// carries are ever interned, so a column nobody reads neither rides
// along nor grows the catalog's interner. Under set semantics a
// binding is its live slots: a non-final step that drops one (it is the
// last reader of a slot, or binds a variable nothing reads) sends each
// distinct remaining binding downstream once, the first time it arises.
// Everything downstream is a function of the live slots, so a repeat
// could only re-derive, later, head rows its first occurrence already
// derives: the rule's rows, the order they first appear in and the
// distinct source calls are unchanged. A step that drops nothing needs
// no such set (distinct inputs and a set-valued source give distinct
// outputs), and the last step has the head's distinct set behind it.
//
// Every keyed structure here — a step's call memo, a call's join groups,
// a dropping step's seen set, the head's distinct rows — is one idTable
// (idtable.go) over fixed-width tuples of IDs; no key is built as a
// string. Past the sink neither: the answer relation's membership is a
// value hash (Rel) and its canonical sort compares values (compareRows).
//
// The reference semantics is the per-binding map evaluator kept as the
// in-package test oracle (oracle_test.go), which carries every variable
// and every repeat: same source calls, same output rows in the same
// order (input-row order × tuple order, first occurrences kept), the
// oracle's bindings projected onto the live variables at every step,
// and the same lazily raised planning errors.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/logic"
	"repro/internal/sources"
)

// colBatch is one batch of bindings in columnar form: n rows over
// slot-indexed columns of interned value IDs. Only slots bound at this
// point of the plan have columns; the rest are nil.
type colBatch struct {
	n    int
	cols [][]uint32
}

// colPool recycles column buffers and batch headers within one
// execution. Batches die at every pipeline stage (the output batch
// never aliases the input), so without reuse the hot loop would churn
// one column allocation per slot per batch. The pool is shared by all
// rules and stages of an execution and is safe for concurrent use; it
// also carries the engine state the execution pinned — every value it
// compares resolves through ids — and its batch accounting
// (Profile.Batch).
type colPool struct {
	ids  *valueInterner
	held *heldTable

	mu          sync.Mutex
	freeCols    [][]uint32
	freeBatches []*colBatch

	nBatches  atomic.Int64 // batches run through applyStepCol
	nInterned atomic.Int64 // tuple values newly interned this execution
	nReuses   atomic.Int64 // column buffers served from the free list
	nHeld     atomic.Int64 // calls whose join side came from the held table
}

func newColPool(st *engineState) *colPool { return &colPool{ids: st.ids, held: st.held} }

// intern returns the ID of a returned tuple's value, counting it when it
// is new to the interner (Profile.Batch.InternedValues).
func (p *colPool) intern(s string) uint32 {
	id, fresh := p.ids.id(s)
	if fresh {
		p.nInterned.Add(1)
	}
	return id
}

// getCol returns a column of length n, reusing a free buffer when one
// is large enough.
func (p *colPool) getCol(n int) []uint32 {
	p.mu.Lock()
	for i := len(p.freeCols) - 1; i >= 0; i-- {
		if cap(p.freeCols[i]) >= n {
			buf := p.freeCols[i]
			last := len(p.freeCols) - 1
			p.freeCols[i] = p.freeCols[last]
			p.freeCols = p.freeCols[:last]
			p.mu.Unlock()
			p.nReuses.Add(1)
			return buf[:n]
		}
	}
	p.mu.Unlock()
	return make([]uint32, n)
}

// getBatch returns an empty batch with a cols slice of numSlots nil
// columns.
func (p *colPool) getBatch(numSlots int) *colBatch {
	p.mu.Lock()
	var b *colBatch
	if n := len(p.freeBatches); n > 0 {
		b = p.freeBatches[n-1]
		p.freeBatches = p.freeBatches[:n-1]
	}
	p.mu.Unlock()
	if b == nil {
		b = &colBatch{}
	}
	b.n = 0
	if cap(b.cols) < numSlots {
		b.cols = make([][]uint32, numSlots)
	} else {
		b.cols = b.cols[:numSlots]
		for i := range b.cols {
			b.cols[i] = nil
		}
	}
	return b
}

// put releases a batch: its columns return to the free list and the
// header is recycled. The caller must not touch b afterwards.
func (p *colPool) put(b *colBatch) {
	if b == nil {
		return
	}
	p.mu.Lock()
	for i, c := range b.cols {
		if cap(c) > 0 {
			p.freeCols = append(p.freeCols, c[:0])
		}
		b.cols[i] = nil
	}
	b.n = 0
	p.freeBatches = append(p.freeBatches, b)
	p.mu.Unlock()
}

// batchProfile snapshots the pool's counters into a Profile section.
func (p *colPool) batchProfile() BatchProfile {
	b := BatchProfile{
		BatchesProcessed: int(p.nBatches.Load()),
		InternedValues:   int(p.nInterned.Load()),
		ArenaReuses:      int(p.nReuses.Load()),
		HeldAnswers:      int(p.nHeld.Load()),
	}
	b.InternerEntries, b.InternerBytes = p.ids.occupancy()
	return b
}

// argRole classifies one atom position of a compiled step.
type argRole uint8

const (
	// argConst: constant in the atom; a tuple survives iff its value at
	// this position equals constID.
	argConst argRole = iota
	// argFirst: a variable's first occurrence, bound by this atom; the
	// tuple value flows into the variable's slot (positive steps).
	argFirst
	// argRepeat: a later occurrence of an argFirst variable within the
	// same atom; the tuple must agree with itself at firstPos.
	argRepeat
	// argBound: a variable bound by an earlier step; a probe position of
	// the hash join.
	argBound
	// argNull: a null term in a body atom; it never matches stored data
	// (the oracle's tupleMatches returns nil unconditionally).
	argNull
)

// stepArg is the compiled role of one atom position.
type stepArg struct {
	role     argRole
	constID  uint32 // argConst
	slot     int    // argFirst: slot written; argBound: slot probed
	firstPos int    // argRepeat: position of the variable's first occurrence
	// need says groupJoin reads the tuple's value here: to compare it
	// (constants, repeats and the first occurrence they repeat, probe
	// positions) or to carry it (a fresh variable something later reads).
	// Every other position is never interned.
	need bool
}

// inputSrc says where one call-input value comes from: a bound slot's
// column (slot ≥ 0) or a compile-time constant.
type inputSrc struct {
	slot    int // -1 for constants
	constID uint32
}

// newCol is a column a positive step adds: the variable's slot filled
// from the matching tuple's position.
type newCol struct {
	slot, pos int
}

// stepProgram is one compiled plan step.
type stepProgram struct {
	step       access.AdornedLiteral
	args       []stepArg
	inputs     []inputSrc
	boundPos   []int // atom positions with role argBound, in order
	probeSlots []int // the slot probed for each boundPos entry
	// copySlots and newCols are the step's output columns: the slots
	// bound before it and the fresh variables it binds that a later
	// literal or the head reads — the live ones; the rest stop here.
	copySlots []int
	newCols   []newCol
	// dedup says the step drops a slot — one it was handed, or a fresh
	// variable it binds — so two of its output rows can agree on every
	// slot that remains, and it keeps the first of each (stepState.seen).
	// Never set on the last step: the head's own distinct set follows.
	dedup bool
	// never says the atom has a null term: no stored tuple matches it.
	never bool
	// err is the step's lazy compile error (unbound or null call input),
	// raised — like the oracle's per-binding callInputs error — only
	// when rows actually reach the step.
	err error
}

// headArg kinds.
const (
	headConst = iota
	headNull
	headSlot
)

// headArg is one compiled head position.
type headArg struct {
	kind int
	val  Value // headConst
	slot int   // headSlot
}

// ruleProgram is one rule's compiled columnar plan.
type ruleProgram struct {
	rule     logic.CQ
	numSlots int
	steps    []stepProgram
	head     []headArg
	// headSlots are the slots of the headSlot args, in head order: the
	// ID-space identity of a head row within this rule (const and null
	// positions are fixed per rule, so they carry no information).
	headSlots []int
	// headErr is the unsafe-plan error (head variable never bound),
	// raised only when bindings reach the head, as in the oracle.
	headErr error
}

// compileRule translates an adorned plan into a slot program. It never
// fails: structural problems (unbound inputs, unsafe heads) become lazy
// errors raised exactly where the per-binding evaluator would raise
// them. Compilation is cheap (linear in the plan): it runs once per
// rule per execution, or once per engine state for a plan whose
// executions keep its programs (Opts.Prepared). Constants intern through
// the interner of the state the compiling execution pinned, so the
// program is valid only under that state. It is read-only afterwards.
func compileRule(q logic.CQ, steps []access.AdornedLiteral, pool *colPool) *ruleProgram {
	prog := &ruleProgram{rule: q, steps: make([]stepProgram, len(steps))}
	slotOf := map[string]int{}
	var bound []bool // indexed by slot
	slot := func(name string) int {
		if s, ok := slotOf[name]; ok {
			return s
		}
		s := prog.numSlots
		prog.numSlots++
		slotOf[name] = s
		bound = append(bound, false)
		return s
	}
	for si, st := range steps {
		sp := &prog.steps[si]
		sp.step = st
		atom := st.Literal.Atom
		for j, t := range atom.Args {
			if !st.Pattern.Input(j) {
				continue
			}
			switch {
			case t.IsConst():
				id, _ := pool.ids.id(t.Name)
				sp.inputs = append(sp.inputs, inputSrc{slot: -1, constID: id})
			case t.IsVar():
				if s, ok := slotOf[t.Name]; ok && bound[s] {
					sp.inputs = append(sp.inputs, inputSrc{slot: s})
				} else if sp.err == nil {
					sp.err = fmt.Errorf("engine: input slot %d of %s needs unbound variable %s", j+1, st, t.Name)
				}
			default:
				if sp.err == nil {
					sp.err = fmt.Errorf("engine: null cannot be used as a call input in %s", st)
				}
			}
		}
		sp.args = make([]stepArg, len(atom.Args))
		firstAt := map[string]int{}
		for j, t := range atom.Args {
			a := &sp.args[j]
			switch {
			case t.IsConst():
				a.role = argConst
				a.constID, _ = pool.ids.id(t.Name)
			case t.IsVar():
				if s, ok := slotOf[t.Name]; ok && bound[s] {
					a.role = argBound
					a.slot = s
					sp.boundPos = append(sp.boundPos, j)
					sp.probeSlots = append(sp.probeSlots, s)
					continue
				}
				if p, ok := firstAt[t.Name]; ok {
					a.role = argRepeat
					a.firstPos = p
					continue
				}
				a.role = argFirst
				a.slot = slot(t.Name)
				firstAt[t.Name] = j
			default:
				a.role = argNull
				sp.never = true
			}
		}
		for s := 0; s < len(bound); s++ {
			if bound[s] {
				sp.copySlots = append(sp.copySlots, s)
			}
		}
		// A positive step binds its fresh variables for downstream steps;
		// a negated step is a pure filter (the oracle discards the
		// extended binding and keeps the original).
		if !st.Literal.Negated {
			for j := range sp.args {
				if sp.args[j].role == argFirst {
					sp.newCols = append(sp.newCols, newCol{slot: sp.args[j].slot, pos: j})
					bound[sp.args[j].slot] = true
				}
			}
		}
	}
	prog.head = make([]headArg, len(q.HeadArgs))
	for i, t := range q.HeadArgs {
		h := &prog.head[i]
		switch {
		case t.IsNull():
			h.kind = headNull
		case t.IsConst():
			h.kind = headConst
			h.val = V(t.Name)
		default:
			if s, ok := slotOf[t.Name]; ok && bound[s] {
				h.kind = headSlot
				h.slot = s
				prog.headSlots = append(prog.headSlots, s)
			} else if prog.headErr == nil {
				prog.headErr = fmt.Errorf("engine: head variable %s is unbound; plan for %s is unsafe", t.Name, q.HeadPred)
			}
		}
	}
	prog.projectLive()
	return prog
}

// projectLive is the backward liveness pass: a slot is live after step
// k iff a later literal (as a call input or a probe position) or the
// head reads it. Each step's output columns shrink to its live slots,
// each atom position learns whether groupJoin needs its value, and a
// non-final step that thereby drops a slot is marked to deduplicate
// what it sends on.
func (prog *ruleProgram) projectLive() {
	live := make([]bool, prog.numSlots)
	for _, s := range prog.headSlots {
		live[s] = true
	}
	for si := len(prog.steps) - 1; si >= 0; si-- {
		sp := &prog.steps[si]
		bindable := len(sp.newCols)
		kept := sp.copySlots[:0]
		for _, s := range sp.copySlots {
			if live[s] {
				kept = append(kept, s)
			}
		}
		sp.copySlots = kept
		cols := sp.newCols[:0]
		for _, nc := range sp.newCols {
			if live[nc.slot] {
				cols = append(cols, nc)
				sp.args[nc.pos].need = true
			}
		}
		sp.newCols = cols
		for j := range sp.args {
			switch a := &sp.args[j]; a.role {
			case argConst, argBound:
				a.need = true
			case argRepeat:
				a.need = true
				sp.args[a.firstPos].need = true
			}
		}
		// Distinct inputs and a set-valued source give distinct outputs
		// unless a slot goes missing — a fresh variable nothing reads, or
		// a slot this step is the last to read. Then, and only then, a
		// seen set pays.
		if si < len(prog.steps)-1 {
			sp.dedup = len(sp.newCols) < bindable
			for _, s := range sp.probeSlots {
				sp.dedup = sp.dedup || !live[s]
			}
		}
		// The step's own reads: every bound variable of the atom, at an
		// input position or not, is a probe position.
		for _, s := range sp.probeSlots {
			live[s] = true
		}
	}
}

// fillInputs writes the string inputs of one distinct call, made by
// row, into out (the only place input strings materialize; deduped rows
// never do).
func (sp *stepProgram) fillInputs(out []string, in *colBatch, row int, pool *colPool) {
	for k, s := range sp.inputs {
		if s.slot >= 0 {
			out[k] = pool.ids.str(in.cols[s.slot][row])
		} else {
			out[k] = pool.ids.str(s.constID)
		}
	}
}

// callJoin is the hash-join side of one or more source calls' answers:
// their tuples interned at the positions the step needs, pre-filtered by
// the step's static constraints, and grouped by their bound-position key
// — behind the answer's ordinal when there are several — CSR-style:
// group g's surviving tuple indices are idx[start[g]:start[g+1]], in
// tuple order. The short answers of a batch's new calls share one,
// built once per batch; a held answer has its own, built once per
// catalog state and step shape. A call's join outlives its batch: in a
// streamed stage the step's state carries the call, and a later batch's
// row that makes it probes it.
type callJoin struct {
	// vals is column-major, arity × n: tuple ti's ID at position p is
	// vals[p*n+ti], the answers' tuples numbered in order. Only needed
	// positions are filled. For a held answer it is the held table's
	// shared array (held.go), never written here.
	vals []uint32
	n    int
	// byOrd says a key starts with the answer's ordinal: the join holds
	// more than one answer. One answer's keys are its bound-position
	// keys alone, so a scan's is the empty tuple and needs no table.
	byOrd bool
	keys  idTable // probe key → group
	start []int32
	idx   []int32
}

// emptyJoin is the join side of every call that cannot match: no tuples
// came back, or the atom has a null term. Shared and never written.
var emptyJoin = &callJoin{}

// group returns the indices of the tuples matching the probe key — the
// call's ordinal if byOrd, then the row's bound-slot values — in tuple
// order; none when the key has no group.
func (j *callJoin) group(key []uint32) []int32 {
	g := j.keys.find(key)
	if g < 0 {
		return nil
	}
	return j.idx[j.start[g]:j.start[g+1]]
}

// joinCalls gives each of a batch's new calls its join side. A long
// answer's (heldMinRows and up) is built once per catalog state and step
// shape and shared (heldTable.join); every other answer with tuples —
// short, or too large to hold — goes into the batch's one join, keyed by
// its ordinal there. key is the caller's scratch.
func (sp *stepProgram) joinCalls(calls []stepCall, pool *colPool, key []uint32) {
	shorts, tuples := 0, 0
	for i := range calls {
		c := &calls[i]
		if len(c.rows) == 0 || sp.never {
			c.join = emptyJoin
			continue
		}
		if len(c.rows) >= heldMinRows {
			if c.join = pool.held.join(c.rows, sp, pool, key); c.join != nil {
				pool.nHeld.Add(1)
				continue
			}
		}
		shorts++
		tuples += len(c.rows)
	}
	if shorts == 0 {
		return
	}
	var one [1][]sources.Tuple // a single short answer needs no list of its own
	answers := one[:0]
	if shorts > 1 {
		answers = make([][]sources.Tuple, 0, shorts)
	}
	for i := range calls {
		if c := &calls[i]; c.join == nil {
			c.ord = uint32(len(answers))
			answers = append(answers, c.rows)
		}
	}
	j := sp.groupJoin(answers, make([]uint32, len(sp.args)*tuples), pool, key, false)
	for i := range calls {
		if calls[i].join == nil {
			calls[i].join = j
		}
	}
}

// groupJoin filters the answers' tuples and groups them by (ordinal,
// bound-position key), or by the key alone for one answer, with a
// stable counting sort: tuple order is preserved within each group, so
// probing emits matches in exactly the oracle's order, and a tuple only
// ever matches rows of the call that returned it, even one that
// disagrees with the call's inputs. vals is
// the column-major ID array: a held answer's, its needed columns filled
// (held: answers is that one answer), or a fresh one the build interns
// into as it goes.
//
// A held join of a dedup step keeps only the first tuple of each newCols
// projection within a group. That is exact: the rest would make the same
// output binding as the first for every input row that probes the group,
// and stepState.seen would drop it there. A batch's join keeps them, so
// short answers pay for no distinct set of their own.
func (sp *stepProgram) groupJoin(answers [][]sources.Tuple, vals []uint32, pool *colPool, key []uint32, held bool) *callJoin {
	n, arity := 0, len(sp.args)
	for _, rows := range answers {
		n += len(rows)
	}
	j := &callJoin{vals: vals, n: n, byOrd: len(answers) > 1}
	// One allocation for both per-tuple arrays: the group of every tuple
	// (-1: filtered out), then the tuples ordered by group.
	scratch := make([]int32, 2*n)
	gid, idx := scratch[:n], scratch[n:]
	var firsts idTable // a held dedup step's (group, newCols values) seen
	survivors, ti := 0, -1
	for ord, rows := range answers {
		for _, t := range rows {
			ti++
			ok := true
			for p := 0; p < arity && ok; p++ {
				a := &sp.args[p]
				if !a.need {
					continue
				}
				if !held {
					vals[p*n+ti] = pool.intern(t[p])
				}
				switch id := vals[p*n+ti]; a.role {
				case argConst:
					ok = id == a.constID
				case argRepeat:
					ok = id == vals[a.firstPos*n+ti]
				}
			}
			if !ok {
				gid[ti] = -1
				continue
			}
			key = key[:0]
			if j.byOrd {
				key = append(key, uint32(ord))
			}
			for _, p := range sp.boundPos {
				key = append(key, vals[p*n+ti])
			}
			g, _ := j.keys.insert(key)
			if held && sp.dedup {
				key = append(key[:0], uint32(g))
				for _, nc := range sp.newCols {
					key = append(key, vals[nc.pos*n+ti])
				}
				if _, fresh := firsts.insert(key); !fresh {
					gid[ti] = -1
					continue
				}
			}
			gid[ti] = g
			survivors++
		}
	}
	// start[g+2] counts group g, becomes its cursor start[g+1] after the
	// prefix sum, and ends the placement as the start of group g+1.
	start := make([]int32, j.keys.len()+2)
	for _, g := range gid {
		if g >= 0 {
			start[g+2]++
		}
	}
	for g := 2; g < len(start); g++ {
		start[g] += start[g-1]
	}
	for ti, g := range gid {
		if g >= 0 {
			idx[start[g+1]] = int32(ti)
			start[g+1]++
		}
	}
	j.start, j.idx = start[:len(start)-1], idx[:survivors]
	if held { // kept for the catalog state's lifetime: drop gid and the slack
		j.idx = slices.Clone(j.idx)
	}
	return j
}

// stopCheckEvery is how many bindings the join and head loops handle
// between two looks at the context and the time budget (stopped): an
// execution that is cancelled or out of time stops within that many,
// not at its next source call, which a cross product makes only once
// per step.
const stopCheckEvery = 1024

// stopped is why the execution's loops must stop now, or nil: its time
// budget spent (ErrCallBudget), else ctx done.
func (x *execution) stopped(ctx context.Context) error {
	if err := x.budget.expired(); err != nil {
		return err
	}
	return ctx.Err()
}

// stepState is what a step remembers between the batches it is applied
// to, owned by the schedule: one value per step, for the one batch of a
// whole rule or across all the batches of a stage.
type stepState struct {
	// memo maps a call-input tuple to its index in calls (when
	// rt.Dedup): keys resolved by an earlier batch are served without a
	// new source call, so per-step deduplication is exactly as strong
	// staged as whole.
	memo idTable
	// calls are the step's distinct calls so far under rt.Dedup, the
	// current batch's otherwise. Each points into the slab of the batch
	// that made it (applyStepCol).
	calls []*stepCall
	// seen holds the output bindings a slot-dropping step already sent
	// downstream (stepProgram.dedup), over its output columns.
	seen idTable
}

// applyStepCol runs one compiled plan step over a columnar batch: group
// rows into distinct calls by their input IDs, issue the distinct calls
// through the runtime (worker pool, retries, hedging, budget), then
// hash-join each row against its call's tuples and emit output batches
// of at most limit rows (limit ≤ 0 means one batch) over the step's live
// slots. A slot-dropping step emits each distinct output binding once,
// the first time it arises: everything downstream is a function of the
// live slots, so a repeat could only re-derive, later, head rows its
// first occurrence already derives — dropping it changes neither the
// rule's rows nor the order they first appear in, nor any source call.
//
// It returns the number of rows emitted and whether emit stopped the
// step early (pipeline cancellation; not an error).
func (x *execution) applyStepCol(ctx context.Context, prog *ruleProgram, si int, in *colBatch, sp *StepProfile, st *stepState, limit int, emit func(*colBatch) bool) (int, bool, error) {
	sp0 := &prog.steps[si]
	step := sp0.step
	dedup, pool := x.rt.Dedup, x.pool
	src := x.cat.Source(step.Literal.Atom.Pred)
	if src == nil {
		return 0, false, fmt.Errorf("engine: no source for relation %s", step.Literal.Atom.Pred)
	}
	if in.n > 0 && sp0.err != nil {
		return 0, false, sp0.err
	}
	pool.nBatches.Add(1)

	// Group rows into distinct calls by their input-ID tuple: row i's
	// call is st.calls[of[i]]. Without Dedup every row is a call of its
	// own.
	var keyArr [8]uint32
	key := keyArr[:0]
	of := make([]int32, in.n)
	if !dedup {
		st.calls = st.calls[:0]
	}
	known, fresh := len(st.calls), 0
	for i := 0; i < in.n; i++ {
		if !dedup {
			of[i] = int32(i)
			fresh++
			continue
		}
		key = key[:0]
		for _, is := range sp0.inputs {
			v := is.constID
			if is.slot >= 0 {
				v = in.cols[is.slot][i]
			}
			key = append(key, v)
		}
		c, isNew := st.memo.insert(key)
		if isNew {
			fresh++
		} else {
			sp.DedupedCalls++
		}
		of[i] = c
	}
	// The batch's new calls are one slab, numbered in the order their
	// first rows come, and their inputs windows of one array.
	calls := make([]stepCall, fresh)
	w := len(sp0.inputs)
	inputs := make([]string, fresh*w)
	st.calls = slices.Grow(st.calls, fresh)
	for i := 0; len(st.calls) < known+fresh; i++ {
		if int(of[i]) != len(st.calls) {
			continue
		}
		k := len(st.calls) - known
		c := &calls[k]
		if w > 0 {
			c.inputs = inputs[k*w : (k+1)*w : (k+1)*w]
			sp0.fillInputs(c.inputs, in, i, pool)
		}
		st.calls = append(st.calls, c)
	}
	t0 := time.Now()
	err := x.issue(ctx, src, step, calls, sp)
	sp.SourceWait += time.Since(t0)
	if err != nil {
		return 0, false, err
	}
	sp0.joinCalls(calls, pool, key)

	// Probe every row, resolving its matching tuple group and an upper
	// bound on the output cardinality (exact unless the step dedups)
	// before any output column is allocated.
	negated := step.Literal.Negated
	rowGroups := make([][]int32, in.n)
	left := 0
	for i := 0; i < in.n; i++ {
		if i%stopCheckEvery == 0 {
			if err := x.stopped(ctx); err != nil {
				return 0, false, err
			}
		}
		c := st.calls[of[i]]
		key = key[:0]
		if c.join.byOrd {
			key = append(key, c.ord)
		}
		for _, s := range sp0.probeSlots {
			key = append(key, in.cols[s][i])
		}
		g := c.join.group(key)
		rowGroups[i] = g
		if negated {
			if len(g) == 0 {
				left++
			}
		} else {
			left += len(g)
		}
	}

	// Emit: one candidate output row per (row, matching tuple) of a
	// positive step, one per row without a match of a negated one. left
	// counts the candidates not yet looked at, so an output batch is
	// allocated only when a row is about to be written and never larger
	// than what can still arrive.
	var ob *colBatch
	emitted, k := 0, 0
	flush := func() bool {
		ob.n = k
		if !emit(ob) {
			return false
		}
		emitted += k
		ob, k = nil, 0
		return true
	}
	for i := 0; i < in.n; i++ {
		if i%stopCheckEvery == 0 {
			if err := x.stopped(ctx); err != nil {
				return emitted, false, err
			}
		}
		g := rowGroups[i]
		matches := len(g)
		if negated {
			matches = 0
			if len(g) == 0 {
				matches = 1
			}
		}
		join := st.calls[of[i]].join
		for m := 0; m < matches; m++ {
			var ti int // the matching tuple; a negated step binds nothing
			if !negated {
				ti = int(g[m])
			}
			left--
			if sp0.dedup {
				key = key[:0]
				for _, s := range sp0.copySlots {
					key = append(key, in.cols[s][i])
				}
				for _, nc := range sp0.newCols {
					key = append(key, join.vals[nc.pos*join.n+ti])
				}
				if _, fresh := st.seen.insert(key); !fresh {
					continue
				}
			}
			if ob == nil {
				n := left + 1
				if limit > 0 {
					n = min(n, limit)
				}
				ob = pool.getBatch(prog.numSlots)
				for _, s := range sp0.copySlots {
					ob.cols[s] = pool.getCol(n)
				}
				for _, nc := range sp0.newCols {
					ob.cols[nc.slot] = pool.getCol(n)
				}
			}
			for _, s := range sp0.copySlots {
				ob.cols[s][k] = in.cols[s][i]
			}
			for _, nc := range sp0.newCols {
				ob.cols[nc.slot][k] = join.vals[nc.pos*join.n+ti]
			}
			k++
			if k == limit && !flush() {
				return emitted, true, nil
			}
		}
	}
	if ob != nil && !flush() {
		return emitted, true, nil
	}
	return emitted, false, nil
}
