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
// join: its rows are grouped into distinct calls by their input IDs,
// each looked up in the execution's one call table (calltable.go) —
// asked of the source only when no step asked it before — and each
// call's tuples are interned, filtered by the static constant and
// repeated-variable constraints once, and grouped by their
// bound-position key; each input row probes by its own bound-slot key,
// emitting one output row per matching tuple. The join is the step's
// own: the short answers of the calls a batch meets first share one
// such join, built once per batch: there a key starts with the call's
// ordinal, which keeps each call's tuples to its own rows. A long answer's
// join side is built once per catalog state and step shape instead: its
// columns and finished joins are held beside the interner under the
// returned group's identity and shared by every execution that pins the
// state and receives the same group (held.go).
// Column buffers, batch headers, a step's scratch (stepState) and a
// rule's head set are recycled through the execution's colPool, and the
// whole execution — that pool and its call table with it — is recycled
// across executions (executions, eval.go) unless its scratch outgrew one
// byte bound (scratchMaxKept). Strings
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
// Every keyed structure here — the execution's call table, a call's join
// groups, a dropping step's seen set, the head's distinct rows — is one
// idTable (idtable.go) over fixed-width tuples of IDs; no key is built
// as a string. Past the sink neither: the answer relation's membership is a
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
	"unsafe"

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

// colPool recycles column buffers, batch headers, step states and head
// sets within one execution, and keeps them for the next execution that
// takes the same recycled value (recycle). Batches die at every pipeline
// stage (the output batch never aliases the input), so without reuse the
// hot loop would churn one column allocation per slot per batch. The
// pool is shared by all rules and stages of an execution and is safe for
// concurrent use; it also carries the engine state the execution pinned
// — every value it compares resolves through ids — and its batch
// accounting (Profile.Batch).
type colPool struct {
	ids  *valueInterner
	held *heldTable

	mu          sync.Mutex
	freeCols    [][]uint32
	freeBatches []*colBatch
	states      []*stepState
	heads       []*headSet

	nBatches  atomic.Int64 // batches run through applyStepCol
	nInterned atomic.Int64 // tuple values newly interned this execution
	nReuses   atomic.Int64 // column buffers served from the free list
	nHeld     atomic.Int64 // calls whose join side came from the held table
}

func newColPool(st *engineState) *colPool { return &colPool{ids: st.ids, held: st.held} }

// pin points the pool at the engine state an execution pinned and zeroes
// its accounting.
func (p *colPool) pin(st *engineState) {
	p.ids, p.held = st.ids, st.held
	p.nBatches.Store(0)
	p.nInterned.Store(0)
	p.nReuses.Store(0)
	p.nHeld.Store(0)
}

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
	b := take(p, &p.freeBatches)
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

// take pops the last value of one of p's free lists, or makes a new one.
func take[T any](p *colPool, free *[]*T) *T {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	v := (*free)[n-1]
	*free = (*free)[:n-1]
	return v
}

// give appends v to one of p's free lists.
func give[T any](p *colPool, free *[]*T, v *T) {
	p.mu.Lock()
	*free = append(*free, v)
	p.mu.Unlock()
}

// takeState returns a reset stepState: one the execution used before,
// or one an earlier execution left in the pool, with its buffers.
func (p *colPool) takeState() *stepState { return take(p, &p.states) }

// putState hands st back for the execution's next step or stage.
func (p *colPool) putState(st *stepState) {
	st.reset()
	give(p, &p.states, st)
}

// takeHead returns an empty head set for prog's rows.
func (p *colPool) takeHead(prog *ruleProgram) *headSet {
	h := take(p, &p.heads)
	h.prog, h.pool = prog, p
	return h
}

// putHead hands h back for the execution's next rule.
func (p *colPool) putHead(h *headSet) {
	h.seen.reset()
	h.prog = nil
	give(p, &p.heads, h)
}

// recycle readies the pool for the next execution that takes it: it
// forgets the engine state, and keeps the free columns, batch headers,
// step states and head sets, emptied of anything that points into the
// finished execution, charging them to k. Nothing runs on the pool.
func (p *colPool) recycle(k *keeper) {
	p.ids, p.held = nil, nil
	p.states = keepEach(k, p.states, (*stepState).recycle)
	p.heads = keepEach(k, p.heads, (*headSet).recycle)
	p.freeCols = keepEach(k, p.freeCols, func(c []uint32, k *keeper) { keep(k, c) })
	p.freeBatches = keepEach(k, p.freeBatches, func(b *colBatch, k *keeper) {
		k.charge(int(unsafe.Sizeof(*b)))
		b.cols = keep(k, b.cols)
	})
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
	step access.AdornedLiteral
	// ord is the step's (relation, pattern) ordinal: its part of the
	// execution's call table (relOrds).
	ord        int
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
// program is valid only under that state; each step's (relation,
// pattern) gets its ordinal from ords, which every rule of the
// execution shares. It is read-only afterwards.
//
// The steps' per-position slices are windows of one array per element
// type, each window capped so that no append reaches a neighbour's.
func compileRule(q logic.CQ, steps []access.AdornedLiteral, pool *colPool, ords *relOrds) *ruleProgram {
	arity, inputs := 0, 0
	for _, st := range steps {
		arity += len(st.Literal.Atom.Args)
		for j := range st.Literal.Atom.Args {
			if st.Pattern.Input(j) {
				inputs++
			}
		}
	}
	prog := &ruleProgram{rule: q, steps: make([]stepProgram, len(steps)), head: make([]headArg, len(q.HeadArgs))}
	args := make([]stepArg, arity)
	ins := make([]inputSrc, 0, inputs)
	cols := make([]newCol, 0, arity)
	// boundPos, probeSlots and copySlots of every step, then headSlots;
	// copySlots can outgrow the guess, and a regrowth leaves the windows
	// cut before it in the old array.
	ints := make([]int, 0, 3*arity+len(q.HeadArgs))
	names := make([]string, 0, arity) // slot → variable
	bound := make([]bool, 0, arity)   // by slot
	slotOf := func(name string) (int, bool) {
		for s, n := range names {
			if n == name {
				return s, true
			}
		}
		return -1, false
	}
	window := func(from int) []int { return ints[from:len(ints):len(ints)] }
	for si, st := range steps {
		sp := &prog.steps[si]
		sp.step = st
		atom := st.Literal.Atom
		sp.ord = ords.of(atom.Pred, st.Pattern)
		from := len(ins)
		for j, t := range atom.Args {
			if !st.Pattern.Input(j) {
				continue
			}
			switch {
			case t.IsConst():
				id, _ := pool.ids.id(t.Name)
				ins = append(ins, inputSrc{slot: -1, constID: id})
			case t.IsVar():
				if s, ok := slotOf(t.Name); ok && bound[s] {
					ins = append(ins, inputSrc{slot: s})
				} else if sp.err == nil {
					sp.err = fmt.Errorf("engine: input slot %d of %s needs unbound variable %s", j+1, st, t.Name)
				}
			default:
				if sp.err == nil {
					sp.err = fmt.Errorf("engine: null cannot be used as a call input in %s", st)
				}
			}
		}
		sp.inputs = ins[from:len(ins):len(ins)]
		sp.args, args = args[:len(atom.Args):len(atom.Args)], args[len(atom.Args):]
		from = len(ints)
		for j, t := range atom.Args {
			a := &sp.args[j]
			switch {
			case t.IsConst():
				a.role = argConst
				a.constID, _ = pool.ids.id(t.Name)
			case t.IsVar():
				if s, ok := slotOf(t.Name); ok && bound[s] {
					a.role = argBound
					a.slot = s
					ints = append(ints, j)
					continue
				}
				a.role, a.firstPos = argFirst, -1
				for k := 0; k < j; k++ {
					if atom.Args[k].Name == t.Name && sp.args[k].role == argFirst {
						a.role, a.firstPos = argRepeat, k
						break
					}
				}
				if a.role == argRepeat {
					continue
				}
				s, ok := slotOf(t.Name)
				if !ok {
					s = len(names)
					names, bound = append(names, t.Name), append(bound, false)
				}
				a.slot = s
			default:
				a.role = argNull
				sp.never = true
			}
		}
		sp.boundPos = window(from)
		from = len(ints)
		for _, j := range sp.boundPos {
			ints = append(ints, sp.args[j].slot)
		}
		sp.probeSlots = window(from)
		from = len(ints)
		for s, b := range bound {
			if b {
				ints = append(ints, s)
			}
		}
		sp.copySlots = window(from)
		// A positive step binds its fresh variables for downstream steps;
		// a negated step is a pure filter (the oracle discards the
		// extended binding and keeps the original).
		from = len(cols)
		if !st.Literal.Negated {
			for j := range sp.args {
				if sp.args[j].role == argFirst {
					cols = append(cols, newCol{slot: sp.args[j].slot, pos: j})
					bound[sp.args[j].slot] = true
				}
			}
		}
		sp.newCols = cols[from:len(cols):len(cols)]
	}
	prog.numSlots = len(names)
	from := len(ints)
	for i, t := range q.HeadArgs {
		h := &prog.head[i]
		switch {
		case t.IsNull():
			h.kind = headNull
		case t.IsConst():
			h.kind = headConst
			h.val = V(t.Name)
		default:
			if s, ok := slotOf(t.Name); ok && bound[s] {
				h.kind = headSlot
				h.slot = s
				ints = append(ints, s)
			} else if prog.headErr == nil {
				prog.headErr = fmt.Errorf("engine: head variable %s is unbound; plan for %s is unsafe", t.Name, q.HeadPred)
			}
		}
	}
	prog.headSlots = window(from)
	prog.projectLive(bound)
	return prog
}

// projectLive is the backward liveness pass: a slot is live after step
// k iff a later literal (as a call input or a probe position) or the
// head reads it. Each step's output columns shrink to its live slots,
// each atom position learns whether groupJoin needs its value, and a
// non-final step that thereby drops a slot is marked to deduplicate
// what it sends on. live is scratch of numSlots entries.
func (prog *ruleProgram) projectLive(live []bool) {
	clear(live)
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

// joinCalls gives each call the batch meets for the first time
// (st.need) the step's join side of it. A long answer's (heldMinRows and
// up) is built once per catalog state and step shape and shared
// (heldTable.join); every other answer with tuples — short, or too large
// to hold — goes into the batch's one join, keyed by its ordinal there.
// key is the caller's scratch.
func (sp *stepProgram) joinCalls(st *stepState, pool *colPool, key []uint32) {
	shorts := 0
	for k, c := range st.need {
		j := &st.joins[st.needIdx[k]]
		j.join = nil
		if len(c.rows) == 0 || sp.never {
			j.join = emptyJoin
			continue
		}
		if len(c.rows) >= heldMinRows {
			if j.join = pool.held.join(c.rows, sp, pool, key); j.join != nil {
				pool.nHeld.Add(1)
				continue
			}
		}
		shorts++
	}
	if shorts == 0 {
		return
	}
	answers := grown(st.answers, shorts)[:0]
	for k, c := range st.need {
		if j := &st.joins[st.needIdx[k]]; j.join == nil {
			j.ord = uint32(len(answers))
			answers = append(answers, c.rows)
		}
	}
	st.answers = answers
	bj := sp.groupJoin(st.batchJoin(), answers, pool, key, false)
	clear(answers) // the scratch keeps no answer alive
	for _, e := range st.needIdx {
		if j := &st.joins[e]; j.join == nil {
			j.join = bj
		}
	}
}

// groupJoin filters the answers' tuples and groups them by (ordinal,
// bound-position key), or by the key alone for one answer, with a
// stable counting sort: tuple order is preserved within each group, so
// probing emits matches in exactly the oracle's order, and a tuple only
// ever matches rows of the call that returned it, even one that
// disagrees with the call's inputs. It builds into j, which it returns:
// a fresh join whose vals are a held answer's column-major IDs, its
// needed columns filled (held: answers is that one answer), or a batch's
// join recycled with its buffers, whose vals the build regrows and
// interns into as it goes.
//
// A held join of a dedup step keeps only the first tuple of each newCols
// projection within a group. That is exact: the rest would make the same
// output binding as the first for every input row that probes the group,
// and stepState.seen would drop it there. A batch's join keeps them, so
// short answers pay for no distinct set of their own.
func (sp *stepProgram) groupJoin(j *callJoin, answers [][]sources.Tuple, pool *colPool, key []uint32, held bool) *callJoin {
	n, arity := 0, len(sp.args)
	for _, rows := range answers {
		n += len(rows)
	}
	j.n, j.byOrd = n, len(answers) > 1
	j.keys.reset()
	if !held {
		j.vals = grown(j.vals[:0], arity*n)
	}
	vals := j.vals
	// One array for both per-tuple arrays: the tuples ordered by group,
	// then the group of every tuple (-1: filtered out). idx comes first,
	// so that j.idx keeps the whole array as its capacity, for a
	// recycled join's next build.
	scratch := grown(j.idx[:0], 2*n)
	idx, gid := scratch[:n], scratch[n:]
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
	start := grown(j.start[:0], j.keys.len()+2)
	clear(start)
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

// stepJoin is the join side a step built for one call, and the call's
// ordinal in it: the first word of its probe keys when the join holds
// several answers (callJoin.byOrd).
type stepJoin struct {
	join *callJoin
	ord  uint32
}

// pendingJoin marks a call whose join the current batch is building.
var pendingJoin = &callJoin{}

// stepState is what a step remembers between the batches it is applied
// to — one value per stage of a streamed rule, carried across its
// batches — and the scratch applyStepCol regrows and reuses. The whole
// schedule hands a rule's steps one value in turn, reset between them.
// Values come from the execution's colPool (takeState, putState) and
// are recycled with it (recycle).
type stepState struct {
	// joins[e] is the join side the step built for call e — its index
	// in the execution's call table, or, without Dedup, in own — nil
	// until a batch meets e. A staged step's later batch probes the joins
	// an earlier one built.
	joins []stepJoin
	// seen holds the output bindings a slot-dropping step already sent
	// downstream (stepProgram.dedup), over its output columns.
	seen idTable

	// batchJoins are the joins this step's batches built (joinCalls),
	// the first usedJoins of them in use: a batch's join lives until
	// reset, since a staged step's later batch probes the calls of an
	// earlier one, and reset recycles every one with its buffers.
	batchJoins []*callJoin
	usedJoins  int

	// Scratch of one batch. of[i] is row i's call; need lists the calls
	// whose joins the batch builds, with their indices, in first-row
	// order; claimed the ones it issues itself; own the batch's calls
	// without Dedup, their inputs windows of ownInputs.
	of        []int32
	rowGroups [][]int32
	need      []*stepCall
	needIdx   []int32
	claimed   []*stepCall
	own       []stepCall
	ownInputs []string
	answers   [][]sources.Tuple
	// all, gauge, next and helpers are issue's: the group's input
	// vectors, the calls in flight, the index of the next call to hand
	// out and the helper goroutines working through them.
	all     [][]string
	gauge   inFlightGauge
	next    atomic.Int32
	helpers sync.WaitGroup
}

// grown returns buf resized to n: in place when n fits its capacity,
// else in a new array with room to spare, zeroed past buf's length.
func grown[T any](buf []T, n int) []T {
	if n <= cap(buf) {
		return buf[:n]
	}
	out := make([]T, n, max(n, 2*cap(buf), 16))
	copy(out, buf)
	return out
}

// reset readies st for another step, keeping its buffers.
func (st *stepState) reset() {
	clear(st.joins[:cap(st.joins)])
	st.joins = st.joins[:0]
	st.seen.reset()
	st.usedJoins = 0
}

// batchJoin returns a join for the current batch to build into: a
// recycled one, with its buffers, when there is one.
func (st *stepState) batchJoin() *callJoin {
	if st.usedJoins == len(st.batchJoins) {
		st.batchJoins = append(st.batchJoins, new(callJoin))
	}
	st.usedJoins++
	return st.batchJoins[st.usedJoins-1]
}

// recycle readies st for another execution, emptied of what its
// buffers point into: the finished execution's calls, answers and
// joins. It charges st and its buffers to k.
func (st *stepState) recycle(k *keeper) {
	k.charge(int(unsafe.Sizeof(*st)))
	st.joins = keep(k, st.joins)
	st.seen.recycle(k)
	st.batchJoins = keepEach(k, st.batchJoins, (*callJoin).recycle)
	st.usedJoins = 0
	st.of, st.rowGroups = keep(k, st.of), keep(k, st.rowGroups)
	st.need, st.needIdx, st.claimed = keep(k, st.need), keep(k, st.needIdx), keep(k, st.claimed)
	st.own, st.ownInputs = keep(k, st.own), keep(k, st.ownInputs)
	st.answers, st.all = keep(k, st.answers), keep(k, st.all)
}

// recycle readies a batch's join for another execution's builds,
// charging it and its buffers to k.
func (j *callJoin) recycle(k *keeper) {
	k.charge(int(unsafe.Sizeof(*j)))
	j.keys.recycle(k)
	j.vals, j.idx, j.start = keep(k, j.vals), keep(k, j.idx), keep(k, j.start)
	j.n, j.byOrd = 0, false
}

// scratchMaxKept bounds, in bytes, the scratch a recycled execution
// keeps — its call table's, its column pool's, its step states' and head
// sets' buffers — so that what the pool of executions holds between
// requests stays small: an execution whose scratch grew past it is not
// recycled at all, and the next one starts cold. E25's join keeps about
// 31 KB. A 513-call execution (the remote_batch workload's) grows more
// than twice that; keeping its first 64 KiB instead of none took that
// workload's live heap from about 0.6 MB to 0.75–0.83 MB.
const scratchMaxKept = 64 << 10

// keeper is what is left of scratchMaxKept while a finished execution's
// scratch is charged to it; below zero, the execution is not kept.
type keeper int

func (k *keeper) charge(n int) { *k -= keeper(n) }

// keep returns buf emptied, charging its capacity to k. It zeroes buf
// while the execution can still be kept; one that cannot is the garbage
// collector's, with whatever it points to.
func keep[T any](k *keeper, buf []T) []T {
	var zero T
	if k.charge(cap(buf) * int(unsafe.Sizeof(zero))); *k >= 0 {
		clear(buf[:cap(buf)])
	}
	return buf[:0]
}

// keepEach keeps list and its elements, charging its array and, through
// keepOne, each element to k, and zeroes the array past its length.
func keepEach[T any](k *keeper, list []T, keepOne func(T, *keeper)) []T {
	var zero T
	k.charge(cap(list) * int(unsafe.Sizeof(zero)))
	for _, e := range list {
		keepOne(e, k)
	}
	clear(list[len(list):cap(list)])
	return list
}

// applyStepCol runs one compiled plan step over a columnar batch: group
// rows into distinct calls by their input IDs, look each up in the
// execution's call table and issue the ones nobody asked before through
// the runtime (worker pool, retries, hedging, budget), then hash-join
// each row against its call's tuples and emit output batches of at most
// limit rows (limit ≤ 0 means one batch) over the step's live slots. A
// slot-dropping step emits each distinct output binding once, the first
// time it arises: everything downstream is a function of the live
// slots, so a repeat could only re-derive, later, head rows its first
// occurrence already derives — dropping it changes neither the rule's
// rows nor the order they first appear in, nor any source call.
//
// It returns the number of rows emitted and whether emit stopped the
// step early (pipeline cancellation; not an error).
func (x *execution) applyStepCol(ctx context.Context, prog *ruleProgram, si int, in *colBatch, sp *StepProfile, st *stepState, limit int, emit func(*colBatch) bool) (int, bool, error) {
	sp0 := &prog.steps[si]
	step := sp0.step
	pool := &x.pool
	src := x.cat.Source(step.Literal.Atom.Pred)
	if src == nil {
		return 0, false, fmt.Errorf("engine: no source for relation %s", step.Literal.Atom.Pred)
	}
	if in.n > 0 && sp0.err != nil {
		return 0, false, sp0.err
	}
	pool.nBatches.Add(1)

	// Row i's call is entry st.of[i] of the execution's call table; a
	// call the step meets for the first time joins need, and claimed when
	// nobody has asked it yet. Without Dedup every row is a call of its
	// own.
	var keyArr [8]uint32
	key := keyArr[:0]
	of := grown(st.of, in.n)
	st.of = of
	need, needIdx, claimed := grown(st.need, in.n)[:0], grown(st.needIdx, in.n)[:0], grown(st.claimed, in.n)[:0]
	var failed []*stepCall // read failed from the table
	w := len(sp0.inputs)
	if x.rt.Dedup {
		tab := &x.calls
		tab.mu.Lock()
		known := len(tab.calls)
		for i := 0; i < in.n; i++ {
			key = append(key[:0], uint32(sp0.ord))
			for _, is := range sp0.inputs {
				v := is.constID
				if is.slot >= 0 {
					v = in.cols[is.slot][i]
				}
				key = append(key, v)
			}
			of[i] = tab.index(key)
		}
		// The batch's new calls are numbered in the order their first rows
		// come: row i makes the next one when its index is the next.
		tab.reserve(tab.keys.len()-known, w)
		st.joins = grown(st.joins, max(len(st.joins), tab.keys.len()))
		for i := 0; i < in.n; i++ {
			e := of[i]
			if int(e) == len(tab.calls) {
				sp0.fillInputs(tab.enter(w).inputs, in, i, pool)
			}
			if st.joins[e].join != nil {
				sp.DedupedCalls++
				continue
			}
			st.joins[e].join = pendingJoin
			c := tab.calls[e]
			need, needIdx = append(need, c), append(needIdx, e)
			switch {
			case c.state == callAbsent:
				c.state = callInFlight
				claimed = append(claimed, c)
			case c.state == callDone && c.err != nil:
				failed = append(failed, c)
				fallthrough
			default:
				sp.DedupedCalls++
			}
		}
		tab.mu.Unlock()
	} else {
		own := grown(st.own, in.n)
		clear(own)
		inputs := grown(st.ownInputs, in.n*w)
		st.own, st.ownInputs = own, inputs
		st.joins = grown(st.joins, in.n)
		for i := 0; i < in.n; i++ {
			c := &own[i]
			if w > 0 {
				c.inputs = inputs[i*w : (i+1)*w : (i+1)*w]
				sp0.fillInputs(c.inputs, in, i, pool)
			}
			of[i] = int32(i)
			need, needIdx, claimed = append(need, c), append(needIdx, int32(i)), append(claimed, c)
		}
	}
	st.need, st.needIdx = need, needIdx
	if failed != nil {
		// The step reads a failure: it fails as the step that asked did,
		// and asks nothing.
		x.calls.settle(claimed)
		st.claimed = claimed[:0]
		return 0, false, callFailures(failed, step)
	}
	t0 := time.Now()
	err := x.resolve(ctx, src, step, st, claimed, sp)
	sp.SourceWait += time.Since(t0)
	if err != nil {
		return 0, false, err
	}
	sp0.joinCalls(st, pool, key)

	// Probe every row, resolving its matching tuple group and an upper
	// bound on the output cardinality (exact unless the step dedups)
	// before any output column is allocated.
	negated := step.Literal.Negated
	rowGroups := grown(st.rowGroups, in.n)
	st.rowGroups = rowGroups
	left := 0
	for i := 0; i < in.n; i++ {
		if i%stopCheckEvery == 0 {
			if err := x.stopped(ctx); err != nil {
				return 0, false, err
			}
		}
		c := st.joins[of[i]]
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
		join := st.joins[of[i]].join
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

// resolve gives every call in st.need its outcome: it issues the calls
// the step claimed, settles them in the call table, then waits for the
// ones other steps have in flight — asking itself any of those released
// unanswered — and fails the step with the failures they brought.
// Without Dedup it only issues: the step's calls are its own.
func (x *execution) resolve(ctx context.Context, src sources.Source, step access.AdornedLiteral, st *stepState, claimed []*stepCall, sp *StepProfile) error {
	defer func() { st.claimed = claimed[:0] }()
	for {
		err := x.issue(ctx, src, step, claimed, sp, st)
		if !x.rt.Dedup {
			return err
		}
		x.calls.settle(claimed)
		if err != nil {
			return err
		}
		if claimed, err = x.calls.await(ctx, st.need, claimed[:0]); err != nil {
			x.calls.settle(claimed) // claimed, never issued: released
			return err
		}
		if len(claimed) == 0 {
			break
		}
	}
	return callFailures(st.need, step)
}
