package engine

// Columnar batch evaluation: the hot loop of every execution.
//
// A plan is compiled once per rule into a slot program — every variable
// gets a dense column slot, every atom position a static role — and
// bindings flow between steps as colBatch values: slot-indexed vectors
// of interned uint32 value IDs (see intern.go). One step is then a hash
// join: each distinct source call's tuples are interned, filtered by
// the static constant and repeated-variable constraints once, and
// grouped by their bound-position key — built once per call — and each
// input row probes by its own bound-slot key, emitting one output row
// per matching tuple. Column buffers are recycled through a
// per-execution colPool. Strings materialize only at the edges: call
// inputs handed to internal/sources and head rows handed to the sink.
//
// A step carries on only what something later reads. compileRule ends
// with a backward liveness pass (projectLive): a slot is live after a
// step iff a later literal — as a call input or a probe position — or
// the head reads it. A step's output has columns for its live slots
// only, and of a returned tuple only the positions the step compares or
// carries are ever interned, so a column nobody reads neither rides
// along nor grows the process-lifetime interner. Under set semantics a
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
// string.
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
// also carries the execution's batch accounting (Profile.Batch).
type colPool struct {
	mu          sync.Mutex
	freeCols    [][]uint32
	freeBatches []*colBatch

	nBatches  atomic.Int64 // batches run through applyStepCol
	nInterned atomic.Int64 // tuple values newly interned this execution
	nReuses   atomic.Int64 // column buffers served from the free list

	// Spill table: values the process-wide interner's cap refused
	// (SetInternerCap) get execution-local IDs at or above spillBase,
	// resolving here instead. The table dies with the execution, so a
	// tenant streaming unbounded distinct values pays for them only
	// while its own query runs.
	spillMu   sync.RWMutex
	spillIDs  map[string]uint32
	spillStrs []string
}

func newColPool() *colPool { return &colPool{} }

// internID resolves a value to an ID for this execution: the spill
// table first — a value this execution already spilled must keep its
// spill ID even if another execution interned it globally since — then
// the global interner, interning under the cap, then a fresh spill
// entry. fresh reports a new global intern (Profile.Batch accounting).
func (p *colPool) internID(s string) (id uint32, fresh bool) {
	p.spillMu.RLock()
	if p.spillIDs != nil {
		if id, ok := p.spillIDs[s]; ok {
			p.spillMu.RUnlock()
			return id, false
		}
	}
	p.spillMu.RUnlock()
	if id, ok := interned.lookup(s); ok {
		return id, false
	}
	if id, fresh, ok := interned.tryID(s); ok {
		return id, fresh
	}
	p.spillMu.Lock()
	if p.spillIDs == nil {
		p.spillIDs = map[string]uint32{}
	}
	if id, ok := p.spillIDs[s]; ok {
		p.spillMu.Unlock()
		return id, false
	}
	id = spillBase + uint32(len(p.spillStrs))
	p.spillStrs = append(p.spillStrs, s)
	p.spillIDs[s] = id
	p.spillMu.Unlock()
	return id, false
}

// str resolves an ID assigned by internID back to its value.
func (p *colPool) str(id uint32) string {
	if id < spillBase {
		return interned.str(id)
	}
	p.spillMu.RLock()
	s := p.spillStrs[id-spillBase]
	p.spillMu.RUnlock()
	return s
}

// spilled returns the number of values this execution spilled.
func (p *colPool) spilled() int {
	p.spillMu.RLock()
	defer p.spillMu.RUnlock()
	return len(p.spillStrs)
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
	return BatchProfile{
		BatchesProcessed: int(p.nBatches.Load()),
		InternedValues:   int(p.nInterned.Load()),
		ArenaReuses:      int(p.nReuses.Load()),
		SpilledValues:    p.spilled(),
	}
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
	// need says buildJoin reads the tuple's value here: to compare it
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
// them. Compilation is cheap (linear in the plan) and runs once per
// rule per execution. Constants intern through the execution's pool so
// a capped interner spills them instead of growing the global table.
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
				id, _ := pool.internID(t.Name)
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
				a.constID, _ = pool.internID(t.Name)
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
// each atom position learns whether buildJoin needs its value, and a
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

// materializeInputs builds the string inputs of one distinct call (the
// only place input strings materialize; deduped rows never do).
func (sp *stepProgram) materializeInputs(in *colBatch, row int, pool *colPool) []string {
	if len(sp.inputs) == 0 {
		return nil
	}
	out := make([]string, len(sp.inputs))
	for k, s := range sp.inputs {
		if s.slot >= 0 {
			out[k] = pool.str(in.cols[s.slot][row])
		} else {
			out[k] = pool.str(s.constID)
		}
	}
	return out
}

// callJoin is the hash-join side of one distinct source call: the
// call's tuples interned at the positions the step needs, pre-filtered
// by the step's static constraints, and grouped by their bound-position
// key CSR-style — group g's surviving tuple indices are
// idx[start[g]:start[g+1]], in tuple order. It is built once per call —
// in a streamed stage the step's state carries it across batches — and
// probed once per input row.
type callJoin struct {
	vals  []uint32 // len(rows) × arity; only needed positions are filled
	arity int
	keys  idTable // probe key → group
	start []int32
	idx   []int32
}

// emptyJoin is the join side of every call that cannot match: no tuples
// came back, or the atom has a null term. Shared and never written.
var emptyJoin = &callJoin{}

// group returns the indices of the tuples matching the probe key, in
// tuple order; none when the key has no group.
func (j *callJoin) group(key []uint32) []int32 {
	g := j.keys.find(key)
	if g < 0 {
		return nil
	}
	return j.idx[j.start[g]:j.start[g+1]]
}

// buildJoin interns and filters the call's tuples and groups them by
// bound-position key with a stable counting sort: tuple order is
// preserved within each group, so probing emits matches in exactly the
// oracle's order. key is the caller's scratch.
func (sp *stepProgram) buildJoin(rows []sources.Tuple, pool *colPool, key []uint32) *callJoin {
	if len(rows) == 0 || sp.never {
		return emptyJoin
	}
	arity := len(sp.args)
	j := &callJoin{arity: arity, vals: make([]uint32, len(rows)*arity)}
	// One allocation for both per-tuple arrays: the group of every tuple
	// (-1: filtered out), then the tuples ordered by group.
	scratch := make([]int32, 2*len(rows))
	gid, idx := scratch[:len(rows)], scratch[len(rows):]
	survivors := 0
	for ti, t := range rows {
		vals := j.vals[ti*arity : (ti+1)*arity]
		ok := true
		for p := 0; p < arity && ok; p++ {
			a := &sp.args[p]
			if !a.need {
				continue
			}
			id, fresh := pool.internID(t[p])
			if fresh {
				pool.nInterned.Add(1)
			}
			vals[p] = id
			switch a.role {
			case argConst:
				ok = id == a.constID
			case argRepeat:
				ok = id == vals[a.firstPos]
			}
		}
		if !ok {
			gid[ti] = -1
			continue
		}
		key = key[:0]
		for _, p := range sp.boundPos {
			key = append(key, vals[p])
		}
		gid[ti], _ = j.keys.insert(key)
		survivors++
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
	return j
}

// stepState is what a step remembers between the batches it is applied
// to, owned by the schedule: one value per step, for the one batch of a
// whole rule or across all the batches of a stage.
type stepState struct {
	// memo maps a call-input tuple to its call in calls (when rt.Dedup):
	// keys resolved by an earlier batch are served without a new source
	// call, so per-step deduplication is exactly as strong staged as
	// whole.
	memo  idTable
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
func (rt *Runtime) applyStepCol(ctx context.Context, prog *ruleProgram, si int, cat *sources.Catalog, in *colBatch, sp *StepProfile, st *stepState, budget *budgetState, pool *colPool, limit int, emit func(*colBatch) bool) (int, bool, error) {
	sp0 := &prog.steps[si]
	step := sp0.step
	src := cat.Source(step.Literal.Atom.Pred)
	if src == nil {
		return 0, false, fmt.Errorf("engine: no source for relation %s", step.Literal.Atom.Pred)
	}
	if in.n > 0 && sp0.err != nil {
		return 0, false, sp0.err
	}
	pool.nBatches.Add(1)

	// Group rows into distinct calls by their input-ID tuple.
	var keyArr [8]uint32
	key := keyArr[:0]
	var calls, callOf []*stepCall
	if rt.Dedup {
		callOf = make([]*stepCall, in.n)
		known := len(st.calls)
		for i := 0; i < in.n; i++ {
			key = key[:0]
			for _, is := range sp0.inputs {
				v := is.constID
				if is.slot >= 0 {
					v = in.cols[is.slot][i]
				}
				key = append(key, v)
			}
			c, fresh := st.memo.insert(key)
			if fresh {
				st.calls = append(st.calls, &stepCall{inputs: sp0.materializeInputs(in, i, pool)})
			} else {
				sp.DedupedCalls++
			}
			callOf[i] = st.calls[c]
		}
		calls = st.calls[known:]
	} else {
		calls = make([]*stepCall, in.n)
		for i := range calls {
			calls[i] = &stepCall{inputs: sp0.materializeInputs(in, i, pool)}
		}
		callOf = calls
	}
	t0 := time.Now()
	err := rt.issue(ctx, src, step, calls, sp, budget)
	sp.SourceWait += time.Since(t0)
	if err != nil {
		return 0, false, err
	}
	for _, c := range calls {
		c.join = sp0.buildJoin(c.rows, pool, key)
	}

	// Probe every row, resolving its matching tuple group and an upper
	// bound on the output cardinality (exact unless the step dedups)
	// before any output column is allocated.
	negated := step.Literal.Negated
	rowGroups := make([][]int32, in.n)
	left := 0
	for i := 0; i < in.n; i++ {
		key = key[:0]
		for _, s := range sp0.probeSlots {
			key = append(key, in.cols[s][i])
		}
		g := callOf[i].join.group(key)
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
		g := rowGroups[i]
		matches := len(g)
		if negated {
			matches = 0
			if len(g) == 0 {
				matches = 1
			}
		}
		for m := 0; m < matches; m++ {
			var vals []uint32 // the matching tuple; a negated step binds nothing
			if !negated {
				join := callOf[i].join
				vals = join.vals[int(g[m])*join.arity:]
			}
			left--
			if sp0.dedup {
				key = key[:0]
				for _, s := range sp0.copySlots {
					key = append(key, in.cols[s][i])
				}
				for _, nc := range sp0.newCols {
					key = append(key, vals[nc.pos])
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
				ob.cols[nc.slot][k] = vals[nc.pos]
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
