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
// The reference semantics is the per-binding map evaluator kept as the
// in-package test oracle (oracle_test.go): same source calls in the
// same dedup groups, same output rows in the same order (input-row
// order × tuple order, exactly the oracle's fan-out), and the same
// lazily raised planning errors.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

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
	copySlots  []int // slots bound before this step (copied through)
	newCols    []newCol
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
	return prog
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
// call's tuples interned and pre-filtered by the step's static
// constraints, grouped by their bound-position key. It is built once
// per call — in a streamed stage the memo carries it across batches —
// and probed once per input row.
type callJoin struct {
	vals   []uint32 // len(rows) × arity interned tuple values
	arity  int
	groups map[string][]int32 // probe key -> surviving tuple indices, in tuple order
}

// buildJoin interns and filters the call's tuples and groups them by
// bound-position key. Tuple order is preserved within each group, so
// probing emits matches in exactly the oracle's order.
func (sp *stepProgram) buildJoin(rows []sources.Tuple, pool *colPool) *callJoin {
	arity := len(sp.args)
	j := &callJoin{arity: arity, groups: make(map[string][]int32, 1+len(rows)/4)}
	if len(rows) > 0 && arity > 0 {
		j.vals = make([]uint32, len(rows)*arity)
	}
	keyBuf := make([]byte, 0, 4*len(sp.boundPos))
	for ti, t := range rows {
		vals := j.vals[ti*arity : (ti+1)*arity]
		ok := true
		for p := 0; p < arity && ok; p++ {
			id, fresh := pool.internID(t[p])
			if fresh {
				pool.nInterned.Add(1)
			}
			vals[p] = id
			switch a := &sp.args[p]; a.role {
			case argConst:
				ok = id == a.constID
			case argRepeat:
				ok = id == vals[a.firstPos]
			case argNull:
				ok = false
			}
		}
		if !ok {
			continue
		}
		keyBuf = keyBuf[:0]
		for _, p := range sp.boundPos {
			v := vals[p]
			keyBuf = append(keyBuf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		if g, found := j.groups[string(keyBuf)]; found {
			j.groups[string(keyBuf)] = append(g, int32(ti))
		} else {
			j.groups[string(keyBuf)] = []int32{int32(ti)}
		}
	}
	return j
}

// applyStepCol runs one compiled plan step over a columnar batch: group
// rows into distinct calls by their input IDs, issue the distinct calls
// through the runtime (worker pool, retries, hedging, budget), then
// hash-join each row against its call's tuples and emit output batches
// of at most limit rows (limit ≤ 0 means one batch). memo is the step's
// call-dedup memo, owned by the schedule (non-nil whenever rt.Dedup):
// keys resolved by an earlier batch of a staged step are served from it
// without a new source call, so per-step deduplication is exactly as
// strong staged as whole. Calls issued here are added to it.
//
// It returns the number of rows emitted and whether emit stopped the
// step early (pipeline cancellation; not an error).
func (rt *Runtime) applyStepCol(ctx context.Context, prog *ruleProgram, si int, cat *sources.Catalog, in *colBatch, sp *StepProfile, memo map[string]*stepCall, budget *budgetState, pool *colPool, limit int, emit func(*colBatch) bool) (int, bool, error) {
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

	// Group rows into distinct calls by their binary input-ID key.
	calls := make([]*stepCall, 0, 8)
	callOf := make([]*stepCall, in.n)
	keyBuf := make([]byte, 0, 4*len(sp0.inputs))
	for i := 0; i < in.n; i++ {
		if rt.Dedup {
			keyBuf = keyBuf[:0]
			for _, is := range sp0.inputs {
				v := is.constID
				if is.slot >= 0 {
					v = in.cols[is.slot][i]
				}
				keyBuf = append(keyBuf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
			}
			if c, ok := memo[string(keyBuf)]; ok {
				callOf[i] = c
				sp.DedupedCalls++
				continue
			}
			c := &stepCall{inputs: sp0.materializeInputs(in, i, pool)}
			memo[string(keyBuf)] = c
			calls = append(calls, c)
			callOf[i] = c
			continue
		}
		c := &stepCall{inputs: sp0.materializeInputs(in, i, pool)}
		calls = append(calls, c)
		callOf[i] = c
	}
	if err := rt.issue(ctx, src, step, calls, sp, budget); err != nil {
		return 0, false, err
	}
	for _, c := range calls {
		c.join = sp0.buildJoin(c.rows, pool)
	}

	// Probe every row, resolving its matching tuple group and the total
	// output cardinality before any output column is allocated.
	negated := step.Literal.Negated
	rowGroups := make([][]int32, in.n)
	total := 0
	for i := 0; i < in.n; i++ {
		keyBuf = keyBuf[:0]
		for _, s := range sp0.probeSlots {
			v := in.cols[s][i]
			keyBuf = append(keyBuf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		g := callOf[i].join.groups[string(keyBuf)]
		rowGroups[i] = g
		if negated {
			if len(g) == 0 {
				total++
			}
		} else {
			total += len(g)
		}
	}
	if total == 0 {
		return 0, false, nil
	}

	mk := func(n int) *colBatch {
		b := pool.getBatch(prog.numSlots)
		b.n = n
		for _, s := range sp0.copySlots {
			b.cols[s] = pool.getCol(n)
		}
		for _, nc := range sp0.newCols {
			b.cols[nc.slot] = pool.getCol(n)
		}
		return b
	}
	chunk := total
	if limit > 0 && limit < chunk {
		chunk = limit
	}
	ob := mk(chunk)
	emitted, k := 0, 0
	flush := func() bool {
		ob.n = k
		if !emit(ob) {
			return false
		}
		emitted += k
		k = 0
		if rem := total - emitted; rem > 0 {
			c := rem
			if limit > 0 && limit < c {
				c = limit
			}
			ob = mk(c)
		} else {
			ob = nil
		}
		return true
	}
	for i := 0; i < in.n; i++ {
		g := rowGroups[i]
		if negated {
			if len(g) != 0 {
				continue
			}
			for _, s := range sp0.copySlots {
				ob.cols[s][k] = in.cols[s][i]
			}
			k++
			if limit > 0 && k == limit && !flush() {
				return emitted, true, nil
			}
			continue
		}
		if len(g) == 0 {
			continue
		}
		join := callOf[i].join
		for _, ti := range g {
			vals := join.vals[int(ti)*join.arity:]
			for _, s := range sp0.copySlots {
				ob.cols[s][k] = in.cols[s][i]
			}
			for _, nc := range sp0.newCols {
				ob.cols[nc.slot][k] = vals[nc.pos]
			}
			k++
			if limit > 0 && k == limit && !flush() {
				return emitted, true, nil
			}
		}
	}
	if k > 0 && !flush() {
		return emitted, true, nil
	}
	return emitted, false, nil
}
