package engine

// The call table: one execution asks a source each question once.
//
// An execution's source calls are keyed by (relation, pattern, input
// IDs): a step looks each distinct call of its batch up in the
// execution's table, issues only the ones nobody asked before, and
// reads the rest — answered by an earlier batch, an earlier step, or
// another rule — from the table. Within one execution a repeated access
// can return nothing the first one did not (the sources are fixed for
// its duration, Catalog.Held), so the rows, their order and every step's
// bindings are what asking again would give; only the traffic falls.
//
// The key is built without strings: each (relation, pattern) a plan
// accesses has an ordinal (relOrds, stored on the step as
// stepProgram.ord), and a call's key is its ordinal and its input IDs,
// one tuple of an idTable whose dense index numbers the call. An entry
// holds the call's inputs and its rows or its failure. It does not hold
// a join: a join depends on the step's shape, so each step keeps its own
// (stepState.joins).
//
// Concurrent readers — parallel rules, the stages of streamed rules —
// share an entry under the table's mutex. The step that first finds a
// call absent claims it (in flight), issues it through the runtime and
// settles it; a reader that finds it in flight waits, but only after
// settling every call it claimed itself, so no two steps wait on each
// other. A settled call keeps its outcome for the rest of the execution
// when the outcome is its own: its rows, or the source's failure, which
// then fails every step that reads it the same way (so a degraded run
// drops each rule that reads it). A call a step left unissued, or whose
// attempt a context cut off or the budget refused, has no outcome of
// its own: it is released, and the next reader claims it and asks. So
// the budget and the traffic meters are charged once per issued call,
// and the entries that hold an outcome are at most the calls the budget
// admitted.
//
// Runtime.Dedup=false bypasses the table: every binding is a call of
// its own, kept in the step's scratch for one batch.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/access"
	"repro/internal/sources"
)

// relPattern is one (relation, pattern) a plan's steps access.
type relPattern struct {
	rel string
	p   access.Pattern
}

// relOrds numbers the (relation, pattern) pairs of one compiled plan in
// the order its steps first access them. Every rule an execution runs
// is compiled against one relOrds, so a step's ordinal names its part
// of the execution's call table.
type relOrds []relPattern

// of returns the ordinal of (rel, p), numbering it on first sight.
func (o *relOrds) of(rel string, p access.Pattern) int {
	for i, rp := range *o {
		if rp.rel == rel && rp.p == p {
			return i
		}
	}
	*o = append(*o, relPattern{rel, p})
	return len(*o) - 1
}

// callState is where a table entry stands.
type callState uint8

const (
	callAbsent   callState = iota // never issued, or released
	callInFlight                  // claimed by a step that is issuing it
	callDone                      // holds its rows or its failure
)

// stepCall is one distinct (relation, pattern, inputs) call: an entry
// of the execution's call table, or — without Runtime.Dedup — one
// binding's call in its step's scratch.
type stepCall struct {
	inputs []string
	rows   []sources.Tuple
	stats  callStats
	err    error
	// answered says issue gave the call an outcome — rows or an error —
	// instead of leaving it unissued.
	answered bool
	state    callState
	// wait is closed when the in-flight call settles; the first reader
	// that waits makes it.
	wait chan struct{}
}

// kept reports whether an issued call's outcome is its answer for the
// rest of the execution: its rows, or a failure of the source. A call
// left unissued, cut off by a context or refused by the budget has no
// outcome of its own, and is asked again by its next reader.
func (c *stepCall) kept() bool {
	if !c.answered {
		return false
	}
	return c.err == nil || !(errors.Is(c.err, context.Canceled) ||
		errors.Is(c.err, context.DeadlineExceeded) || errors.Is(c.err, ErrCallBudget))
}

// callFailures is the step's error for the failed calls among calls —
// each attributed to its source (callError), all of them joined — or
// nil. Every call in calls is done.
func callFailures(calls []*stepCall, step access.AdornedLiteral) error {
	var errs []error
	for _, c := range calls {
		if c.err != nil {
			errs = append(errs, c.failure(step.Literal.Atom.Pred, step.Pattern))
		}
	}
	return errors.Join(errs...)
}

// failure attributes the call's error to the source it asked.
func (c *stepCall) failure(name string, p access.Pattern) error {
	return &callError{Source: name, Pattern: p, Inputs: strings.Join(c.inputs, ","), Err: c.err}
}

// callTable is an execution's calls: one idTable over (ordinal, input
// IDs) keys — padded with zeros to the widest step's, so that the
// ordinal tells a key's true width — whose dense index i numbers the
// entry calls[i]. Entries and their input windows are cut from chunks,
// each as large as what the batch that needs it enters and as all
// chunks before it, so an entry never moves. The table is recycled
// with its execution (recycle), keeping its keys and one chunk of each
// kind, large enough for the whole finished run. The zero value holds
// nothing; init sizes the keys for the programs an execution runs.
type callTable struct {
	mu    sync.Mutex
	w     int
	keys  idTable
	calls []*stepCall
	// slab and strSlab are the last chunks of entries and of input
	// windows; free and strs what is left of them.
	slab    []stepCall
	strSlab []string
	free    []stepCall
	strs    []string
}

// callChunk is the smallest chunk of entries.
const callChunk = 8

// init readies the table for programs whose (relation, pattern) pairs
// ords numbered.
func (t *callTable) init(ords relOrds) {
	t.free, t.strs = t.slab[:cap(t.slab)], t.strSlab[:cap(t.strSlab)]
	if len(ords) == 0 {
		return
	}
	t.w = 1
	for _, rp := range ords {
		t.w = max(t.w, 1+rp.p.InputCount())
	}
	if t.keys.keys == nil {
		t.keys.keys = make([]uint32, 0, callChunk*t.w)
	}
}

// recycle readies the table for another execution, emptied of the
// finished run's inputs and rows, charging its buffers to k. When the
// run cut more than one chunk of a kind, the chunk kept is one that
// holds the whole run, so that a run like it cuts none. Nothing runs on
// the table.
func (t *callTable) recycle(k *keeper) {
	n, w := len(t.calls), 0
	for _, c := range t.calls {
		w += len(c.inputs)
	}
	t.keys.recycle(k)
	t.calls = keep(k, t.calls)
	t.slab = keep(k, wholeChunk(k, t.slab, n))
	t.strSlab = keep(k, wholeChunk(k, t.strSlab, w))
	t.free, t.strs, t.w = nil, nil, 0
}

// wholeChunk returns chunk when it holds n elements, and else a chunk
// that does when one fits what is left of k.
func wholeChunk[T any](k *keeper, chunk []T, n int) []T {
	var zero T
	if cap(chunk) >= n || n*int(unsafe.Sizeof(zero)) > int(*k) {
		return chunk
	}
	return make([]T, n)
}

// index returns the index of the call key names, numbering it on first
// sight; the caller enters the new calls (enter) in index order. t.mu
// is held.
func (t *callTable) index(key []uint32) int32 {
	for len(key) < t.w {
		key = append(key, 0)
	}
	i, _ := t.keys.insert(key)
	return i
}

// reserve makes room for n new calls of w inputs each. t.mu is held.
func (t *callTable) reserve(n, w int) {
	if n == 0 {
		return
	}
	if len(t.free) < n {
		t.slab = make([]stepCall, max(n, len(t.calls), callChunk))
		t.free = t.slab
	}
	if len(t.strs) < n*w {
		t.strSlab = make([]string, max(n, len(t.calls), callChunk)*w)
		t.strs = t.strSlab
	}
	t.calls = grown(t.calls, len(t.calls)+n)[:len(t.calls)]
}

// enter adds the call numbered len(calls), with an input window of w
// strings for the caller to fill, from the room reserve made. t.mu is
// held.
func (t *callTable) enter(w int) *stepCall {
	c := &t.free[0]
	t.free = t.free[1:]
	if w > 0 {
		c.inputs = t.strs[:w:w]
		t.strs = t.strs[w:]
	}
	t.calls = append(t.calls, c)
	return c
}

// settle publishes the outcome of calls a step claimed and issued: a
// call that keeps its outcome is done for the rest of the execution, any
// other is released. Whoever waits on one of them wakes up.
func (t *callTable) settle(calls []*stepCall) {
	if len(calls) == 0 {
		return
	}
	t.mu.Lock()
	for _, c := range calls {
		if c.kept() {
			c.state = callDone
		} else {
			c.rows, c.err, c.stats, c.answered, c.state = nil, nil, callStats{}, false, callAbsent
		}
		if c.wait != nil {
			close(c.wait)
			c.wait = nil
		}
	}
	t.mu.Unlock()
}

// await waits until every call in need is done. A call it finds released
// it claims into claimed, and returns at once so that the caller issues
// and settles them before it waits on anything; it returns claimed empty
// when every call is done.
func (t *callTable) await(ctx context.Context, need, claimed []*stepCall) ([]*stepCall, error) {
	for {
		var wait chan struct{}
		t.mu.Lock()
		for _, c := range need {
			switch c.state {
			case callAbsent:
				c.state = callInFlight
				claimed = append(claimed, c)
			case callInFlight:
				if wait == nil {
					if c.wait == nil {
						c.wait = make(chan struct{})
					}
					wait = c.wait
				}
			}
		}
		t.mu.Unlock()
		if len(claimed) > 0 || wait == nil {
			return claimed, nil
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return claimed, ctx.Err()
		}
	}
}
