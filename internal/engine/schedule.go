package engine

// The two step schedules under the rule runner. Both apply a rule's
// compiled steps left to right through applyStepCol — every step asks
// its calls of the execution's one call table — with a stepState per
// step (the joins it built and, where it drops a slot, the bindings it
// has already sent on), and materialize the rule's distinct head rows
// through one headSet; they differ only in when a step sees its
// bindings.
//
//   - whole: each step runs once over the whole binding set, on the
//     runner's goroutine. A step's deduplicated binding group reaches a
//     batching source in one round trip, and nothing is spent on
//     goroutines or channels; no row exists before the last step ends.
//   - staged: each step is a goroutine consuming bounded batches from
//     the step before it, so step k+1 calls its source for the first
//     batches while step k is still fetching later ones, and head rows
//     leave as soon as the last stage produces them. Stages are single
//     goroutines consuming batches in order and applyStepCol fans
//     results out in input-row order, so the rows — and, through the
//     call table and the per-stage stepState, the source calls and the
//     bindings each step sends on — are exactly the whole schedule's.
//
// What selects between them is the API shape the caller asked for: a
// materialized answer (Run) cannot use a row before the last one,
// so it runs whole; an iterator (StreamEval) runs staged.

import (
	"context"
	"sync"
	"time"
	"unsafe"
)

// headSet materializes a rule's distinct head rows. The seen set lives
// in ID space and is carried across the batches of a staged rule, so a
// row whose head repeats — within a batch or across batches — never
// pays string assembly: each distinct row leaves the interned domain
// exactly once. A rule takes its head set from the execution's colPool
// (takeHead, putHead), and the rows it returns are the sink's: only the
// set's keys are recycled.
type headSet struct {
	prog *ruleProgram
	pool *colPool
	seen idTable
	key  []uint32
}

// recycle readies h for another execution, charging it and its
// buffers to k.
func (h *headSet) recycle(k *keeper) {
	k.charge(int(unsafe.Sizeof(*h)))
	h.prog, h.pool = nil, nil
	h.seen.recycle(k)
	h.key = keep(k, h.key)
}

// rows returns the head rows of b not produced before, in row order,
// each a capacity-clipped window of one slab of values. Const and null
// head positions are invariant within a rule, so a row's identity is
// its slot-bound positions only: the rows new to seen are its entries
// from the batch on, in insertion order, and their keys are the rows'
// slot values. The unsafe-plan error (head variable never bound) is
// raised only when bindings reach the head, and stopped's error when it
// has one, looked at every stopCheckEvery bindings.
func (h *headSet) rows(b *colBatch, stopped func() error) ([]Row, error) {
	if b.n == 0 {
		return nil, nil
	}
	prog := h.prog
	if prog.headErr != nil {
		return nil, prog.headErr
	}
	first := h.seen.len()
	for i := 0; i < b.n; i++ {
		if i%stopCheckEvery == 0 {
			if err := stopped(); err != nil {
				return nil, err
			}
		}
		h.key = h.key[:0]
		for _, s := range prog.headSlots {
			h.key = append(h.key, b.cols[s][i])
		}
		h.seen.insert(h.key)
	}
	n := h.seen.len() - first
	if n == 0 {
		return nil, nil
	}
	w, ws := len(prog.head), len(prog.headSlots)
	out := make([]Row, n)
	slab := make([]Value, n*w)
	for r := range out {
		if r%stopCheckEvery == 0 {
			if err := stopped(); err != nil {
				return nil, err
			}
		}
		row := slab[r*w : (r+1)*w : (r+1)*w]
		key := h.seen.keys[(first+r)*ws : (first+r+1)*ws]
		for k := range prog.head {
			switch a := &prog.head[k]; a.kind {
			case headNull:
				row[k] = NullValue
			case headConst:
				row[k] = a.val
			default:
				row[k] = V(h.pool.ids.str(key[0]))
				key = key[1:]
			}
		}
		out[r] = row
	}
	return out, nil
}

// whole runs r's steps each once over the whole binding set and emits
// the rule's rows as one batch — also when there are none: the emit is
// what says the rule ran to completion. The profile keeps only the
// steps the bindings reached.
func (x *execution) whole(ctx context.Context, r *ruleRun, emit func(context.Context, []Row) bool) error {
	prog, pool, rp := r.prog, &x.pool, &r.rp
	st := pool.takeState() // one for the rule's steps in turn
	defer pool.putState(st)
	cur := pool.getBatch(prog.numSlots)
	cur.n = 1 // the single empty binding
	for si := range prog.steps {
		sp := &rp.Steps[si]
		sp.BindingsIn = cur.n
		t0 := time.Now()
		var next *colBatch
		st.reset()
		n, _, err := x.applyStepCol(ctx, prog, si, cur, sp, st, 0, func(b *colBatch) bool {
			next = b
			return true
		})
		sp.Elapsed = time.Since(t0)
		pool.put(cur)
		if err != nil {
			// The failed step keeps its accounting: degraded executions
			// report the traffic a dropped disjunct cost.
			rp.Steps = rp.Steps[:si+1]
			return err
		}
		sp.BindingsOut = n
		// The step's input and output batches are live at once.
		if resident := sp.BindingsIn + n; resident > rp.PeakBindings {
			rp.PeakBindings = resident
		}
		if n == 0 {
			rp.Steps = rp.Steps[:si+1]
			emit(ctx, nil)
			return nil
		}
		cur = next
	}
	h := pool.takeHead(prog)
	rows, err := h.rows(cur, func() error { return x.stopped(ctx) })
	pool.putHead(h)
	pool.put(cur)
	if err != nil {
		return err
	}
	emit(ctx, rows)
	return nil
}

// stagedRule runs r as a chain of stage goroutines connected by bounded
// channels carrying columnar batches, and blocks until every stage has
// exited. Each stage owns one step: it applies the step to each inbound
// batch and sends the surviving rows downstream in batches of at most
// rt.batchSize(); the head stage emits each batch's new rows.
//
// The stages run under a rule-local context: the first failure tears
// down this rule's stages only and is the rule's error — what the
// execution does about it is the driver's business.
func (x *execution) stagedRule(ctx context.Context, r *ruleRun, emit func(context.Context, []Row) bool) error {
	rt, prog, pool, rp := x.rt, r.prog, &x.pool, &r.rp
	rctx, rcancel := context.WithCancel(ctx)
	defer rcancel()
	var failMu sync.Mutex
	var ruleErr error
	fail := func(err error) {
		failMu.Lock()
		// Only the first failure is news: the teardown it starts makes
		// the other stages fail with cancellations.
		if ruleErr == nil {
			ruleErr = err
		}
		failMu.Unlock()
		rcancel()
	}

	depth := rt.stageBuffer()
	chans := make([]chan *colBatch, len(prog.steps)+1)
	for i := range chans {
		chans[i] = make(chan *colBatch, depth)
	}

	var wg sync.WaitGroup
	for i := range prog.steps {
		wg.Add(1)
		go func(i int, in <-chan *colBatch, out chan<- *colBatch) {
			defer wg.Done()
			defer close(out)
			sp := &rp.Steps[i]
			st := pool.takeState() // its joins and seen set extend across the stage's batches
			defer pool.putState(st)
			// send hands one output batch downstream, charging the
			// resident gauge; ownership transfers to the next stage.
			send := func(b *colBatch) bool {
				x.resident.add(int64(b.n))
				select {
				case out <- b:
					return true
				case <-rctx.Done():
					x.resident.add(int64(-b.n))
					pool.put(b)
					return false
				}
			}
			for batch := range in {
				n := batch.n
				sp.BindingsIn += n
				t0 := time.Now()
				sent, stopped, err := x.applyStepCol(rctx, prog, i, batch, sp, st, rt.batchSize(), send)
				sp.Elapsed += time.Since(t0)
				pool.put(batch)
				x.resident.add(int64(-n))
				if err != nil {
					fail(err)
					return
				}
				sp.BindingsOut += sent
				if stopped {
					return
				}
			}
		}(i, chans[i], chans[i+1])
	}

	// Head stage: columnar batches → answer rows → emit. Head strings
	// materialize here, nowhere earlier.
	wg.Add(1)
	go func(in <-chan *colBatch) {
		defer wg.Done()
		h := pool.takeHead(prog)
		defer pool.putHead(h)
		for batch := range in {
			n := batch.n
			rows, err := h.rows(batch, func() error { return x.stopped(rctx) })
			pool.put(batch)
			x.resident.add(int64(-n))
			if err != nil {
				fail(err)
				return
			}
			if len(rows) > 0 && !emit(rctx, rows) {
				return
			}
		}
	}(chans[len(prog.steps)])

	// Seed the pipeline with the single empty binding. The channel has
	// room for it, so the first stage always gets to look at its step: a
	// rule's own planning error is reported even when a sibling's failure
	// has already cancelled the execution.
	seed := pool.getBatch(prog.numSlots)
	seed.n = 1
	x.resident.add(1)
	chans[0] <- seed
	close(chans[0])

	wg.Wait()
	rp.PeakBindings = int(x.resident.max.Load())
	if ruleErr == nil {
		// Stopped without a failure of its own: the context is gone.
		ruleErr = ctx.Err()
	}
	return ruleErr
}
