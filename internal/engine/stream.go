package engine

// Streaming execution: the driver run in a goroutine, its rules on the
// staged schedule (schedule.go), its sink the Stream's channel. Each
// stage still runs through the Runtime — the bounded worker pool, the
// per-source in-flight cap and the retry policy all apply per stage, and
// every stage asks its questions through the execution's one call table
// (calltable.go), so no question is asked twice across batches, stages
// or rules — so a streamed run issues exactly the calls a materialized
// run would, and the drained answer is byte-identical.
//
// Ordering and teardown guarantees:
//
//   - Stream: rules execute in rule order, one pipeline at a time;
//     emission order equals Run's insertion order exactly, except that
//     each rule emits its own rows: a row two rules derive is emitted by
//     both, where Run and Drain hold it once.
//   - Opts.Parallel: all rule pipelines run concurrently and their
//     emissions interleave; the drained set is still equal (set
//     semantics), but insertion order is scheduling-dependent.
//   - A plan that dismissed a rule (answerstar.go): the same pipelines
//     with ANSWER*'s sink in front of the channel; only the
//     underestimate's rows are emitted, in the order above.
//   - Close (or cancelling the caller's context) tears down every stage:
//     all pipeline goroutines exit before Close returns; no goroutine
//     outlives the stream.

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sources"
)

// Stream is a pull-style iterator over the head tuples of a streamed
// plan execution. The usual loop is
//
//	s := rt.StreamEval(ctx, plan, cat, Answered{}, Opts{})
//	defer s.Close()
//	for s.Next() {
//	    use(s.Tuple())
//	}
//	if err := s.Err(); err != nil { ... }
//
// A Stream is single-consumer: Next/Tuple/Err/Close must be called from
// one goroutine. Close is idempotent, releases every pipeline goroutine,
// and must be called even after Next returned false (defer it).
type Stream struct {
	rows   chan []Row
	cancel context.CancelFunc
	wg     sync.WaitGroup // the driver goroutine, which waits for the rest

	cur []Row // batch being handed out
	idx int   // next index into cur

	start time.Time

	mu     sync.Mutex
	err    error
	closed bool
	ttf    time.Duration

	prof     Profile
	rep      Report        // the execution's report; Under and Over unset for a certain plan
	ended    bool          // the driver ran to its end: no failure, not closed early
	drained  *Rel          // what Drain collected
	profDone chan struct{} // closed when prof, rep and ended are assembled
}

// Next advances to the next tuple, blocking until one is available. It
// returns false when the stream is exhausted, failed, or closed; check
// Err afterwards. A row derived by several rules is handed out once per
// rule that derives it, while Drain (and Result.Rel) hold it once: a
// consumer counting distinct rows over Next must deduplicate them.
func (s *Stream) Next() bool {
	if s.idx < len(s.cur) {
		s.idx++
		return true
	}
	for batch := range s.rows {
		if len(batch) == 0 {
			continue
		}
		s.cur, s.idx = batch, 1
		return true
	}
	return false
}

// Tuple returns the current tuple. It is only valid after Next returned
// true, and until the next call to Next.
func (s *Stream) Tuple() Row {
	return s.cur[s.idx-1]
}

// Err returns the first failure of the pipeline, or nil. Cancellations
// caused by Close itself are not errors.
func (s *Stream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close tears the pipeline down: every stage is cancelled and Close
// blocks until all pipeline goroutines have exited. It is idempotent and
// returns Err.
func (s *Stream) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cancel()
	}
	s.mu.Unlock()
	s.cur, s.idx = nil, 0 // invalidate the cursor (Close is consumer-side)
	// Drain so stages blocked on sending can exit, then wait for them.
	for range s.rows {
	}
	s.wg.Wait()
	return s.Err()
}

// Drain consumes the rest of the stream into a Rel and closes it. On a
// stream fresh from Stream (rule-ordered pipelines), the result is
// byte-identical to materializing evaluation: same rows, same insertion
// order.
func (s *Stream) Drain() (*Rel, error) {
	out := NewRel()
	for s.Next() {
		out.Add(s.Tuple())
	}
	if err := s.Close(); err != nil {
		return nil, err
	}
	s.drained = out
	return out, nil
}

// finished reports whether the driver has returned and the profile and
// reports are assembled.
func (s *Stream) finished() bool {
	select {
	case <-s.profDone:
		return true
	default:
		return false
	}
}

// Profile returns the execution profile once the stream has finished
// (exhausted, failed, or closed) and reports whether it is complete. It
// includes per-stage traffic and busy time, the rules' wall-clock, the
// time to first tuple, and the peak number of bindings resident in the
// pipeline.
func (s *Stream) Profile() (Profile, bool) {
	if !s.finished() {
		return Profile{}, false
	}
	return s.prof, true
}

// Report returns the execution's report once the stream has run to its
// end, however it was read. ok is false while the stream is still
// running, and for good when it failed or was closed before the driver
// finished: estimates cut short bound nothing. Under and Over of a plan
// that dismissed no rule are its answer, which the stream does not keep:
// they are set only once Drain has collected it, and nil (empty) after
// a Next loop.
func (s *Stream) Report() (Report, bool) {
	if !s.finished() || !s.ended {
		return Report{}, false
	}
	rep := s.rep
	if rep.Over == nil {
		rep.Under, rep.Over = s.drained, s.drained
	}
	return rep, true
}

// fail records the pipeline's first real failure and cancels every
// stage. Context errors after the consumer closed the stream are the
// teardown working as intended, not failures.
func (s *Stream) fail(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	skip := s.closed && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	if s.err == nil && !skip {
		s.err = err
	}
	s.mu.Unlock()
	s.cancel()
}

// emit delivers one batch of head rows to the consumer, stamping the
// time to first tuple. It returns false when the pipeline is cancelled.
func (s *Stream) emit(ctx context.Context, batch []Row) bool {
	if len(batch) == 0 {
		return true
	}
	s.mu.Lock()
	if s.ttf == 0 {
		s.ttf = time.Since(s.start)
	}
	s.mu.Unlock()
	select {
	case s.rows <- batch:
		return true
	case <-ctx.Done():
		return false
	}
}

// StreamEval starts pipelined evaluation of the plan with explicit
// options and pre-answered rules: the driver runs in a goroutine, its
// sink the stream's channel. One pipeline runs per rule, rules in order
// (rule k+1's pipeline starts when rule k's finishes) unless
// o.Parallel, stages within a rule overlapping. Drained, the stream is
// byte-identical to Run into Into on the same inputs — same rows in the
// same order — and issues the same source calls. Batch size and
// per-stage buffering come from rt.BatchSize and rt.StageBuffer;
// runtime failures surface through Stream.Err. ANSWER*'s sink sits
// between the driver and the channel: the stream of a plan that
// dismissed a rule carries the underestimate, and Report has both
// estimates once the stream has ended.
func (rt *Runtime) StreamEval(ctx context.Context, p core.Plan, cat *sources.Catalog, pre Answered, o Opts) *Stream {
	s := &Stream{
		rows:     make(chan []Row, rt.stageBuffer()),
		profDone: make(chan struct{}),
	}
	star := NewStarSink(p)
	star.locked = o.Parallel
	x := rt.newExecution(cat, o, true, star.sink(s.emit))
	x.compile(p, pre)
	s.start = x.start
	sctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(s.rows)
		defer close(s.profDone)
		prof, rep, err := x.run(sctx)
		x.release()
		s.fail(err)
		if err == nil {
			star.Fill(&rep)
		}
		s.mu.Lock()
		prof.TimeToFirst = s.ttf
		s.prof, s.rep, s.ended = prof, rep, err == nil
		s.mu.Unlock()
	}()
	return s
}
