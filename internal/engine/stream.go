package engine

// Streaming execution: the driver run in a goroutine, its rules on the
// staged schedule (schedule.go), its sink the Stream's channel. Each
// stage still runs through the Runtime — per-step call deduplication
// (extended across batches by the per-stage memo), the bounded worker
// pool, the per-source in-flight cap, and the retry policy all apply
// per stage — so a streamed run issues exactly the calls a materialized
// run would, and the drained answer is byte-identical.
//
// Ordering and teardown guarantees:
//
//   - Stream: rules execute in rule order, one pipeline at a time;
//     emission order equals Answer's insertion order exactly.
//   - StreamParallel: all rule pipelines run concurrently and their
//     emissions interleave; the drained set is still equal (set
//     semantics), but insertion order is scheduling-dependent.
//   - StreamAnswerStar (answerstar.go): the same pipelines over Qᵒ with
//     ANSWER*'s sink in front of the channel; only the underestimate's
//     rows are emitted, in the order above.
//   - Close (or cancelling the caller's context) tears down every stage:
//     all pipeline goroutines exit before Close returns; no goroutine
//     outlives the stream.

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/logic"
	"repro/internal/sources"
)

// Stream is a pull-style iterator over the head tuples of a streamed
// plan execution. The usual loop is
//
//	s, err := rt.Stream(ctx, q, ps, cat)
//	if err != nil { ... }
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
	inc      *Incompleteness // partial-results report; nil in strict mode
	star     *AnswerStar     // ANSWER* report; nil unless StreamAnswerStar ran to its end
	profDone chan struct{}   // closed when prof (and inc, star) are fully assembled
}

// Next advances to the next tuple, blocking until one is available. It
// returns false when the stream is exhausted, failed, or closed; check
// Err afterwards.
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

// Incomplete returns the degradation report of a partial-results stream
// once it has finished (exhausted, failed, or closed). ok is false while
// the stream is still running or when the stream was not started with
// Opts.Partial.
func (s *Stream) Incomplete() (Incompleteness, bool) {
	if !s.finished() || s.inc == nil {
		return Incompleteness{}, false
	}
	return *s.inc, true
}

// Star returns the ANSWER* report of a stream started by
// StreamAnswerStar once it has run to its end. ok is false while the
// stream is still running, and for good when it failed or was closed
// early: estimates cut short bound nothing.
func (s *Stream) Star() (AnswerStar, bool) {
	if !s.finished() || s.star == nil {
		return AnswerStar{}, false
	}
	return *s.star, true
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

// Stream starts pipelined evaluation of the executable plan: one
// pipeline per rule, rules in order (rule k+1's pipeline starts when
// rule k's finishes), stages within a rule overlapping. The answer
// stream, drained, is byte-identical to rt.Answer on the same inputs —
// same rows in the same order — and issues the same source calls.
// Batch size and per-stage buffering come from rt.BatchSize and
// rt.StageBuffer.
//
// The error return covers plan compilation (a rule not executable as
// written); runtime failures surface through Stream.Err.
func (rt *Runtime) Stream(ctx context.Context, u logic.UCQ, ps *access.Set, cat *sources.Catalog) (*Stream, error) {
	return rt.StreamEval(ctx, u, ps, cat, Answered{}, Opts{})
}

// StreamParallel is Stream with all rule pipelines running concurrently
// (the paper's "execute each rule separately, possibly in parallel").
// Emission interleaving is scheduling-dependent; the drained answer set
// is still equal to rt.Answer's.
func (rt *Runtime) StreamParallel(ctx context.Context, u logic.UCQ, ps *access.Set, cat *sources.Catalog) (*Stream, error) {
	return rt.StreamEval(ctx, u, ps, cat, Answered{}, Opts{Parallel: true})
}

// StreamEval starts pipelined evaluation with explicit options and
// pre-answered rules; Stream and StreamParallel are thin wrappers over
// it. The plan is compiled before it returns; the driver then runs in a
// goroutine, its sink the stream's channel.
func (rt *Runtime) StreamEval(ctx context.Context, u logic.UCQ, ps *access.Set, cat *sources.Catalog, pre Answered, o Opts) (*Stream, error) {
	return rt.stream(ctx, u, ps, cat, pre, o, nil)
}

// stream is StreamEval with, for ANSWER*, star's sink between the driver
// and the stream's channel (nil: every row is emitted).
func (rt *Runtime) stream(ctx context.Context, u logic.UCQ, ps *access.Set, cat *sources.Catalog, pre Answered, o Opts, star *starSink) (*Stream, error) {
	s := &Stream{
		rows:     make(chan []Row, rt.stageBuffer()),
		profDone: make(chan struct{}),
	}
	sink := func(ctx context.Context, _ int, rows []Row) (int, bool) {
		return len(rows), s.emit(ctx, rows)
	}
	if star != nil {
		sink = star.sink(s.emit)
	}
	x := rt.newExecution(cat, o, true, sink)
	if err := x.compile(u, ps, pre); err != nil {
		return nil, err
	}
	s.start = x.start
	sctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(s.rows)
		defer close(s.profDone)
		prof, inc, err := x.run(sctx)
		s.fail(err)
		if star != nil && err == nil {
			report := star.report(inc)
			s.star = &report
		}
		s.mu.Lock()
		prof.TimeToFirst = s.ttf
		s.prof, s.inc = prof, inc
		s.mu.Unlock()
	}()
	return s, nil
}
