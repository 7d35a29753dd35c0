package sources

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/access"
)

// FlakyConfig controls how a Flaky wrapper injects failures. Both knobs
// are deterministic, so tests and benchmarks that exercise the retry
// machinery are reproducible.
type FlakyConfig struct {
	// FailFirst fails the first N calls for each distinct (pattern,
	// inputs) key before letting calls through. Retried calls for the
	// same key therefore eventually succeed.
	FailFirst int
	// FailEveryN, when > 0, fails every Nth call overall (the 1st,
	// N+1st, ... in arrival order), independent of key: a deterministic
	// 1/N failure fraction.
	FailEveryN int
	// Hang turns injected faults from fast errors into hung calls: the
	// call blocks until the caller's context is done and returns the
	// context error (context.DeadlineExceeded under a per-call deadline)
	// instead of a transient error. This is the fault a circuit breaker
	// and per-call deadline exist for — a service that stops answering
	// rather than erroring. A hung call blocks until its context ends,
	// so Hang requires a cancellable context; it composes with Delayed
	// in either order (wrapper latency elapses first when Delayed is
	// outermost).
	Hang bool
}

// Flaky wraps a Source and injects transient failures according to a
// deterministic schedule — the stand-in for rate-limited or unreliable
// web services. Injected failures satisfy IsTransient and never reach
// the inner source, so the inner meters count only successful traffic.
// It is safe for concurrent use.
type Flaky struct {
	forward
	cfg FlakyConfig

	mu       sync.Mutex
	perKey   map[string]int // calls seen per key
	total    int            // calls seen overall
	injected int            // failures injected
}

// NewFlaky wraps src with a deterministic fault injector.
func NewFlaky(src Source, cfg FlakyConfig) *Flaky {
	return &Flaky{forward: forward{inner: src}, cfg: cfg, perKey: map[string]int{}}
}

// Batches implements Source: the schedule is per input vector, so the
// runtime must present vectors one call at a time for seeded fault
// schedules to replay the same traffic whatever sits underneath.
func (f *Flaky) Batches() bool { return false }

// Call implements Source, consulting the failure schedule — one step
// per input vector, in order — before forwarding to the inner source.
// The first vector scheduled to fail fails the whole group; later
// vectors never arrive.
func (f *Flaky) Call(ctx context.Context, p access.Pattern, inputs [][]string) ([][]Tuple, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	failed := -1
	f.mu.Lock()
	for i, in := range inputs {
		key := callKey(p, in)
		f.total++
		f.perKey[key]++
		if f.perKey[key] <= f.cfg.FailFirst ||
			(f.cfg.FailEveryN > 0 && (f.total-1)%f.cfg.FailEveryN == 0) {
			f.injected++
			failed = i
			break
		}
	}
	f.mu.Unlock()
	if failed >= 0 {
		if f.cfg.Hang {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return nil, Transient(fmt.Errorf("sources: %s^%s(%s): injected transient failure", f.Name(), p, strings.Join(inputs[failed], ",")))
	}
	return f.inner.Call(ctx, p, inputs)
}

// Injected returns how many failures the schedule has injected so far.
func (f *Flaky) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// ResetSchedule restarts the failure schedule (the traffic meters of the
// inner source are untouched; use ResetStats for those).
func (f *Flaky) ResetSchedule() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.perKey = map[string]int{}
	f.total, f.injected = 0, 0
}
