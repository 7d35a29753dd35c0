package sources

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/access"
)

// Delayed wraps a Source with a fixed per-call latency — the simulated
// network round trip of a remote web service. DESIGN.md's cost model
// counts calls; Delayed makes each call also cost wall-clock time, which
// is what streaming pipelines and concurrent runtimes overlap. The delay
// honors the caller's context: a cancelled call returns the context
// error without forwarding to the inner source. It is safe for
// concurrent use.
type Delayed struct {
	forward
	d time.Duration

	// Now and Sleep inject the clock, mirroring Breaker's Now hook: nil
	// means the real time.Now and a timer-backed sleep that honors the
	// context. Tests plug in a VirtualClock to step latency without
	// real sleeping. Set them before first use.
	Now   func() time.Time
	Sleep func(ctx context.Context, d time.Duration) error

	mu  sync.Mutex
	lat Stats // latency observations overlaid on the inner snapshot
}

// NewDelayed wraps src so every call — a group of any size — takes at
// least d before the inner source is consulted.
func NewDelayed(src Source, d time.Duration) *Delayed {
	return &Delayed{forward: forward{inner: src}, d: d}
}

func (s *Delayed) clockNow() time.Time {
	if s.Now != nil {
		return s.Now()
	}
	return time.Now()
}

func (s *Delayed) sleep(ctx context.Context, d time.Duration) error {
	if s.Sleep != nil {
		return s.Sleep(ctx, d)
	}
	return sleepContext(ctx, d)
}

// Call implements Source: it sleeps for the configured latency
// (abandoning the call if the context is cancelled first), then
// forwards to the inner source. A group is one round trip, so it pays
// the latency once. Completed calls — successful or failed — are
// metered into the latency aggregates; calls abandoned to the caller's
// context are not.
func (s *Delayed) Call(ctx context.Context, p access.Pattern, inputs [][]string) ([][]Tuple, error) {
	start := s.clockNow()
	if s.d > 0 {
		if err := s.sleep(ctx, s.d); err != nil {
			return nil, err
		}
	}
	groups, err := s.inner.Call(ctx, p, inputs)
	if err == nil || !errors.Is(err, context.Canceled) {
		el := s.clockNow().Sub(start)
		s.mu.Lock()
		s.lat.Observe(el)
		s.mu.Unlock()
	}
	return groups, err
}

// StatsSnapshot implements StatsReporter by forwarding to the wrapped
// source — metered traffic is unaffected by the added latency — and
// overlaying the end-to-end latency observed here (delay included),
// which is what the caller actually experiences.
func (s *Delayed) StatsSnapshot() Stats {
	st := s.forward.StatsSnapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lat.LatencyCalls > 0 {
		st.LatencyCalls = s.lat.LatencyCalls
		st.TotalLatency = s.lat.TotalLatency
	}
	return st
}

// ResetStats implements StatsReporter by forwarding to the wrapped
// source and clearing the local latency aggregates.
func (s *Delayed) ResetStats() {
	s.forward.ResetStats()
	s.mu.Lock()
	s.lat = Stats{}
	s.mu.Unlock()
}

// DelayedCatalog wraps every source of the catalog with the same
// per-call latency, returning the wrapped catalog.
func DelayedCatalog(cat *Catalog, d time.Duration) (*Catalog, error) {
	var srcs []Source
	for _, name := range cat.Names() {
		srcs = append(srcs, NewDelayed(cat.Source(name), d))
	}
	return NewCatalog(srcs...)
}
