package sources

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/access"
)

// ErrBreakerOpen marks calls rejected by an open circuit breaker. The
// error is terminal, not transient: retrying through an open breaker is
// pointless by construction, so the engine's retry policy never absorbs
// it and degraded executions classify it as a breaker failure.
var ErrBreakerOpen = errors.New("sources: circuit breaker open")

// BreakerState is the circuit breaker's current position.
type BreakerState int32

const (
	// BreakerClosed: calls flow to the inner source; failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: calls fail fast with ErrBreakerOpen without touching
	// the inner source, until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe call is allowed through; its outcome
	// decides between closing and re-opening.
	BreakerHalfOpen
)

// String renders the state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int32(s))
	}
}

// BreakerConfig tunes a Breaker. The zero value gets sensible defaults
// (window 8, threshold 4, cooldown 100ms).
type BreakerConfig struct {
	// Window is the number of most recent call outcomes the failure
	// count is computed over. 0 means 8.
	Window int
	// Threshold opens the circuit when the failures within the window
	// reach it. 0 means half the window (rounded up).
	Threshold int
	// Cooldown is how long the circuit stays open before a half-open
	// probe is allowed. 0 means 100ms.
	Cooldown time.Duration
	// Now is the clock; nil means time.Now. Tests inject a fake clock to
	// step through open → half-open transitions deterministically.
	Now func() time.Time
}

func (c BreakerConfig) window() int {
	if c.Window > 0 {
		return c.Window
	}
	return 8
}

func (c BreakerConfig) threshold() int {
	if c.Threshold > 0 {
		return c.Threshold
	}
	return (c.window() + 1) / 2
}

func (c BreakerConfig) cooldown() time.Duration {
	if c.Cooldown > 0 {
		return c.Cooldown
	}
	return 100 * time.Millisecond
}

// Breaker wraps a Source with a circuit breaker: after Threshold
// failures within a sliding window of Window recent calls the circuit
// opens, and every call fails fast with ErrBreakerOpen instead of
// burning a remote call (and the engine's whole retry budget) on a
// source that is known to be down. After Cooldown the breaker goes
// half-open and lets exactly one probe call through: success closes the
// circuit (window reset), failure re-opens it for another cooldown.
//
// A dead source therefore costs O(Threshold) real calls plus one probe
// per cooldown period, independent of how many bindings, retries, rules,
// or queries would otherwise have called it.
//
// Like every wrapper the Breaker reports the inner source's traffic, so
// Catalog.TotalStats over a wrapped catalog is the real remote traffic
// (fast-failed calls never reached the source and are metered
// separately by Rejected). It is safe for concurrent use.
type Breaker struct {
	forward
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	outcomes []bool // ring buffer of recent outcomes; true = failure
	next     int    // ring index of the oldest entry
	filled   int    // entries in use
	fails    int    // failures among the entries in use
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	trips    int  // closed/half-open → open transitions
	rejected int  // calls failed fast while open
}

// NewBreaker wraps src with a circuit breaker.
func NewBreaker(src Source, cfg BreakerConfig) *Breaker {
	return &Breaker{forward: forward{inner: src}, cfg: cfg, outcomes: make([]bool, cfg.window())}
}

func (b *Breaker) now() time.Time {
	if b.cfg.Now != nil {
		return b.cfg.Now()
	}
	return time.Now()
}

// admit decides whether a call may proceed. It returns probe=true when
// the call is the half-open probe, and a non-nil error when the call
// must fail fast.
func (b *Breaker) admit() (probe bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return false, nil
	case BreakerOpen:
		if b.now().Sub(b.openedAt) >= b.cfg.cooldown() {
			b.state = BreakerHalfOpen
			b.probing = true
			return true, nil
		}
	case BreakerHalfOpen:
		if !b.probing {
			b.probing = true
			return true, nil
		}
	}
	b.rejected++
	return false, fmt.Errorf("sources: %s: %w (state %s, %d trips)", b.inner.Name(), ErrBreakerOpen, b.state, b.trips)
}

// record feeds one call outcome back into the state machine. Context
// cancellation by the caller is not a source failure and leaves the
// window untouched; a deadline expiry is counted (a hung source is a
// failing source).
func (b *Breaker) record(probe bool, err error) {
	failed := err != nil && !errors.Is(err, context.Canceled)
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
		if failed {
			b.state = BreakerOpen
			b.openedAt = b.now()
			b.trips++
		} else {
			b.state = BreakerClosed
			b.reset()
		}
		return
	}
	if b.state != BreakerClosed {
		// A non-probe call that was already in flight when the circuit
		// moved; its outcome no longer drives the state machine.
		return
	}
	if err != nil && errors.Is(err, context.Canceled) {
		return
	}
	b.push(failed)
	if b.fails >= b.cfg.threshold() {
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.trips++
	}
}

// push appends one outcome to the ring buffer, evicting the oldest when
// full. Caller holds b.mu.
func (b *Breaker) push(failed bool) {
	if b.filled == len(b.outcomes) {
		if b.outcomes[b.next] {
			b.fails--
		}
	} else {
		b.filled++
	}
	b.outcomes[b.next] = failed
	if failed {
		b.fails++
	}
	b.next = (b.next + 1) % len(b.outcomes)
}

// reset clears the outcome window. Caller holds b.mu.
func (b *Breaker) reset() {
	for i := range b.outcomes {
		b.outcomes[i] = false
	}
	b.next, b.filled, b.fails = 0, 0, 0
}

// Call implements Source, consulting the circuit before forwarding to
// the inner source. A group is one admission decision and one recorded
// outcome — a failing backend trips the breaker at the same rate
// whether callers batch or not.
func (b *Breaker) Call(ctx context.Context, p access.Pattern, inputs [][]string) ([][]Tuple, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	probe, err := b.admit()
	if err != nil {
		return nil, err
	}
	groups, err := b.inner.Call(ctx, p, inputs)
	b.record(probe, err)
	return groups, err
}

// State returns the breaker's current position, advancing an expired
// open circuit to half-open first so callers observe the state a call
// would see.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cfg.cooldown() {
		return BreakerHalfOpen
	}
	return b.state
}

// Trips returns how many times the circuit has opened.
func (b *Breaker) Trips() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// Rejected returns how many calls failed fast on an open circuit —
// remote calls the breaker saved.
func (b *Breaker) Rejected() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rejected
}

// Reset force-closes the circuit and clears the window and counters.
func (b *Breaker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.probing = false
	b.trips, b.rejected = 0, 0
	b.reset()
}

// BreakerCatalog wraps every source of the catalog with a circuit
// breaker sharing cfg, returning the wrapped catalog and the breaker
// handles (indexed like cat.Names()).
func BreakerCatalog(cat *Catalog, cfg BreakerConfig) (*Catalog, []*Breaker, error) {
	var srcs []Source
	var breakers []*Breaker
	for _, name := range cat.Names() {
		b := NewBreaker(cat.Source(name), cfg)
		srcs = append(srcs, b)
		breakers = append(breakers, b)
	}
	wrapped, err := NewCatalog(srcs...)
	if err != nil {
		return nil, nil, err
	}
	return wrapped, breakers, nil
}
