package engine

// Hedged requests — the classic tail-at-scale move. When a source is
// backed by a replica set, the runtime does not have to sit out one
// replica's latency tail: after a delay (fixed, or derived from the
// set's observed latency percentile) it launches a backup attempt on
// the next-healthiest replica; the first success wins and cancels the
// losers. Every launched leg charges the per-query budget and traffic
// stats exactly once, a leg that fails outright triggers immediate
// failover to the next replica (no timer wait), and the whole round
// composes with the retry policy exactly like a single call: a round
// that fails on every replica is one failed attempt, retried per the
// policy when its combined error is transient.

import (
	"context"
	"errors"
	"time"

	"repro/internal/access"
	"repro/internal/sources"
)

// HedgePolicy enables hedged requests against replicated sources
// (Opts.Hedge). The zero value disables hedging.
type HedgePolicy struct {
	// Delay is the fixed wait before a backup attempt is launched on the
	// next-healthiest replica. When Quantile is also set, Delay is the
	// fallback used until enough latency samples exist.
	Delay time.Duration
	// Quantile, when in (0, 1], derives the hedge delay from the replica
	// set's observed latency distribution: a call hedges once it has
	// outlasted that fraction of recent traffic (0.95 hedges the slowest
	// 5% of calls).
	Quantile float64
	// MaxHedges bounds the timer-launched backup attempts per call.
	// 0 means 1. Failover legs after an outright failure are not
	// hedges and are not bounded by it (they are bounded by the replica
	// count).
	MaxHedges int
}

func (h HedgePolicy) enabled() bool { return h.Delay > 0 || h.Quantile > 0 }

func (h HedgePolicy) maxHedges() int {
	if h.MaxHedges > 0 {
		return h.MaxHedges
	}
	return 1
}

// replicaLeg addresses one replica of a replicated source as a source
// of its own, so a hedged round races its groups through the same
// runLeg as every other call.
type replicaLeg struct {
	*sources.ReplicaSet
	idx int
}

func (l replicaLeg) Call(ctx context.Context, p access.Pattern, inputs [][]string) ([][]sources.Tuple, error) {
	return l.CallReplica(ctx, l.idx, p, inputs)
}

// target reports whether calls to src should run hedged: hedging is
// configured and the source is a replica set (sources.ReplicaSet) of at
// least two replicas, which the round drives one by one in
// health-ranked order.
func (h HedgePolicy) target(src sources.Source) (*sources.ReplicaSet, bool) {
	if !h.enabled() {
		return nil, false
	}
	r, ok := src.(*sources.ReplicaSet)
	if !ok || r.Replicas() < 2 {
		return nil, false
	}
	return r, true
}

// delay picks the wait before a backup leg: the observed latency
// quantile when configured and warmed up, else the fixed delay, with a
// small floor so an unwarmed quantile-only policy does not hedge every
// call instantly.
func (h HedgePolicy) delay(rsrc *sources.ReplicaSet) time.Duration {
	if q := h.Quantile; q > 0 {
		if d, ok := rsrc.ObservedLatency(q); ok && d > 0 {
			return d
		}
	}
	if h.Delay > 0 {
		return h.Delay
	}
	return time.Millisecond
}

// hedgedRound runs one retry-round of a call as a race across replicas:
// the primary leg goes to the best-ranked replica; the hedge timer
// launches backups down the ranking; an outright leg failure fails over
// to the next replica immediately. The first success cancels the rest.
// The round returns once every launched leg has finished (losers
// observe the cancellation and stand down quickly), so counters and
// breaker windows are settled when it does. The caller holds the
// per-source slot for the whole round; legs here must not re-acquire
// it, or a round whose slot-holding primary hangs could never launch
// the backup that cancels it.
func (x *execution) hedgedRound(ctx context.Context, rsrc *sources.ReplicaSet, name string, p access.Pattern, inputs [][]string, gauge *inFlightGauge, cs *callStats) ([][]sources.Tuple, error) {
	order := rsrc.Ranked()
	delay := x.o.Hedge.delay(rsrc)
	maxHedges := x.o.Hedge.maxHedges()

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type legResult struct {
		groups [][]sources.Tuple
		err    error
		idx    int
		backup bool
	}
	results := make(chan legResult, len(order))
	nextLeg, inFlight, hedges := 0, 0, 0
	launch := func(backup bool) error {
		if nextLeg >= len(order) {
			return errNoMoreReplicas
		}
		if err := x.budget.charge(); err != nil {
			return err
		}
		idx := order[nextLeg]
		nextLeg++
		inFlight++
		cs.attempts++
		go func() {
			groups, _, err := x.rt.runLeg(rctx, nil, gauge, replicaLeg{rsrc, idx}, name, p, inputs)
			results <- legResult{groups: groups, err: err, idx: idx, backup: backup}
		}()
		return nil
	}
	if err := launch(false); err != nil {
		return nil, err // budget exhausted before the primary leg
	}

	timer := time.NewTimer(delay)
	defer timer.Stop()
	timerC := timer.C
	var winner *legResult
	var tried []int
	var errs []error
	var budgetErr error
	for inFlight > 0 {
		select {
		case r := <-results:
			inFlight--
			if winner != nil {
				continue // late loser; the round is decided
			}
			if r.err == nil {
				winner = &r
				cancel() // losers stand down; keep draining them
				timerC = nil
				continue
			}
			tried = append(tried, r.idx)
			errs = append(errs, r.err)
			if ctx.Err() != nil {
				continue // caller gone: just drain
			}
			// Failover: a leg that failed outright does not wait for the
			// hedge timer — the next replica is tried immediately.
			if err := launch(r.backup); err != nil && errors.Is(err, ErrCallBudget) {
				budgetErr = err
			}
		case <-timerC:
			timerC = nil
			if err := launch(true); err != nil {
				if errors.Is(err, ErrCallBudget) {
					budgetErr = err
				}
				continue
			}
			hedges++
			cs.hedges++
			if hedges < maxHedges {
				timer.Reset(delay)
				timerC = timer.C
			}
		}
	}
	if winner != nil {
		if winner.backup {
			cs.hedgeWins++
		}
		return winner.groups, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if budgetErr != nil {
		return nil, budgetErr
	}
	if nextLeg >= len(order) {
		return nil, rsrc.ExhaustedError(tried, errs)
	}
	return nil, errors.Join(errs...)
}

// errNoMoreReplicas is the internal launch outcome when the ranking is
// spent; the in-flight legs decide the round.
var errNoMoreReplicas = errors.New("engine: no further replicas to launch")
