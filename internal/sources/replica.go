package sources

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
)

// ErrReplicasExhausted marks a call that failed on every replica of a
// replica set. Like ErrBreakerOpen it is the signature of a *terminal*
// condition for degraded execution — a rule degrades to a partial
// answer only when all replicas of a needed source are down — but the
// error additionally satisfies IsTransient when any member failure was
// transient, so the retry policy still gets a shot at a set that merely
// blipped everywhere at once.
var ErrReplicasExhausted = errors.New("sources: all replicas exhausted")

// ReplicasError reports a call that failed on every replica it tried.
// It unwraps to the member errors (so errors.Is/As see through it) and
// matches ErrReplicasExhausted.
type ReplicasError struct {
	Source string   // relation name
	Tried  []string // replica labels in the order they were tried
	Errs   []error  // the corresponding failures
}

// Error implements error.
func (e *ReplicasError) Error() string {
	last := "no replicas"
	if len(e.Errs) > 0 {
		last = e.Errs[len(e.Errs)-1].Error()
	}
	return fmt.Sprintf("sources: %s: all %d replicas exhausted (last: %s)", e.Source, len(e.Errs), last)
}

// Unwrap exposes the member errors to errors.Is/As.
func (e *ReplicasError) Unwrap() []error { return e.Errs }

// Is matches ErrReplicasExhausted.
func (e *ReplicasError) Is(target error) bool { return target == ErrReplicasExhausted }

// ReplicaHealth is the router-facing health snapshot of one replica.
type ReplicaHealth struct {
	Replica     string        // replica label, e.g. "R#1"
	State       BreakerState  // quarantine position
	Calls       int           // completed calls observed
	Failures    int           // failed completed calls
	FailureRate float64       // failures over the sliding outcome window
	EWMALatency time.Duration // moving average call latency
}

// RoutingPolicy orders a replica set's members for the next call.
type RoutingPolicy interface {
	// Rank returns the order in which replicas should be tried: a
	// permutation of the indices of h. tick increments once per routed
	// call, for policies that spread load. An invalid permutation is
	// ignored and replaced by declaration order.
	Rank(tick uint64, h []ReplicaHealth) []int
}

// HealthiestFirst is the default routing policy: replicas are ranked by
// a health score combining EWMA latency and sliding-window failure
// rate, quarantined (breaker-open) replicas sort last, and replicas
// whose scores are within a tolerance band of the best rotate
// round-robin so load spreads across equally healthy members. Untried
// replicas score best, so fresh members are probed immediately.
type HealthiestFirst struct {
	// Tolerance widens the rotation band: a replica joins it when its
	// score is within Tolerance× the best score. 0 means 1.5.
	Tolerance float64
}

func healthScore(h ReplicaHealth) float64 {
	return float64(h.EWMALatency+1) * (1 + 4*h.FailureRate)
}

// Rank implements RoutingPolicy.
func (p HealthiestFirst) Rank(tick uint64, h []ReplicaHealth) []int {
	tol := p.Tolerance
	if tol == 0 {
		tol = 1.5
	}
	avail, quarantined := splitQuarantined(h)
	less := func(a, b int) bool { return healthScore(h[a]) < healthScore(h[b]) }
	sort.SliceStable(avail, func(i, j int) bool { return less(avail[i], avail[j]) })
	sort.SliceStable(quarantined, func(i, j int) bool { return less(quarantined[i], quarantined[j]) })
	band := 0
	if len(avail) > 0 {
		best := healthScore(h[avail[0]])
		band = 1
		for band < len(avail) && healthScore(h[avail[band]]) <= best*tol {
			band++
		}
	}
	out := make([]int, 0, len(h))
	for i := 0; i < band; i++ {
		out = append(out, avail[(int(tick%uint64(band))+i)%band])
	}
	out = append(out, avail[band:]...)
	return append(out, quarantined...)
}

// RoundRobin rotates through non-quarantined replicas regardless of
// latency; quarantined replicas still sort last.
type RoundRobin struct{}

// Rank implements RoutingPolicy.
func (RoundRobin) Rank(tick uint64, h []ReplicaHealth) []int {
	avail, quarantined := splitQuarantined(h)
	out := make([]int, 0, len(h))
	if n := len(avail); n > 0 {
		off := int(tick % uint64(n))
		for i := 0; i < n; i++ {
			out = append(out, avail[(off+i)%n])
		}
	}
	return append(out, quarantined...)
}

func splitQuarantined(h []ReplicaHealth) (avail, quarantined []int) {
	for i := range h {
		if h[i].State == BreakerOpen {
			quarantined = append(quarantined, i)
		} else {
			avail = append(avail, i)
		}
	}
	return avail, quarantined
}

// ReplicaConfig tunes a ReplicaSet. The zero value gets sensible
// defaults (HealthiestFirst routing, window 64, default breaker).
type ReplicaConfig struct {
	// Breaker configures the per-replica quarantine breaker. Its Now
	// hook defaults to ReplicaConfig.Now when unset.
	Breaker BreakerConfig
	// Policy orders replicas per call. nil means HealthiestFirst{}.
	Policy RoutingPolicy
	// Window sizes the per-replica sliding outcome and latency sample
	// windows. 0 means 64.
	Window int
	// Alpha is the EWMA smoothing factor. 0 means DefaultEWMAAlpha.
	Alpha float64
	// Now is the clock used for latency measurement; nil means time.Now.
	Now func() time.Time
}

func (c ReplicaConfig) window() int {
	if c.Window > 0 {
		return c.Window
	}
	return 64
}

// DefaultEWMAAlpha is the smoothing factor of a replica's latency
// moving average (ReplicaStats.EWMALatency).
const DefaultEWMAAlpha = 0.2

// ewma advances a moving average by one sample.
func ewma(prev, sample time.Duration, alpha float64) time.Duration {
	return time.Duration(float64(prev) + alpha*(float64(sample)-float64(prev)))
}

func (c ReplicaConfig) alpha() float64 {
	if c.Alpha > 0 {
		return c.Alpha
	}
	return DefaultEWMAAlpha
}

// ReplicaSet fronts N equivalent replicas of one relation behind the
// ordinary Source interface. A plain call routes to the healthiest
// replica (per the configured policy) and fails over down the ranking
// until one succeeds; each replica sits behind its own circuit breaker,
// so a repeatedly failing replica is quarantined (and later probed)
// exactly like a failing source, without poisoning its siblings. The
// engine's hedged-request path drives replicas individually through
// Ranked/CallReplica. The call fails only when every replica failed,
// with a ReplicasError recording which replica set exhausted.
//
// StatsSnapshot sums the replicas' own metered traffic, so a catalog of
// replica sets still reports the real remote traffic. It is safe for
// concurrent use.
type ReplicaSet struct {
	forward  // identity comes from the first replica; all replicas agree
	patterns []access.Pattern
	cfg      ReplicaConfig
	policy   RoutingPolicy
	replicas []*replicaState
	tick     atomic.Uint64
}

type replicaState struct {
	label string
	src   Source
	brk   *Breaker

	mu       sync.Mutex
	calls    int
	failures int
	outcomes []bool // ring of recent outcomes; true = failure
	next     int
	filled   int
	fails    int
	ewma     time.Duration
	ewmaN    int
	lats     []time.Duration // ring of recent latencies (for percentiles)
	latNext  int
	latFill  int
}

// NewReplicaSet fronts the given replicas, which must agree on name,
// arity, and declared pattern set.
func NewReplicaSet(cfg ReplicaConfig, replicas ...Source) (*ReplicaSet, error) {
	if len(replicas) == 0 {
		return nil, errors.New("sources: replica set needs at least one replica")
	}
	rs := &ReplicaSet{
		forward:  forward{inner: replicas[0]},
		patterns: replicas[0].Patterns(),
		cfg:      cfg,
		policy:   cfg.Policy,
	}
	if rs.policy == nil {
		rs.policy = HealthiestFirst{}
	}
	name, arity := rs.Name(), rs.Arity()
	bcfg := cfg.Breaker
	if bcfg.Now == nil {
		bcfg.Now = cfg.Now
	}
	for i, src := range replicas {
		if src.Name() != name || src.Arity() != arity {
			return nil, fmt.Errorf("sources: replica %d is %s/%d, want %s/%d", i, src.Name(), src.Arity(), name, arity)
		}
		if !samePatternSet(src.Patterns(), rs.patterns) {
			return nil, fmt.Errorf("sources: replica %d of %s declares patterns %v, want %v", i, name, src.Patterns(), rs.patterns)
		}
		rs.replicas = append(rs.replicas, &replicaState{
			label:    fmt.Sprintf("%s#%d", name, i),
			src:      src,
			brk:      NewBreaker(src, bcfg),
			outcomes: make([]bool, cfg.window()),
			lats:     make([]time.Duration, cfg.window()),
		})
	}
	return rs, nil
}

func samePatternSet(ps, want []access.Pattern) bool {
	if len(ps) != len(want) {
		return false
	}
	declared := map[access.Pattern]bool{}
	for _, p := range want {
		declared[p] = true
	}
	seen := map[access.Pattern]bool{}
	for _, p := range ps {
		if !declared[p] || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// Replicas returns the number of replicas in the set.
func (rs *ReplicaSet) Replicas() int { return len(rs.replicas) }

// ReplicaLabel returns the display label of replica idx ("name#idx").
func (rs *ReplicaSet) ReplicaLabel(idx int) string { return rs.replicas[idx].label }

// Breaker returns replica idx's quarantine breaker (for tests and
// diagnostics).
func (rs *ReplicaSet) Breaker(idx int) *Breaker { return rs.replicas[idx].brk }

func (rs *ReplicaSet) now() time.Time {
	if rs.cfg.Now != nil {
		return rs.cfg.Now()
	}
	return time.Now()
}

// Ranked returns the order in which replicas should be tried right now,
// per the routing policy over fresh health snapshots.
func (rs *ReplicaSet) Ranked() []int {
	h := make([]ReplicaHealth, len(rs.replicas))
	for i, r := range rs.replicas {
		h[i] = r.health()
	}
	order := rs.policy.Rank(rs.tick.Add(1)-1, h)
	if !validPermutation(order, len(h)) {
		order = make([]int, len(h))
		for i := range order {
			order[i] = i
		}
	}
	return order
}

func validPermutation(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			return false
		}
		seen[i] = true
	}
	return true
}

// CallReplica sends one group to one specific replica through its
// quarantine breaker and feeds the outcome into that replica's health
// tracking. The engine's hedged-request path uses it to race replicas
// directly.
func (rs *ReplicaSet) CallReplica(ctx context.Context, idx int, p access.Pattern, inputs [][]string) ([][]Tuple, error) {
	if idx < 0 || idx >= len(rs.replicas) {
		return nil, fmt.Errorf("sources: replica set %s has no replica %d", rs.Name(), idx)
	}
	r := rs.replicas[idx]
	start := rs.now()
	groups, err := r.brk.Call(ctx, p, inputs)
	r.observe(rs.now().Sub(start), err, rs.cfg.alpha())
	return groups, err
}

// observe records one completed call into the replica's health state.
// Caller cancellations are not replica failures and breaker fast-fails
// never reached the replica (and would record a misleading ~0 latency),
// so both are skipped; a deadline expiry counts, with its observed
// latency — a hung replica is a slow, failing replica.
func (r *replicaState) observe(el time.Duration, err error, alpha float64) {
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, ErrBreakerOpen)) {
		return
	}
	failed := err != nil
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	if failed {
		r.failures++
	}
	if r.filled == len(r.outcomes) {
		if r.outcomes[r.next] {
			r.fails--
		}
	} else {
		r.filled++
	}
	r.outcomes[r.next] = failed
	if failed {
		r.fails++
	}
	r.next = (r.next + 1) % len(r.outcomes)
	r.ewmaN++
	if r.ewmaN == 1 {
		r.ewma = el
	} else {
		r.ewma = ewma(r.ewma, el, alpha)
	}
	r.lats[r.latNext] = el
	r.latNext = (r.latNext + 1) % len(r.lats)
	if r.latFill < len(r.lats) {
		r.latFill++
	}
}

func (r *replicaState) health() ReplicaHealth {
	st := r.brk.State()
	r.mu.Lock()
	defer r.mu.Unlock()
	fr := 0.0
	if r.filled > 0 {
		fr = float64(r.fails) / float64(r.filled)
	}
	return ReplicaHealth{
		Replica:     r.label,
		State:       st,
		Calls:       r.calls,
		Failures:    r.failures,
		FailureRate: fr,
		EWMALatency: r.ewma,
	}
}

// Batches implements Source: failover may route a group to any member,
// so one per-binding replica makes the whole set per-binding.
func (rs *ReplicaSet) Batches() bool {
	for _, r := range rs.replicas {
		if !r.src.Batches() {
			return false
		}
	}
	return true
}

// Call implements Source: the group fails over down the ranked replica
// order as a unit, returning the first success. The contract is checked
// once up front, so a violation — identical on every replica by
// construction — never burns replica calls failing over. A caller
// cancellation stops the failover immediately with the cancelled
// attempt's error; if every replica fails, the combined failure is a
// ReplicasError.
func (rs *ReplicaSet) Call(ctx context.Context, p access.Pattern, inputs [][]string) ([][]Tuple, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := CheckGroup(rs.Name(), rs.patterns, p, inputs); err != nil {
		return nil, err
	}
	order := rs.Ranked()
	tried := make([]int, 0, len(order))
	errs := make([]error, 0, len(order))
	for _, idx := range order {
		groups, err := rs.CallReplica(ctx, idx, p, inputs)
		if err == nil {
			return groups, nil
		}
		tried = append(tried, idx)
		errs = append(errs, err)
		if ctx.Err() != nil {
			return nil, err
		}
	}
	return nil, rs.ExhaustedError(tried, errs)
}

// ExhaustedError builds the error for a call that failed on the listed
// replicas (errs[i] belongs to replica tried[i]). The engine's hedged
// call path uses it so hedged and sequential-failover failures classify
// identically downstream.
func (rs *ReplicaSet) ExhaustedError(tried []int, errs []error) error {
	e := &ReplicasError{Source: rs.Name(), Errs: errs}
	for _, idx := range tried {
		e.Tried = append(e.Tried, rs.replicas[idx].label)
	}
	return e
}

// ObservedLatency returns the q-quantile (0 < q <= 1) of recent call
// latencies pooled across all replicas, and whether enough samples
// exist (at least 8) for it to be meaningful. The engine derives
// percentile-based hedge delays from it.
func (rs *ReplicaSet) ObservedLatency(q float64) (time.Duration, bool) {
	var pool []time.Duration
	for _, r := range rs.replicas {
		r.mu.Lock()
		pool = append(pool, r.lats[:r.latFill]...)
		r.mu.Unlock()
	}
	if len(pool) < 8 {
		return 0, false
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	idx := int(q * float64(len(pool)-1))
	return pool[idx], true
}

// ReplicaStats is the per-replica health and traffic breakdown.
type ReplicaStats struct {
	Replica     string        // replica label
	State       BreakerState  // quarantine position
	Calls       int           // completed calls observed by the router
	Failures    int           // failed completed calls
	FailureRate float64       // failures over the sliding window
	EWMALatency time.Duration // moving average call latency
	Trips       int           // quarantine breaker trips
	Rejected    int           // calls fast-failed while quarantined
	Traffic     Stats         // the replica's own metered traffic
}

// ReplicaStats returns the health and traffic breakdown of every
// replica, in declaration order.
func (rs *ReplicaSet) ReplicaStats() []ReplicaStats {
	out := make([]ReplicaStats, len(rs.replicas))
	for i, r := range rs.replicas {
		h := r.health()
		out[i] = ReplicaStats{
			Replica:     h.Replica,
			State:       h.State,
			Calls:       h.Calls,
			Failures:    h.Failures,
			FailureRate: h.FailureRate,
			EWMALatency: h.EWMALatency,
			Trips:       r.brk.Trips(),
			Rejected:    r.brk.Rejected(),
			Traffic:     r.brk.StatsSnapshot(),
		}
	}
	return out
}

// StatsSnapshot implements StatsReporter: the sum of the replicas' own
// metered traffic (each replica's breaker forwards to the replica), so
// a catalog of replica sets reports the real remote traffic.
func (rs *ReplicaSet) StatsSnapshot() Stats {
	var total Stats
	for _, r := range rs.replicas {
		total.Add(r.brk.StatsSnapshot())
	}
	return total
}

// ResetStats implements StatsReporter by forwarding to every replica.
// Routing health (EWMA, failure windows, breaker state) is measurement
// state of the set itself and survives; use ResetHealth to clear it.
func (rs *ReplicaSet) ResetStats() {
	for _, r := range rs.replicas {
		r.brk.ResetStats()
	}
}

// ResetHealth clears every replica's health tracking and force-closes
// its quarantine breaker.
func (rs *ReplicaSet) ResetHealth() {
	for _, r := range rs.replicas {
		r.brk.Reset()
		r.mu.Lock()
		r.calls, r.failures = 0, 0
		for i := range r.outcomes {
			r.outcomes[i] = false
		}
		r.next, r.filled, r.fails = 0, 0, 0
		r.ewma, r.ewmaN = 0, 0
		r.latNext, r.latFill = 0, 0
		r.mu.Unlock()
	}
}

// ReplicaCatalog zips N same-schema catalogs into one catalog of
// replica sets: relation R's source in each catalog becomes one replica
// of R. It returns the combined catalog and the replica-set handles,
// indexed like cat.Names().
func ReplicaCatalog(cfg ReplicaConfig, cats ...*Catalog) (*Catalog, []*ReplicaSet, error) {
	if len(cats) == 0 {
		return nil, nil, errors.New("sources: ReplicaCatalog needs at least one catalog")
	}
	names := cats[0].Names()
	for ci, c := range cats[1:] {
		if got := c.Names(); len(got) != len(names) {
			return nil, nil, fmt.Errorf("sources: replica catalog %d has %d relations, want %d", ci+1, len(got), len(names))
		}
	}
	var srcs []Source
	var sets []*ReplicaSet
	for _, n := range names {
		var reps []Source
		for ci, c := range cats {
			s := c.Source(n)
			if s == nil {
				return nil, nil, fmt.Errorf("sources: replica catalog %d is missing relation %s", ci, n)
			}
			reps = append(reps, s)
		}
		rs, err := NewReplicaSet(cfg, reps...)
		if err != nil {
			return nil, nil, err
		}
		srcs = append(srcs, rs)
		sets = append(sets, rs)
	}
	cat, err := NewCatalog(srcs...)
	if err != nil {
		return nil, nil, err
	}
	return cat, sets, nil
}
