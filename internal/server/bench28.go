package server

// The E28 bench harness and artifact (BENCH_E28.json): cache-fleet
// sharing and fleet-wide invalidation through the serving layer. One
// server replica (A, the lease holder) opens over an empty shared
// directory and serves the full fixture mix twice — the cold pass pays
// every source call, the steady pass is the in-memory answer-cache
// regime. A second replica (B, fresh process state, fresh catalogs,
// same directory) joins as a reader, refreshes once, and serves the
// mix: its warm pass must match A's steady state — the answers A paid
// for, not B's sources, service the pass. Then an invalidation
// accepted by B (the *reader*: it travels through B's durable inbox,
// not the shared log) must kill the tenant's answers on BOTH replicas
// within one tick: each side's next query re-reads the sources and
// verifies against ground truth. Every response of every pass is
// checked against the fixture's naive ground truth, so a fleet bug
// that serves a sibling's stale or corrupt rows fails the run, not
// just the numbers.

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	ucqn "repro"
	"repro/internal/qcache/persist"
)

// FleetShareConfig is the E28 workload shape.
type FleetShareConfig struct {
	// Tenants is the fixture tenant count; 0 means 3.
	Tenants int `json:"tenants"`
	// DelayMS is the artificial per-source-call latency, making the
	// cold pass's latency visibly dominated by the round trips the
	// fleet warm start avoids.
	DelayMS float64 `json:"delay_ms"`
}

func (c FleetShareConfig) tenants() int {
	if c.Tenants > 0 {
		return c.Tenants
	}
	return 3
}

// FleetShareReport is the E28 report. Every field is part of the
// schema checked by ValidateBenchReport. Calls are summed over one
// full pass (every tenant × every fixture query).
type FleetShareReport struct {
	Experiment string           `json:"experiment"` // always "E28"
	Config     FleetShareConfig `json:"config"`
	// Queries is the number of requests per pass.
	Queries int `json:"queries"`
	// Cold: replica A's first pass over the empty shared directory.
	ColdCalls  int     `json:"cold_calls"`
	ColdP50MS  float64 `json:"cold_p50_ms"`
	ColdMeanMS float64 `json:"cold_mean_ms"`
	// Steady: A's second pass — the in-memory regime B is measured
	// against.
	SteadyCalls  int     `json:"steady_calls"`
	SteadyP50MS  float64 `json:"steady_p50_ms"`
	SteadyMeanMS float64 `json:"steady_mean_ms"`
	// Warm: replica B's first pass after one follower refresh of the
	// shared state.
	WarmCalls  int     `json:"warm_calls"`
	WarmP50MS  float64 `json:"warm_p50_ms"`
	WarmMeanMS float64 `json:"warm_mean_ms"`
	// InvalidationGen is the generation acked by the reader-side
	// /v1/invalidate; PostInvalidationCallsB and ...CallsA are the
	// source calls each replica paid re-deriving the killed tenant's
	// first query (both must be > 0 — neither side served the corpse).
	InvalidationGen        int64 `json:"invalidation_gen"`
	PostInvalidationCallsB int   `json:"post_invalidation_calls_b"`
	PostInvalidationCallsA int   `json:"post_invalidation_calls_a"`
	// Roles as observed after B's refresh (the lease holder and the
	// follower the numbers belong to).
	RoleA string `json:"role_a"`
	RoleB string `json:"role_b"`
	// Sound records that every response of every pass verified against
	// the naive ground truth.
	Sound bool `json:"sound"`
}

// RunFleetShare runs the E28 experiment over dir, which must be an
// empty (or fresh) directory; the shared fleet state is created there
// and left behind for inspection.
func RunFleetShare(ctx context.Context, dir string, cfg FleetShareConfig) (*FleetShareReport, error) {
	fixtures := PaperTenants(cfg.tenants())
	delay := time.Duration(cfg.DelayMS * float64(time.Millisecond))

	// open boots one replica over the shared dir with fresh catalogs
	// and manual fleet ticks (the harness drives refresh explicitly, so
	// the run is deterministic). Per-append durability keeps the
	// sibling's visible lag at exactly one tick.
	open := func(id string) (*Server, []*ucqn.Catalog, error) {
		s, err := Open(Config{
			FleetDir:        dir,
			FleetID:         id,
			FleetManualTick: true,
			PersistOptions:  persist.Options{SyncEvery: 1},
		})
		if err != nil {
			return nil, nil, err
		}
		cats := make([]*ucqn.Catalog, 0, len(fixtures))
		for _, f := range fixtures {
			cat := f.Catalog()
			if delay > 0 {
				if cat, err = ucqn.DelayedCatalog(cat, delay); err != nil {
					return nil, nil, err
				}
			}
			if _, err := s.AddTenant(f.Name, f.Patterns, cat, ucqn.Budget{}); err != nil {
				return nil, nil, err
			}
			cats = append(cats, cat)
		}
		return s, cats, nil
	}

	rep := &FleetShareReport{
		Experiment: "E28",
		Config:     cfg,
		Sound:      true,
	}

	a, catsA, err := open("replica-a")
	if err != nil {
		return nil, err
	}
	cold, err := fleetSharePass(ctx, a, catsA, fixtures, rep)
	if err != nil {
		return nil, err
	}
	steady, err := fleetSharePass(ctx, a, catsA, fixtures, rep)
	if err != nil {
		return nil, err
	}

	// B joins the live fleet — A stays up (this is replication, not a
	// restart) — and refreshes the follower state once.
	b, catsB, err := open("replica-b")
	if err != nil {
		return nil, fmt.Errorf("join replica-b: %w", err)
	}
	b.Fleet().Tick(time.Now())
	warm, err := fleetSharePass(ctx, b, catsB, fixtures, rep)
	if err != nil {
		return nil, err
	}
	rep.RoleA = a.Fleet().Role().String()
	rep.RoleB = b.Fleet().Role().String()

	// Fleet-wide invalidation, issued on the reader: B re-derives at
	// once; A re-derives after absorbing B's inbox on its next tick.
	f := fixtures[0]
	gen, err := b.Invalidate(f.Name)
	if err != nil {
		return nil, fmt.Errorf("invalidate on reader: %w", err)
	}
	rep.InvalidationGen = gen
	reDerive := func(s *Server, cats []*ucqn.Catalog) (int, error) {
		before := totalCalls(cats)
		resp, err := s.Query(ctx, f.Name, f.Queries[0])
		if err != nil {
			return 0, err
		}
		if msg := checkSound(f, 0, resp); msg != "" {
			rep.Sound = false
		}
		return totalCalls(cats) - before, nil
	}
	if rep.PostInvalidationCallsB, err = reDerive(b, catsB); err != nil {
		return nil, err
	}
	a.Fleet().Tick(time.Now())
	if rep.PostInvalidationCallsA, err = reDerive(a, catsA); err != nil {
		return nil, err
	}

	if err := b.Close(); err != nil {
		return nil, fmt.Errorf("close replica-b: %w", err)
	}
	if err := a.Close(); err != nil {
		return nil, fmt.Errorf("close replica-a: %w", err)
	}

	rep.Queries = cold.queries
	rep.ColdCalls, rep.ColdP50MS, rep.ColdMeanMS = cold.calls, cold.p50MS, cold.meanMS
	rep.SteadyCalls, rep.SteadyP50MS, rep.SteadyMeanMS = steady.calls, steady.p50MS, steady.meanMS
	rep.WarmCalls, rep.WarmP50MS, rep.WarmMeanMS = warm.calls, warm.p50MS, warm.meanMS
	return rep, nil
}

// passStats summarizes one full pass over the fixture mix.
type passStats struct {
	queries int
	calls   int
	p50MS   float64
	meanMS  float64
}

// totalCalls sums the catalogs' cumulative source-call meters.
func totalCalls(cats []*ucqn.Catalog) int {
	total := 0
	for _, c := range cats {
		total += c.TotalStats().Calls
	}
	return total
}

// fleetSharePass serves every fixture query of every tenant once,
// verifying each response against the ground truth and flipping
// rep.Sound on any violation. Source traffic is the pass's delta of
// the catalogs' call meters.
func fleetSharePass(ctx context.Context, s *Server, cats []*ucqn.Catalog, fixtures []*TenantFixture, rep *FleetShareReport) (passStats, error) {
	var ps passStats
	var lats []time.Duration
	before := totalCalls(cats)
	for _, f := range fixtures {
		for qi, q := range f.Queries {
			start := time.Now()
			resp, err := s.Query(ctx, f.Name, q)
			if err != nil {
				return ps, fmt.Errorf("%s q%d: %w", f.Name, qi, err)
			}
			lats = append(lats, time.Since(start))
			ps.queries++
			if msg := checkSound(f, qi, resp); msg != "" {
				rep.Sound = false
			}
		}
	}
	ps.calls = totalCalls(cats) - before
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ps.p50MS = float64(pctlDur(lats, 50).Nanoseconds()) / 1e6
	ps.meanMS = float64(sum.Nanoseconds()) / 1e6 / float64(len(lats))
	return ps, nil
}

// validateE28 schema-checks a FleetShareReport document and enforces
// the acceptance invariants the artifact exists to witness: the
// second replica's warm pass matched the sibling's steady-state call
// count (the shared directory — not B's sources — serviced the pass),
// the reader-issued invalidation re-derived on both replicas, and
// every answer verified.
func validateE28(raw map[string]json.RawMessage) error {
	checks := []struct {
		key  string
		into any
	}{
		{"experiment", new(string)},
		{"config", new(FleetShareConfig)},
		{"queries", new(int)},
		{"cold_calls", new(int)},
		{"cold_p50_ms", new(float64)},
		{"cold_mean_ms", new(float64)},
		{"steady_calls", new(int)},
		{"steady_p50_ms", new(float64)},
		{"steady_mean_ms", new(float64)},
		{"warm_calls", new(int)},
		{"warm_p50_ms", new(float64)},
		{"warm_mean_ms", new(float64)},
		{"invalidation_gen", new(int64)},
		{"post_invalidation_calls_b", new(int)},
		{"post_invalidation_calls_a", new(int)},
		{"role_a", new(string)},
		{"role_b", new(string)},
		{"sound", new(bool)},
	}
	for _, c := range checks {
		v, ok := raw[c.key]
		if !ok {
			return fmt.Errorf("bench report: missing key %q", c.key)
		}
		if err := json.Unmarshal(v, c.into); err != nil {
			return fmt.Errorf("bench report: key %q: %w", c.key, err)
		}
	}
	var r FleetShareReport
	full, _ := json.Marshal(raw)
	if err := json.Unmarshal(full, &r); err != nil {
		return fmt.Errorf("bench report: %w", err)
	}
	if r.Queries <= 0 {
		return fmt.Errorf("bench report: queries = %d", r.Queries)
	}
	if !r.Sound {
		return fmt.Errorf("bench report: sound = false")
	}
	if r.ColdCalls <= 0 {
		return fmt.Errorf("bench report: cold_calls = %d, want > 0", r.ColdCalls)
	}
	if r.WarmCalls > r.SteadyCalls {
		return fmt.Errorf("bench report: replica B's warm_calls = %d did not reach the sibling steady state %d",
			r.WarmCalls, r.SteadyCalls)
	}
	if r.WarmCalls >= r.ColdCalls {
		return fmt.Errorf("bench report: warm_calls = %d, want < cold %d", r.WarmCalls, r.ColdCalls)
	}
	if r.RoleA != "writer" || r.RoleB != "reader" {
		return fmt.Errorf("bench report: roles = %s/%s, want writer/reader", r.RoleA, r.RoleB)
	}
	if r.InvalidationGen <= 0 {
		return fmt.Errorf("bench report: invalidation_gen = %d, want > 0", r.InvalidationGen)
	}
	if r.PostInvalidationCallsB <= 0 || r.PostInvalidationCallsA <= 0 {
		return fmt.Errorf("bench report: post-invalidation calls B=%d A=%d, want both > 0 (a replica served a tombstoned answer)",
			r.PostInvalidationCallsB, r.PostInvalidationCallsA)
	}
	// The per-pass median sits in the cache-hit noise floor;
	// the mean is the enforceable contrast.
	if r.WarmMeanMS >= r.ColdMeanMS {
		return fmt.Errorf("bench report: warm mean %.3fms did not drop below cold %.3fms",
			r.WarmMeanMS, r.ColdMeanMS)
	}
	return nil
}
