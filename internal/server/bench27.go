package server

// The E27 bench harness and artifact (BENCH_E27.json): batched IN
// pushdown through the SQL adapter vs the per-call round-trip loop.
// One fan-out join drives a deduplicated binding group of `Bindings`
// lookups into a SQL-backed relation; the batched mode hands the
// adapter the whole group in one Call (one IN (...) statement per
// MaxBatch chunk), the baseline masks the adapter's batching property
// so the engine issues one statement per binding. Both modes run
// against the same in-repo fakedb backend with the same injected
// per-statement latency, the backend's own query counter is the
// round-trip ground truth, and the answers must be identical — the
// pushdown is an execution-cost optimization, never a semantics change.

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	ucqn "repro"
	"repro/internal/access"
	"repro/internal/adapter/fakedb"
	"repro/internal/sources"
)

// BatchPushdownConfig is the E27 workload shape.
type BatchPushdownConfig struct {
	// Bindings is the number of distinct join keys — the size of the
	// deduplicated binding group the adapter batches. 0 means 256.
	Bindings int `json:"bindings"`
	// Fanout is the R multiplicity per key. 0 means 4.
	Fanout int `json:"fanout"`
	// Iters is the number of timed evaluations per mode. 0 means 7.
	Iters int `json:"iters"`
	// LatencyMS is the injected per-statement backend latency; it makes
	// round trips the dominant cost, as on a real network. 0 means 1.
	LatencyMS float64 `json:"latency_ms"`
}

func (c *BatchPushdownConfig) fill() {
	if c.Bindings <= 0 {
		c.Bindings = 256
	}
	if c.Fanout <= 0 {
		c.Fanout = 4
	}
	if c.Iters <= 0 {
		c.Iters = 7
	}
	if c.LatencyMS <= 0 {
		c.LatencyMS = 1
	}
}

// PushdownModeStats is one mode's per-evaluation traffic and latency.
type PushdownModeStats struct {
	// Calls is the logical source calls per evaluation.
	Calls int `json:"calls"`
	// RoundTrips is the backend statements per evaluation (the fakedb
	// query counter divided by Iters).
	RoundTrips int `json:"round_trips"`
	// BytesOnWire is the approximate backend payload per evaluation.
	BytesOnWire int64 `json:"bytes_on_wire"`
	// P50MS and P99MS are evaluation wall-clock percentiles.
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
}

// BatchPushdownReport is the E27 report. Every field is part of the
// schema checked by ValidateBenchReport.
type BatchPushdownReport struct {
	Experiment string              `json:"experiment"` // always "E27"
	Config     BatchPushdownConfig `json:"config"`
	// Bindings is the batched group size actually serviced.
	Bindings int `json:"bindings"`
	// Answers is the answer count (identical in both modes).
	Answers int `json:"answers"`
	// PerCall and Batched are the two modes' measurements.
	PerCall PushdownModeStats `json:"per_call"`
	Batched PushdownModeStats `json:"batched"`
	// RoundTripRatio is PerCall.RoundTrips / Batched.RoundTrips.
	RoundTripRatio float64 `json:"round_trip_ratio"`
	// EqualAnswers records that both modes returned the same relation.
	EqualAnswers bool `json:"equal_answers"`
}

// validateE27 schema-checks a committed E27 report and enforces the
// experiment's acceptance bar: a real binding group, identical answers,
// and at least a 10x round-trip reduction from batching.
func validateE27(raw map[string]json.RawMessage) error {
	checks := []struct {
		key  string
		into any
	}{
		{"experiment", new(string)},
		{"config", new(BatchPushdownConfig)},
		{"bindings", new(int)},
		{"answers", new(int)},
		{"per_call", new(PushdownModeStats)},
		{"batched", new(PushdownModeStats)},
		{"round_trip_ratio", new(float64)},
		{"equal_answers", new(bool)},
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
	var r BatchPushdownReport
	full, _ := json.Marshal(raw)
	if err := json.Unmarshal(full, &r); err != nil {
		return fmt.Errorf("bench report: %w", err)
	}
	if r.Bindings < 256 {
		return fmt.Errorf("bench report: bindings = %d, want >= 256", r.Bindings)
	}
	if r.Answers <= 0 {
		return fmt.Errorf("bench report: answers = %d", r.Answers)
	}
	if !r.EqualAnswers {
		return fmt.Errorf("bench report: equal_answers = false")
	}
	if r.Batched.RoundTrips <= 0 {
		return fmt.Errorf("bench report: batched round_trips = %d", r.Batched.RoundTrips)
	}
	if r.PerCall.RoundTrips < 10*r.Batched.RoundTrips {
		return fmt.Errorf("bench report: per-call %d round trips vs batched %d: less than 10x reduction",
			r.PerCall.RoundTrips, r.Batched.RoundTrips)
	}
	if r.RoundTripRatio < 10 {
		return fmt.Errorf("bench report: round_trip_ratio = %.2f, want >= 10", r.RoundTripRatio)
	}
	return nil
}

// unbatchedSource forwards everything to the adapter but answers "no"
// to the batching property, so the engine hands it groups of one — the
// E27 baseline.
type unbatchedSource struct{ sources.Source }

func (unbatchedSource) Batches() bool { return false }

// RunBatchPushdown runs the E27 comparison and returns its report.
func RunBatchPushdown(ctx context.Context, cfg BatchPushdownConfig) (*BatchPushdownReport, error) {
	cfg.fill()
	q := ucqn.MustParseQuery(`Q(x, y) :- R(x, z), T(z, y).`)
	ps := ucqn.MustParsePatterns(`R^oo T^io`)

	// R fans out in memory; T lives behind the SQL adapter.
	var rRows []sources.Tuple
	for k := 0; k < cfg.Bindings; k++ {
		for f := 0; f < cfg.Fanout; f++ {
			rRows = append(rRows, sources.Tuple{fmt.Sprintf("x%d_%d", k, f), fmt.Sprintf("z%d", k)})
		}
	}
	var tRows [][]string
	for k := 0; k < cfg.Bindings; k++ {
		tRows = append(tRows, []string{fmt.Sprintf("z%d", k), fmt.Sprintf("y%d", k)})
	}
	st := fakedb.StoreFor("e27")
	st.Reset()
	st.Load("t_rel", []string{"zc", "yc"}, tRows)
	st.SetLatency(time.Duration(cfg.LatencyMS * float64(time.Millisecond)))
	defer st.SetLatency(0)

	openT := func() (sources.Source, error) {
		return ucqn.OpenAdapter(ucqn.AdapterSpec{
			Name: "T", Arity: 2, Patterns: []string{"io"},
			Backend: "sql://fakedb/e27", Table: "t_rel", Columns: []string{"zc", "yc"},
		})
	}

	measure := func(wrap func(sources.Source) sources.Source) (PushdownModeStats, *ucqn.Rel, error) {
		adapterT, err := openT()
		if err != nil {
			return PushdownModeStats{}, nil, err
		}
		rTbl, err := sources.NewTable("R", 2, []access.Pattern{"oo"}, rRows)
		if err != nil {
			return PushdownModeStats{}, nil, err
		}
		cat, err := sources.NewCatalog(rTbl, wrap(adapterT))
		if err != nil {
			return PushdownModeStats{}, nil, err
		}
		// Traffic is read off the leaves: unbatchedSource forwards calls,
		// not meters.
		leaves := sources.MustCatalog(rTbl, adapterT)
		st.Reset()
		st.SetLatency(time.Duration(cfg.LatencyMS * float64(time.Millisecond)))
		rt := ucqn.NewRuntime()
		var rel *ucqn.Rel
		lat := make([]time.Duration, 0, cfg.Iters)
		for i := 0; i < cfg.Iters; i++ {
			start := time.Now()
			rel, err = rt.Answer(ctx, q, ps, cat)
			if err != nil {
				return PushdownModeStats{}, nil, err
			}
			lat = append(lat, time.Since(start))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		stats := leaves.TotalStats()
		return PushdownModeStats{
			Calls:       stats.Calls / cfg.Iters,
			RoundTrips:  int(st.Queries()) / cfg.Iters,
			BytesOnWire: st.BytesOnWire() / int64(cfg.Iters),
			P50MS:       float64(pctlDur(lat, 50).Nanoseconds()) / 1e6,
			P99MS:       float64(pctlDur(lat, 99).Nanoseconds()) / 1e6,
		}, rel, nil
	}

	perCall, perCallRel, err := measure(func(s sources.Source) sources.Source { return unbatchedSource{s} })
	if err != nil {
		return nil, fmt.Errorf("per-call mode: %w", err)
	}
	batched, batchedRel, err := measure(func(s sources.Source) sources.Source { return s })
	if err != nil {
		return nil, fmt.Errorf("batched mode: %w", err)
	}

	rep := &BatchPushdownReport{
		Experiment:   "E27",
		Config:       cfg,
		Bindings:     cfg.Bindings,
		Answers:      batchedRel.Len(),
		PerCall:      perCall,
		Batched:      batched,
		EqualAnswers: batchedRel.Equal(perCallRel),
	}
	if batched.RoundTrips > 0 {
		rep.RoundTripRatio = float64(perCall.RoundTrips) / float64(batched.RoundTrips)
	}
	return rep, nil
}
