package main

import (
	"encoding/json"
	"fmt"
)

// metricDef describes one reported metric. It is the single source of
// the names, units and bounds: BENCHMARK.json is `bench -manifest`, and
// -compare judges with the same table.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before it is a regression; 0 on per-layer
	// metrics, which have none.
	Bound float64
}

// endToEnd are the metrics of the timed phase (-trace 0): what a client
// of ucqnd sees, measured over loopback HTTP with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "req/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"complete_ratio", "ratio", "higher", 0.002},
	{"allocs_per_req", "count", "lower", 0.02},
	{"heap_live_mb", "MB", "lower", 0.20},
}

// perLayer are the metrics of the traced run (-trace 1), outermost
// layer first. README.md says which end-to-end metric each should move
// and on which workload.
var perLayer = []metricDef{
	{"server.query_us", "us", "lower", 0},
	{"server.http_us", "us", "lower", 0},
	{"server.sort_us", "us", "lower", 0},
	{"server.encode_us", "us", "lower", 0},
	{"server.resp_bytes", "B", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.allocs_per_req", "count", "lower", 0},
	{"server.shed_ratio", "ratio", "lower", 0},
	{"server.degraded_ratio", "ratio", "lower", 0},
	{"parser.parse_us", "us", "lower", 0},
	{"parser.query_bytes", "B", "lower", 0},
	{"qcache.plan_hit_us", "us", "lower", 0},
	{"qcache.plan_miss_us", "us", "lower", 0},
	{"qcache.plan_hit_ratio", "ratio", "higher", 0},
	{"qcache.plan_evictions_per_req", "count", "lower", 0},
	{"qcache.answers_hit_us", "us", "lower", 0},
	{"qcache.answers_miss_us", "us", "lower", 0},
	{"qcache.answer_hit_ratio", "ratio", "higher", 0},
	{"qcache.partial_reuse_per_req", "count", "higher", 0},
	{"qcache.equiv_hits_per_req", "count", "higher", 0},
	{"qcache.store_us", "us", "lower", 0},
	{"qcache.invalidate_us", "us", "lower", 0},
	{"minimize.union_us", "us", "lower", 0},
	{"containment.canon_us", "us", "lower", 0},
	{"core.reorder_us", "us", "lower", 0},
	{"core.feasible_us", "us", "lower", 0},
	{"core.feasible_budget_exhausted_ratio", "ratio", "lower", 0},
	{"engine.eval_us", "us", "lower", 0},
	{"engine.bindings_per_req", "count", "lower", 0},
	{"engine.deduped_calls_per_req", "count", "higher", 0},
	{"engine.batches_per_req", "count", "lower", 0},
	{"engine.interned_per_req", "count", "lower", 0},
	{"engine.arena_reuses_per_req", "count", "higher", 0},
	{"engine.allocs_per_eval", "count", "lower", 0},
	{"sources.calls_per_req", "count", "lower", 0},
	{"sources.tuples_per_req", "count", "lower", 0},
	{"sources.scan_us", "us", "lower", 0},
	{"sources.lookup_us", "us", "lower", 0},
	{"adapter.round_trips_per_req", "count", "lower", 0},
	{"adapter.bytes_on_wire_per_req", "B", "lower", 0},
	{"adapter.batch_us", "us", "lower", 0},
	{"adapter.overhead_us", "us", "lower", 0},
	{"persist.bytes_per_req", "B", "lower", 0},
	{"persist.writes_per_req", "count", "lower", 0},
	{"persist.fsyncs", "count", "lower", 0},
	{"persist.fsync_ms_total", "ms", "lower", 0},
	{"persist.compactions", "count", "lower", 0},
	{"persist.dir_bytes_end", "B", "lower", 0},
	{"persist.recover_ms", "ms", "lower", 0},
	{"persist.warm_hit_ratio", "ratio", "higher", 0},
	{"trace.layer_sum_ratio", "ratio", "higher", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// deterministic names the per-layer metrics that repeat exactly on a
// single-client, count-driven run: the traced run fails when two fresh
// servers disagree on any of them, and -compare compares them exactly.
var deterministic = map[string]bool{
	"qcache.plan_hit_ratio":         true,
	"qcache.answer_hit_ratio":       true,
	"qcache.partial_reuse_per_req":  true,
	"qcache.equiv_hits_per_req":     true,
	"sources.calls_per_req":         true,
	"sources.tuples_per_req":        true,
	"adapter.round_trips_per_req":   true,
	"adapter.bytes_on_wire_per_req": true,
	"persist.writes_per_req":        true,
}

// runSeconds is the timed phase the driver asks for (BENCHMARK.json
// run_seconds, and the default of -seconds).
const runSeconds = 10

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			return nil, fmt.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
