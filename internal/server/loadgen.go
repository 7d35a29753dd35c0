package server

// Closed-loop load generator and the E24 bench harness. N simulated
// users issue a Zipf-distributed query mix against a running ucqnd,
// verify every response against the fixture's naive ground truth
// (complete answers must be exact; shed or degraded answers must be
// subsets — the soundness half of the ANSWER* contract), and the run is
// summarized as BENCH_E24.json with p50/p99/QPS so later PRs have a
// perf trajectory to compare against.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	ucqn "repro"
)

// LoadConfig shapes one load run.
type LoadConfig struct {
	// Users is the number of closed-loop clients; 0 means 8.
	Users int
	// Duration is how long the run lasts; 0 means 3s.
	Duration time.Duration
	// Seed makes the query mix reproducible.
	Seed int64
	// ZipfS is the Zipf skew parameter (>1); 0 means 1.2.
	ZipfS float64
	// InvalidateEvery, when positive, runs a background invalidator
	// that POSTs /v1/invalidate for a random tenant at this interval
	// mid-run. Each ack returns the bumped generation, which becomes
	// the tenant's watermark: every response whose request started
	// after the ack must carry Gen >= watermark, or the run reports it
	// stale (a row cached before the invalidation leaked through).
	InvalidateEvery time.Duration
}

func (c LoadConfig) users() int {
	if c.Users > 0 {
		return c.Users
	}
	return 8
}

func (c LoadConfig) duration() time.Duration {
	if c.Duration > 0 {
		return c.Duration
	}
	return 3 * time.Second
}

func (c LoadConfig) zipfS() float64 {
	if c.ZipfS > 1 {
		return c.ZipfS
	}
	return 1.2
}

// LoadReport is the harness output (BENCH_E24.json). Every field is
// part of the schema checked by ValidateBenchReport.
type LoadReport struct {
	Experiment string     `json:"experiment"`
	Config     LoadParams `json:"config"`
	Requests   int        `json:"requests"`
	QPS        float64    `json:"qps"`
	P50MS      float64    `json:"p50_ms"`
	P99MS      float64    `json:"p99_ms"`
	Shed       int        `json:"shed"`
	Degraded   int        `json:"degraded"`
	Complete   int        `json:"complete"`
	Errors     int        `json:"errors"`
	Sound      bool       `json:"sound"`
	Unsound    []string   `json:"unsound,omitempty"`
	// Invalidations counts acked mid-run /v1/invalidate calls (0 when
	// LoadConfig.InvalidateEvery is off); Stale counts responses that
	// violated an invalidation watermark — started after an ack yet
	// carrying an older generation. Any nonzero Stale fails the run.
	Invalidations int `json:"invalidations"`
	Stale         int `json:"stale"`
}

// LoadParams echoes the run's configuration into the report.
type LoadParams struct {
	Users     int     `json:"users"`
	DurationS float64 `json:"duration_s"`
	Tenants   int     `json:"tenants"`
	Queries   int     `json:"queries"`
	ZipfS     float64 `json:"zipf_s"`
	Seed      int64   `json:"seed"`
	// InvalidateEveryS is the mid-run invalidation interval (0 = off).
	InvalidateEveryS float64 `json:"invalidate_every_s,omitempty"`
}

// RunLoad drives the load against baseURL (e.g. "http://127.0.0.1:8099")
// until the duration elapses or ctx is cancelled, and returns the
// report. Soundness is verified per response against the fixtures.
func RunLoad(ctx context.Context, baseURL string, tenants []*TenantFixture, cfg LoadConfig) (*LoadReport, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("loadgen: no tenants")
	}
	nq := len(tenants[0].Queries)
	report := &LoadReport{
		Experiment: "E24",
		Config: LoadParams{
			Users:            cfg.users(),
			DurationS:        cfg.duration().Seconds(),
			Tenants:          len(tenants),
			Queries:          nq,
			ZipfS:            cfg.zipfS(),
			Seed:             cfg.Seed,
			InvalidateEveryS: cfg.InvalidateEvery.Seconds(),
		},
		Sound: true,
	}

	deadline := time.Now().Add(cfg.duration())
	rctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	client := &http.Client{}

	var mu sync.Mutex
	var latencies []time.Duration
	// watermarks holds, per tenant, the highest generation an acked
	// mid-run invalidation reported. A worker snapshots the watermark
	// before issuing a request; the response must come back at or past
	// it (the server took the invalidation before the ack, so any
	// request started after it cannot legitimately see an older
	// generation).
	watermarks := map[string]int64{}
	var wg sync.WaitGroup
	start := time.Now()
	if cfg.InvalidateEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + 104729))
			tick := time.NewTicker(cfg.InvalidateEvery)
			defer tick.Stop()
			for {
				select {
				case <-rctx.Done():
					return
				case <-tick.C:
				}
				f := tenants[rng.Intn(len(tenants))]
				gen, err := postInvalidate(rctx, client, baseURL, f.Name)
				mu.Lock()
				if err != nil {
					if rctx.Err() == nil {
						report.Errors++
					}
				} else {
					report.Invalidations++
					if gen > watermarks[f.Name] {
						watermarks[f.Name] = gen
					}
				}
				mu.Unlock()
			}
		}()
	}
	for u := 0; u < cfg.users(); u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(u)*7919))
			zipf := rand.NewZipf(rng, cfg.zipfS(), 1, uint64(nq-1))
			for rctx.Err() == nil {
				f := tenants[rng.Intn(len(tenants))]
				qi := int(zipf.Uint64())
				mu.Lock()
				wm := watermarks[f.Name]
				mu.Unlock()
				t0 := time.Now()
				resp, err := postQuery(rctx, client, baseURL, f.Name, f.Queries[qi])
				lat := time.Since(t0)
				mu.Lock()
				if err != nil {
					if rctx.Err() == nil {
						report.Errors++
					}
					mu.Unlock()
					continue
				}
				report.Requests++
				latencies = append(latencies, lat)
				if wm > 0 && resp.Gen < wm {
					report.Stale++
					if len(report.Unsound) < 10 {
						report.Unsound = append(report.Unsound,
							fmt.Sprintf("%s q%d: gen %d below invalidation watermark %d", f.Name, qi, resp.Gen, wm))
					}
				}
				if resp.Shed {
					report.Shed++
				}
				if resp.Degraded {
					report.Degraded++
				}
				if resp.Complete {
					report.Complete++
				}
				if msg := checkSound(f, qi, resp); msg != "" {
					report.Sound = false
					if len(report.Unsound) < 10 {
						report.Unsound = append(report.Unsound, msg)
					}
				}
				mu.Unlock()
			}
		}(u)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// A connection left open without a request in flight keeps the
	// server's Shutdown waiting for its new-connection grace period.
	client.CloseIdleConnections()

	if report.Requests > 0 {
		report.QPS = float64(report.Requests) / elapsed.Seconds()
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		report.P50MS = float64(pctlDur(latencies, 50).Microseconds()) / 1000
		report.P99MS = float64(pctlDur(latencies, 99).Microseconds()) / 1000
	}
	return report, nil
}

// postQuery issues one POST /v1/query and decodes the response.
func postQuery(ctx context.Context, client *http.Client, baseURL, tenant, query string) (*Response, error) {
	body, err := json.Marshal(Request{Tenant: tenant, Query: query})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	httpResp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: status %d", httpResp.StatusCode)
	}
	var resp Response
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// postInvalidate issues one POST /v1/invalidate and returns the acked
// generation watermark.
func postInvalidate(ctx context.Context, client *http.Client, baseURL, tenant string) (int64, error) {
	body, err := json.Marshal(Request{Tenant: tenant})
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/invalidate", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	httpResp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("loadgen: invalidate status %d", httpResp.StatusCode)
	}
	var ack struct {
		Gen int64 `json:"gen"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&ack); err != nil {
		return 0, err
	}
	return ack.Gen, nil
}

// checkSound verifies one response against the ground truth: every
// answer row must be a certain answer, and a response claiming
// completeness must be exactly the ground truth. Returns "" when sound.
func checkSound(f *TenantFixture, qi int, resp *Response) string {
	expected := f.Expected[qi]
	got := ucqn.NewRel()
	for _, row := range resp.Answers {
		r := make(ucqn.Row, len(row))
		for i, v := range row {
			r[i] = ucqn.Value{S: v}
		}
		got.Add(r)
		if !expected.Contains(r) {
			return fmt.Sprintf("%s q%d: row %v not a certain answer", f.Name, qi, row)
		}
	}
	if resp.Complete && !got.Equal(expected) {
		return fmt.Sprintf("%s q%d: claimed complete with %d rows, ground truth has %d",
			f.Name, qi, got.Len(), expected.Len())
	}
	return ""
}

// pctlDur returns the p-th percentile of sorted latencies.
func pctlDur(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

// WriteBenchReport writes the report to path as indented JSON.
func WriteBenchReport(path string, r *LoadReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ValidateBenchReport schema-checks a committed BENCH_*.json document:
// required keys present with the right JSON types and sane values. It
// dispatches on the experiment tag — "E24" is the serving load report
// (LoadReport), "E26" the warm-restart report (WarmRestartReport), "E27"
// the batched pushdown report (BatchPushdownReport), "E28" the
// cache-fleet report (FleetShareReport). CI runs it on the harness outputs so a drifting
// schema fails the build, not a later comparison script.
func ValidateBenchReport(data []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("bench report: not a JSON object: %w", err)
	}
	tag, ok := raw["experiment"]
	if !ok {
		return fmt.Errorf("bench report: missing key %q", "experiment")
	}
	var exp string
	if err := json.Unmarshal(tag, &exp); err != nil {
		return fmt.Errorf("bench report: key %q: %w", "experiment", err)
	}
	switch exp {
	case "E24":
		return validateE24(raw)
	case "E26":
		return validateE26(raw)
	case "E27":
		return validateE27(raw)
	case "E28":
		return validateE28(raw)
	default:
		return fmt.Errorf("bench report: experiment = %q, want E24, E26, E27, or E28", exp)
	}
}

// validateE24 schema-checks the serving load report.
func validateE24(raw map[string]json.RawMessage) error {
	checks := []struct {
		key  string
		into any
	}{
		{"experiment", new(string)},
		{"config", new(LoadParams)},
		{"requests", new(int)},
		{"qps", new(float64)},
		{"p50_ms", new(float64)},
		{"p99_ms", new(float64)},
		{"shed", new(int)},
		{"degraded", new(int)},
		{"complete", new(int)},
		{"errors", new(int)},
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
	var reqs int
	_ = json.Unmarshal(raw["requests"], &reqs)
	if reqs < 0 {
		return fmt.Errorf("bench report: requests = %d", reqs)
	}
	// Stale is required to be zero when present (reports predating the
	// invalidation mix do not carry the key).
	if v, ok := raw["stale"]; ok {
		var stale int
		if err := json.Unmarshal(v, &stale); err != nil {
			return fmt.Errorf("bench report: key %q: %w", "stale", err)
		}
		if stale != 0 {
			return fmt.Errorf("bench report: stale = %d, want 0 (a post-invalidation response carried an old generation)", stale)
		}
	}
	return nil
}
