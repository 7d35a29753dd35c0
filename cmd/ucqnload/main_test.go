package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	ucqn "repro"
	"repro/internal/server"
)

// newLoadTarget serves n fixture tenants over a loopback HTTP server
// and returns its URL and the fixtures.
func newLoadTarget(t *testing.T, n int) (string, []*server.TenantFixture) {
	t.Helper()
	s := server.New(server.Config{})
	fixtures := server.PaperTenants(n)
	for _, f := range fixtures {
		if _, err := s.AddTenant(f.Name, f.Patterns, f.Catalog(), ucqn.Budget{}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL, fixtures
}

// The load generator against a live server must produce a sound report
// with traffic in it.
func TestLoadGenSoundReport(t *testing.T) {
	url, fixtures := newLoadTarget(t, 3)
	report, err := runLoad(context.Background(), url, fixtures, loadConfig{
		Users: 4, Duration: 300 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests == 0 {
		t.Fatal("loadgen made no requests")
	}
	if !report.Sound {
		t.Fatalf("unsound responses: %v", report.Unsound)
	}
	if report.Errors != 0 {
		t.Errorf("errors = %d", report.Errors)
	}
	if report.QPS <= 0 || report.P50MS < 0 || report.P99MS < report.P50MS {
		t.Errorf("latency summary: qps=%.1f p50=%.3f p99=%.3f", report.QPS, report.P50MS, report.P99MS)
	}
}

// The invalidation mix: mid-run /v1/invalidate calls interleave with
// the load, and the generation-watermark check must observe zero
// post-invalidation responses carrying a pre-invalidation generation.
func TestLoadGenInvalidationMixSeesNoStaleRows(t *testing.T) {
	url, fixtures := newLoadTarget(t, 3)
	report, err := runLoad(context.Background(), url, fixtures, loadConfig{
		Users: 4, Duration: 400 * time.Millisecond, Seed: 1,
		InvalidateEvery: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Invalidations == 0 {
		t.Fatal("the invalidator never fired")
	}
	if report.Stale != 0 {
		t.Fatalf("%d responses carried a generation below an acked invalidation watermark: %v",
			report.Stale, report.Unsound)
	}
	if !report.Sound {
		t.Fatalf("unsound responses under the invalidation mix: %v", report.Unsound)
	}
	if report.Config.InvalidateEveryS == 0 {
		t.Error("report config dropped the invalidation cadence")
	}
}
