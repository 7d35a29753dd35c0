package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	ucqn "repro"
)

// newTestServer boots a server over n fixture tenants.
func newTestServer(t *testing.T, cfg Config, n int) (*Server, []*TenantFixture) {
	t.Helper()
	s := New(cfg)
	fixtures := PaperTenants(n)
	for _, f := range fixtures {
		if _, err := s.AddTenant(f.Name, f.Patterns, f.Catalog(), ucqn.Budget{}); err != nil {
			t.Fatal(err)
		}
	}
	return s, fixtures
}

// post issues a query over HTTP and returns the response and headers.
func post(t *testing.T, url, tenant, query string) (*Response, http.Header, int) {
	t.Helper()
	body, _ := json.Marshal(Request{Tenant: tenant, Query: query})
	httpResp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var resp Response
	if httpResp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
	}
	return &resp, httpResp.Header, httpResp.StatusCode
}

// relOf rebuilds a Rel from wire rows.
func relOf(rows [][]string) *ucqn.Rel {
	rel := ucqn.NewRel()
	for _, row := range rows {
		rel.Add(ucqn.RowOf(row...))
	}
	return rel
}

func TestServerAnswersEveryTenantExactly(t *testing.T) {
	s, fixtures := newTestServer(t, Config{}, 3)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, f := range fixtures {
		for qi, q := range f.Queries {
			resp, hdr, status := post(t, ts.URL, f.Name, q)
			if status != http.StatusOK {
				t.Fatalf("%s q%d: status %d", f.Name, qi, status)
			}
			if !resp.Complete || resp.Shed || resp.Degraded {
				t.Fatalf("%s q%d: complete=%v shed=%v degraded=%v, want a complete live answer",
					f.Name, qi, resp.Complete, resp.Shed, resp.Degraded)
			}
			if hdr.Get(HeaderComplete) != "true" || hdr.Get(HeaderShed) != "false" {
				t.Fatalf("%s q%d: headers complete=%q shed=%q", f.Name, qi, hdr.Get(HeaderComplete), hdr.Get(HeaderShed))
			}
			if got := relOf(resp.Answers); !got.Equal(f.Expected[qi]) {
				t.Fatalf("%s q%d: answers = %v, ground truth %v", f.Name, qi, got, f.Expected[qi])
			}
		}
	}
	st := s.Stats()
	for _, f := range fixtures {
		ts := st.Tenants[f.Name]
		if ts.Requests != int64(len(f.Queries)) || ts.Errors != 0 || ts.Shed != 0 {
			t.Errorf("%s stats = %+v", f.Name, ts)
		}
	}
}

func TestServerUnknownTenantAndBadQuery(t *testing.T) {
	s, fixtures := newTestServer(t, Config{}, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Whose fault a refused query is: the request's (404, 400, 422) —
	// never a 500, and never counted in the tenant's errors. The fixture
	// declares R^oo S^io L^o.
	name := fixtures[0].Name
	for _, tc := range []struct {
		what, tenant, query string
		want                int
		is                  error
	}{
		{"answerable", name, `Q(x, y) :- R(x, z), S(z, y).`, http.StatusOK, nil},
		{"unknown tenant", "nobody", fixtures[0].Queries[0], http.StatusNotFound, nil},
		{"malformed", name, "this is not a query", http.StatusBadRequest, ErrParseQuery},
		{"S's input never bound", name, `Q(y) :- S(x, y).`, http.StatusUnprocessableEntity, ucqn.ErrNotOrderable},
		{"unknown relation", name, `Q(x) :- Nowhere(x).`, http.StatusUnprocessableEntity, ucqn.ErrNotOrderable},
		{"wrong arity", name, `Q(x) :- R(x).`, http.StatusUnprocessableEntity, ucqn.ErrNotOrderable},
	} {
		if _, _, status := post(t, ts.URL, tc.tenant, tc.query); status != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.what, status, tc.want)
		}
		if _, err := s.Query(context.Background(), tc.tenant, tc.query); tc.is != nil && !errors.Is(err, tc.is) {
			t.Errorf("%s: Query error %v is not %v", tc.what, err, tc.is)
		}
	}
	if st := s.Stats().Tenants[name]; st.Errors != 0 {
		t.Errorf("refused queries counted %d tenant errors, want 0", st.Errors)
	}
	// Bodies over maxRequestBytes are refused on both POST endpoints
	// before they are buffered.
	huge := strings.Repeat("x", maxRequestBytes)
	if _, _, status := post(t, ts.URL, fixtures[0].Name, huge); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized query status = %d, want 413", status)
	}
	body, _ := json.Marshal(Request{Tenant: huge})
	resp, err := http.Post(ts.URL+"/v1/invalidate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized invalidate status = %d, want 413", resp.StatusCode)
	}
}

// Overload must degrade to the certified underestimate, never a 503:
// with the only execution slot occupied and the queue wait elapsed, a
// query with warm cached answers still returns them complete; a cold
// query returns an empty underestimate whose Incompleteness report says
// every disjunct was budget-exhausted. Both are HTTP 200.
func TestServerShedsToCertifiedUnderestimate(t *testing.T) {
	s, fixtures := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 2, QueueWait: 2 * time.Millisecond}, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	f := fixtures[0]
	warm, cold := f.Queries[0], f.Queries[1]

	// Warm the answer cache at full budget. A cold query pays real
	// source calls and the response meters them.
	if resp, _, _ := post(t, ts.URL, f.Name, warm); !resp.Complete {
		t.Fatal("warm-up must answer completely")
	} else if resp.Calls == 0 {
		t.Fatal("cold query reported 0 source calls; Response.Calls must meter real traffic")
	}

	// Occupy the only slot: everything below runs overloaded.
	s.slots <- struct{}{}
	defer func() { <-s.slots }()

	resp, hdr, status := post(t, ts.URL, f.Name, warm)
	if status != http.StatusOK {
		t.Fatalf("shed warm status = %d, want 200", status)
	}
	if !resp.Shed || !resp.Complete {
		t.Fatalf("shed warm: shed=%v complete=%v, want a complete cache-served answer", resp.Shed, resp.Complete)
	}
	if got := relOf(resp.Answers); !got.Equal(f.Expected[0]) {
		t.Fatalf("shed warm answers = %v, want %v", got, f.Expected[0])
	}
	if resp.Calls != 0 {
		t.Errorf("shed request spent %d source calls, want 0", resp.Calls)
	}
	if hdr.Get(HeaderShed) != "true" {
		t.Errorf("%s = %q, want true", HeaderShed, hdr.Get(HeaderShed))
	}

	resp, hdr, status = post(t, ts.URL, f.Name, cold)
	if status != http.StatusOK {
		t.Fatalf("shed cold status = %d, want 200 (never a 503)", status)
	}
	if !resp.Shed || resp.Complete || !resp.Degraded {
		t.Fatalf("shed cold: shed=%v complete=%v degraded=%v", resp.Shed, resp.Complete, resp.Degraded)
	}
	if len(resp.Answers) != 0 {
		t.Errorf("shed cold answers = %v, want the empty underestimate", resp.Answers)
	}
	if resp.Incompleteness == nil || len(resp.Incompleteness.Failed) == 0 {
		t.Fatalf("shed cold: incompleteness = %+v, want budget-exhausted failures", resp.Incompleteness)
	}
	for _, fr := range resp.Incompleteness.Failed {
		if fr.Class != "budget-exhausted" {
			t.Errorf("failure class = %q, want budget-exhausted", fr.Class)
		}
	}
	if h := hdr.Get(HeaderIncompleteness); !strings.Contains(h, "budget-exhausted") {
		t.Errorf("%s = %q, want the compact report naming budget-exhausted", HeaderIncompleteness, h)
	}
	if st := s.Stats(); st.Shed != 2 || st.Tenants[f.Name].Shed != 2 {
		t.Errorf("shed counters = %d global / %d tenant, want 2/2", st.Shed, st.Tenants[f.Name].Shed)
	}
}

// Invalidation bumps the tenant's catalog generation: cached answers
// stop matching and the next query re-reads the sources.
func TestServerInvalidateBustsTenantAnswers(t *testing.T) {
	s, fixtures := newTestServer(t, Config{}, 2)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	f := fixtures[0]
	ctx := context.Background()

	if _, err := s.Query(ctx, f.Name, f.Queries[0]); err != nil {
		t.Fatal(err)
	}
	before := s.Tenant(f.Name).cat.TotalStats().Calls
	if before == 0 {
		t.Fatal("sanity: sources were never called")
	}
	cached, err := s.Query(ctx, f.Name, f.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Complete {
		t.Fatal("cached answer must be complete")
	}
	if after := s.Tenant(f.Name).cat.TotalStats().Calls; after != before {
		t.Fatalf("second query re-read the sources: %d -> %d calls", before, after)
	}

	body, _ := json.Marshal(Request{Tenant: f.Name})
	httpResp, err := http.Post(ts.URL+"/v1/invalidate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		Tenant string `json:"tenant"`
		Gen    int64  `json:"gen"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&ack); err != nil {
		t.Fatalf("invalidate body: %v", err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("invalidate status = %d", httpResp.StatusCode)
	}
	if ack.Gen <= 0 {
		t.Fatalf("invalidate gen = %d, want the bumped generation", ack.Gen)
	}

	if _, err := s.Query(ctx, f.Name, f.Queries[0]); err != nil {
		t.Fatal(err)
	}
	if after := s.Tenant(f.Name).cat.TotalStats().Calls; after <= before {
		t.Fatalf("post-invalidate query served stale cache: calls still %d", after)
	}

	// The sibling tenant's cached answers are untouched by the bump.
	g := fixtures[1]
	if _, err := s.Query(ctx, g.Name, g.Queries[0]); err != nil {
		t.Fatal(err)
	}
	gBefore := s.Tenant(g.Name).cat.TotalStats().Calls
	if _, err := s.Query(ctx, g.Name, g.Queries[0]); err != nil {
		t.Fatal(err)
	}
	if gAfter := s.Tenant(g.Name).cat.TotalStats().Calls; gAfter != gBefore {
		t.Errorf("tenant %s lost its cache to %s's invalidation", g.Name, f.Name)
	}
}

func TestValidateBenchReport(t *testing.T) {
	good := &LoadReport{Experiment: "E24", Requests: 10, QPS: 3.3, Sound: true}
	data, _ := json.Marshal(good)
	if err := ValidateBenchReport(data); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "p99_ms")
	bad, _ := json.Marshal(m)
	if err := ValidateBenchReport(bad); err == nil {
		t.Error("missing p99_ms must fail validation")
	}
	m["p99_ms"] = "fast"
	bad, _ = json.Marshal(m)
	if err := ValidateBenchReport(bad); err == nil {
		t.Error("non-numeric p99_ms must fail validation")
	}
	m["p99_ms"] = 1.0
	m["experiment"] = "E7"
	bad, _ = json.Marshal(m)
	if err := ValidateBenchReport(bad); err == nil {
		t.Error("wrong experiment tag must fail validation")
	}
}

func TestValidateBenchReportE26(t *testing.T) {
	good := &WarmRestartReport{
		Experiment: "E26",
		Config:     WarmRestartConfig{Tenants: 3, DelayMS: 2},
		Queries:    24,
		ColdCalls:  21, ColdP50MS: 0.043, ColdMeanMS: 2.05,
		SteadyCalls: 0, SteadyP50MS: 0.012, SteadyMeanMS: 0.016,
		WarmCalls: 0, WarmP50MS: 0.022, WarmMeanMS: 0.038,
		PersistLoads: 9, PersistDrops: 0, PersistBytes: 1968,
		Sound: true,
	}
	data, _ := json.Marshal(good)
	if err := ValidateBenchReport(data); err != nil {
		t.Fatalf("valid E26 report rejected: %v", err)
	}
	remarshal := func(mutate func(m map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		mutate(m)
		out, _ := json.Marshal(m)
		return out
	}
	if err := ValidateBenchReport(remarshal(func(m map[string]any) { delete(m, "persist_loads") })); err == nil {
		t.Error("missing persist_loads must fail validation")
	}
	if err := ValidateBenchReport(remarshal(func(m map[string]any) { m["warm_p50_ms"] = "fast" })); err == nil {
		t.Error("non-numeric warm_p50_ms must fail validation")
	}
	if err := ValidateBenchReport(remarshal(func(m map[string]any) { m["sound"] = false })); err == nil {
		t.Error("sound=false must fail validation")
	}
	if err := ValidateBenchReport(remarshal(func(m map[string]any) { m["warm_calls"] = 21.0 })); err == nil {
		t.Error("warm_calls above steady state must fail validation")
	}
	if err := ValidateBenchReport(remarshal(func(m map[string]any) { m["persist_loads"] = 0.0 })); err == nil {
		t.Error("zero persist_loads must fail validation")
	}
	if err := ValidateBenchReport(remarshal(func(m map[string]any) { m["warm_mean_ms"] = 9.9 })); err == nil {
		t.Error("warm mean above cold must fail validation")
	}
	if err := ValidateBenchReport(remarshal(func(m map[string]any) { m["cold_calls"] = 0.0 })); err == nil {
		t.Error("zero cold_calls must fail validation")
	}
}

// Every committed BENCH_*.json at the repo root must pass the schema
// gate it was written under — a drifting schema or a hand-edited
// artifact fails here, not in a later comparison script.
func TestCommittedBenchArtifacts(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Skip("no committed bench artifacts")
	}
	for _, path := range matches {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
			continue
		}
		if err := ValidateBenchReport(data); err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
		}
	}
}

// The E26 harness end to end: cold pass pays source calls, the warm
// restart over the same directory pays none, and the report passes the
// committed-artifact schema gate.
func TestRunWarmRestart(t *testing.T) {
	rep, err := RunWarmRestart(context.Background(), t.TempDir(),
		WarmRestartConfig{Tenants: 2, DelayMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColdCalls == 0 {
		t.Error("cold pass made no source calls")
	}
	if rep.WarmCalls != rep.SteadyCalls {
		t.Errorf("warm pass made %d calls, steady state is %d", rep.WarmCalls, rep.SteadyCalls)
	}
	if rep.PersistLoads == 0 {
		t.Error("warm restart loaded nothing from disk")
	}
	if !rep.Sound {
		t.Error("a pass served an unsound answer")
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchReport(data); err != nil {
		t.Errorf("harness report fails its own schema gate: %v", err)
	}
}

// The load generator against a live server must produce a sound,
// schema-valid report with traffic in it.
func TestLoadGenSoundReport(t *testing.T) {
	s, fixtures := newTestServer(t, Config{}, 3)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	report, err := RunLoad(context.Background(), ts.URL, fixtures, LoadConfig{
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
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchReport(data); err != nil {
		t.Errorf("harness output fails its own schema: %v", err)
	}
}

// The invalidation mix: mid-run /v1/invalidate calls interleave with
// the load, and the generation-watermark check must observe zero
// post-invalidation responses carrying a pre-invalidation generation.
func TestLoadGenInvalidationMixSeesNoStaleRows(t *testing.T) {
	s, fixtures := newTestServer(t, Config{}, 3)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	report, err := RunLoad(context.Background(), ts.URL, fixtures, LoadConfig{
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
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchReport(data); err != nil {
		t.Errorf("invalidation-mix report fails the schema gate: %v", err)
	}
}

// A query whose minimization is exponential must cost its tenant a
// bounded number of containment nodes, not the process 25 s of CPU with
// an admission slot held: planning draws on Cache.FeasibleBudget, keeps
// the literals it could not test, and the answer is the naive one.
func TestServerHostileQueryPlansWithinBudget(t *testing.T) {
	const hostile = `Q(x) :- R(x, v0), R(x, v1), R(x, v2), R(x, v3), not S(v0, v1), not S(v1, v2), not S(v2, v3), not S(v3, v0).`
	for _, budget := range []int{0, 1} { // the default, and next to nothing
		s, fixtures := newTestServer(t, Config{Cache: ucqn.QueryCacheOptions{FeasibleBudget: budget}}, 1)
		f := fixtures[0]
		truth, err := ucqn.Exec(context.Background(), ucqn.MustParseQuery(hostile), nil, nil, ucqn.WithNaive(f.Instance))
		if err != nil {
			t.Fatal(err)
		}
		want, err := truth.Rel()
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		resp, err := s.Query(ctx, f.Name, hostile)
		cancel()
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if got := relOf(resp.Answers); !resp.Complete || !got.Equal(want) || want.Len() == 0 {
			t.Fatalf("budget %d: complete=%v answers = %v, ground truth %v", budget, resp.Complete, got, want)
		}
		entry, info := s.Cache().Plan(ucqn.MustParseQuery(hostile), f.Patterns)
		if !info.Hit {
			t.Fatalf("budget %d: the plan must be cached", budget)
		}
		if n := len(entry.Exec().Rules[0].Body); budget == 1 && n != 8 {
			t.Fatalf("budget 1: the plan runs %d literals, want all 8 kept", n)
		}
	}
}
