package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	ucqn "repro"
	"repro/internal/containment"
	"repro/internal/engine"
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

// /v1/stats reports the tenants' own interners: after a query,
// interner.entries and bytes are their sums over the mounted tenants,
// and only the queried tenant's interner holds values.
func TestServerStatsSumTenantInterners(t *testing.T) {
	s, fixtures := newTestServer(t, Config{}, 3)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	queried := fixtures[1]
	if _, _, status := post(t, ts.URL, queried.Name, queried.Queries[0]); status != http.StatusOK {
		t.Fatalf("query: status %d", status)
	}
	httpResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var st Stats
	if err := json.NewDecoder(httpResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	var entries int
	var bytes int64
	for _, f := range fixtures {
		n, b := engine.InternerOccupancy(s.Tenant(f.Name).cat)
		if (n > 0) != (f == queried) {
			t.Errorf("%s: its interner holds %d values", f.Name, n)
		}
		entries, bytes = entries+n, bytes+b
	}
	if st.Interner.Entries != entries || st.Interner.Bytes != bytes || entries == 0 {
		t.Errorf("/v1/stats interner = %+v, want the tenants' sum: %d entries, %d bytes", st.Interner, entries, bytes)
	}
}

func TestServerUnknownTenantAndBadQuery(t *testing.T) {
	s, fixtures := newTestServer(t, Config{}, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Whose fault a refused query is: the request's (404, 400, 422) —
	// never a 500, and never counted in the tenant's errors. The fixture
	// declares R^oo S^io L^o. A query no order of which is executable is
	// no refusal: it is answered, incomplete (TestServerAnswersInfeasible).
	name := fixtures[0].Name
	for _, tc := range []struct {
		what, tenant, query string
		want                int
		is                  error
	}{
		{"answerable", name, `Q(x, y) :- R(x, z), S(z, y).`, http.StatusOK, nil},
		{"unknown tenant", "nobody", fixtures[0].Queries[0], http.StatusNotFound, nil},
		{"malformed", name, "this is not a query", http.StatusBadRequest, ErrParseQuery},
		{"S's input never bound", name, `Q(y) :- S(x, y).`, http.StatusOK, nil},
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

// ANSWER* over the wire: a query the tenant's patterns cannot order is
// answered with its certified underestimate. Δ = ∅ makes it complete
// (Example 5); otherwise complete is false, every rule the planner
// dismissed whose rows reached Δ is reported access-limited, naming the
// literals it dismissed, and the answer is not "degraded": no runtime
// failure dropped anything.
func TestServerAnswersInfeasible(t *testing.T) {
	s, fixtures := newTestServer(t, Config{}, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	name := fixtures[0].Name // R^oo S^io L^o
	for _, tc := range []struct {
		query    string
		rows     int
		complete bool
		failed   []FailedRule // class, rule and step only
	}{
		{"Q(x) :- R(x, y).\nQ(x) :- R(x, y), S(z, w).", 6, true, nil},
		{"Q(x, y) :- R(x, y), not L(x).\nQ(x, y) :- R(x, y), S(z, y).", 4, false,
			[]FailedRule{{Rule: 2, Class: "access-limited", Step: "S(z, y)"}}},
		{"Q(y) :- S(x, y).", 0, false, []FailedRule{{Rule: 1, Class: "access-limited", Step: "S(x, y)"}}},
	} {
		resp, hdr, status := post(t, ts.URL, name, tc.query)
		if status != http.StatusOK {
			t.Fatalf("%q: status = %d, want 200", tc.query, status)
		}
		if len(resp.Answers) != tc.rows || resp.Complete != tc.complete || resp.Degraded || resp.Shed {
			t.Errorf("%q: %d rows, complete=%v, degraded=%v, shed=%v; want %d rows, complete=%v, not degraded",
				tc.query, len(resp.Answers), resp.Complete, resp.Degraded, resp.Shed, tc.rows, tc.complete)
		}
		if got := hdr.Get(HeaderComplete); got != strconv.FormatBool(tc.complete) {
			t.Errorf("%q: %s = %q", tc.query, HeaderComplete, got)
		}
		var failed []FailedRule
		if inc := resp.Incompleteness; inc != nil {
			for _, f := range inc.Failed {
				failed = append(failed, FailedRule{Rule: f.Rule, Class: f.Class, Step: f.Step})
			}
		}
		if !slices.Equal(failed, tc.failed) {
			t.Errorf("%q: failed rules %+v, want %+v", tc.query, failed, tc.failed)
		}
		if !tc.complete && !strings.Contains(hdr.Get(HeaderIncompleteness), "access-limited") {
			t.Errorf("%q: %s = %q, want the access-limited class", tc.query, HeaderIncompleteness, hdr.Get(HeaderIncompleteness))
		}
	}
	if st := s.Stats().Tenants[name]; st.Errors != 0 || st.Degraded != 0 {
		t.Errorf("tenant stats %+v: infeasible queries are neither errors nor degraded", st)
	}
}

// A repeated access-limited query costs no source call: each query of
// TestServerAnswersInfeasible makes as many calls on its first
// submission as with the answer tier off — the second 2, R's scan and
// L's, the scan asked once for both rules — and none on a repeat, which
// answers as the first did.
func TestServerInfeasibleHitMakesNoCalls(t *testing.T) {
	uncached, fixtures := newTestServer(t, Config{Cache: ucqn.QueryCacheOptions{DisableAnswers: true}}, 1)
	cached, _ := newTestServer(t, Config{}, 1)
	name := fixtures[0].Name
	for _, tc := range []struct {
		query string
		calls int
	}{
		{"Q(x) :- R(x, y).\nQ(x) :- R(x, y), S(z, w).", 1},
		{"Q(x, y) :- R(x, y), not L(x).\nQ(x, y) :- R(x, y), S(z, y).", 2},
		{"Q(y) :- S(x, y).", 0},
	} {
		var want *Response
		for _, run := range []struct {
			name  string
			s     *Server
			calls int
		}{{"uncached", uncached, tc.calls}, {"uncached, again", uncached, tc.calls}, {"cached miss", cached, tc.calls}, {"cached hit", cached, 0}, {"cached hit, again", cached, 0}} {
			resp, err := run.s.Query(context.Background(), name, tc.query)
			if err != nil {
				t.Fatalf("%q, %s: %v", tc.query, run.name, err)
			}
			if resp.Calls != run.calls {
				t.Errorf("%q, %s: %d source calls, want %d", tc.query, run.name, resp.Calls, run.calls)
			}
			if want == nil {
				want = resp
				continue
			}
			if !slices.EqualFunc(resp.Answers, want.Answers, slices.Equal) || resp.Complete != want.Complete ||
				resp.Degraded != want.Degraded || fmt.Sprint(resp.Incompleteness) != fmt.Sprint(want.Incompleteness) {
				t.Errorf("%q, %s: %+v, want the uncached %+v", tc.query, run.name, resp, want)
			}
		}
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

// A query whose minimization is exponential must cost its tenant a
// bounded number of containment nodes, not the process 25 s of CPU with
// an admission slot held: planning draws on Cache.PlanBudget, keeps
// the literals it could not test, and the answer is the naive one.
func TestServerHostileQueryPlansWithinBudget(t *testing.T) {
	const hostile = `Q(x) :- R(x, v0), R(x, v1), R(x, v2), R(x, v3), not S(v0, v1), not S(v1, v2), not S(v2, v3), not S(v3, v0).`
	for _, budget := range []int{0, 1} { // the default, and next to nothing
		s, fixtures := newTestServer(t, Config{Cache: ucqn.QueryCacheOptions{PlanBudget: budget}}, 1)
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

// A wide union is planned within the plan miss's budget. 20 000
// disjuncts (under the 1 MiB request cap) are 2·10⁸ pairs for the scan
// that drops contained disjuncts, and every pair it looks at is charged
// to the budget minimization shares. With distinct constants no pair
// gets past the signature check, so every disjunct stays; 20 000
// α-renamed copies of one rule drop as many as the budget pays for.
// The yardstick is the linear work any plan miss of the union does:
// parse the text and key each disjunct once (containment.CanonicalForm),
// so the bound scales with the machine and with -race. A plan miss of
// either union takes 0.9–2 times it, and the bound is 4; an unbudgeted
// scan of the 2·10⁸ pairs would take hundreds of times it. Both unions
// answer exactly.
func TestServerWideUnionPlansWithinBudget(t *testing.T) {
	s, fixtures := newTestServer(t, Config{}, 1)
	f := fixtures[0]
	for _, tt := range []struct {
		name, rule string
		keepAll    bool
	}{
		{"distinct constants", `Q(x) :- R(x, "b0_%d").`, true},
		{"α-renamed", `Q(x) :- R(x, y%[1]d), S(y%[1]d, z%[1]d).`, false},
	} {
		var b strings.Builder
		for i := 0; i < 20000; i++ {
			fmt.Fprintf(&b, tt.rule+"\n", i)
		}
		src := b.String()
		start := time.Now()
		q := ucqn.MustParseQuery(src)
		for _, r := range q.Rules {
			containment.CanonicalForm(r)
		}
		linear := time.Since(start)
		start = time.Now()
		entry, info := s.Cache().Plan(q, f.Patterns)
		miss := time.Since(start)
		t.Logf("%s (%d bytes): parse and key %s, plan miss %s, %d rules planned", tt.name, len(src), linear, miss, len(entry.Exec().Rules))
		if info.Hit || entry.Err() != nil {
			t.Fatalf("%s: hit %v, err %v; want a plan miss", tt.name, info.Hit, entry.Err())
		}
		if miss > 4*linear {
			t.Errorf("%s: the plan miss took %s, more than 4× the %s parse and key", tt.name, miss, linear)
		}
		if n := len(entry.Exec().Rules); (tt.keepAll && n != 20000) || (!tt.keepAll && (n == 0 || n == 20000)) {
			t.Errorf("%s: %d rules planned; want all 20000 kept: %v", tt.name, n, tt.keepAll)
		}
		truth, err := ucqn.Exec(context.Background(), q, nil, nil, ucqn.WithNaive(f.Instance))
		if err != nil {
			t.Fatal(err)
		}
		want, err := truth.Rel()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.Query(context.Background(), f.Name, src)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if got := relOf(resp.Answers); !resp.Complete || !got.Equal(want) || want.Len() == 0 {
			t.Errorf("%s: complete=%v answers = %v, ground truth %v", tt.name, resp.Complete, got, want)
		}
	}
}

// A request's join stops at its deadline. The fixture's R has six rows,
// so the k = 7 cross product is 6⁷ = 279 936 rows from seven source
// calls: no call is left to notice the deadline once the join runs, so
// the join and head loops must. Past it, the request degrades like a
// budget stop — answered, incomplete, its rule dropped as
// budget-exhausted — long before the ≈ 200 ms the whole join takes.
func TestServerQueryStopsAtDeadline(t *testing.T) {
	s, fixtures := newTestServer(t, Config{}, 1)
	const cross = `Q(x0, x1, x2, x3, x4, x5, x6) :- R(x0, y0), R(x1, y1), R(x2, y2), R(x3, y3), R(x4, y4), R(x5, y5), R(x6, y6).`
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	resp, err := s.Query(ctx, fixtures[0].Name, cross)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("a request past its deadline must be answered, not fail: %v", err)
	}
	t.Logf("answered in %s", elapsed)
	if resp.Complete || !resp.Degraded || len(resp.Answers) != 0 {
		t.Errorf("complete=%v degraded=%v with %d rows; want the empty underestimate, degraded",
			resp.Complete, resp.Degraded, len(resp.Answers))
	}
	if inc := resp.Incompleteness; inc == nil || len(inc.Failed) != 1 || inc.Failed[0].Class != "budget-exhausted" {
		t.Errorf("incompleteness = %+v, want the one rule dropped as budget-exhausted", inc)
	}
	if elapsed > 120*time.Millisecond {
		t.Errorf("answered after %s: the join ran on past its 20 ms deadline", elapsed)
	}
}
