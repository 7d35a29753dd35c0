package adapter

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/sources"
)

// httpFixture serves a two-column relation over the JSON group protocol
// and returns the opened adapter plus the backend for fault injection.
func httpFixture(t *testing.T, spec Spec, rows []sources.Tuple) (*HTTP, *Backend) {
	t.Helper()
	pats := make([]access.Pattern, 0, len(spec.Patterns))
	for _, p := range spec.Patterns {
		pats = append(pats, access.Pattern(p))
	}
	tbl, err := sources.NewTable(spec.Name, spec.Arity, pats, rows)
	if err != nil {
		t.Fatal(err)
	}
	backend := NewBackend(tbl)
	srv := httptest.NewServer(backend)
	t.Cleanup(srv.Close)
	spec.Backend = srv.URL
	src, err := Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	return src.(*HTTP), backend
}

var httpRows = []sources.Tuple{{"a", "1"}, {"a", "2"}, {"b", "3"}}

func baseHTTPSpec() Spec {
	return Spec{Name: "r", Arity: 2, Patterns: []string{"io", "oo"}}
}

func TestHTTPCallAndBatch(t *testing.T) {
	a, backend := httpFixture(t, baseHTTPSpec(), httpRows)
	rows, err := callOne(context.Background(), a, access.Pattern("io"), []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %v", rows)
	}
	groups, err := a.Call(context.Background(), access.Pattern("io"), [][]string{{"a"}, {"b"}, {"zz"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups[0]) != 2 || len(groups[1]) != 1 || len(groups[2]) != 0 {
		t.Fatalf("groups %v", groups)
	}
	if got := backend.Requests(); got != 2 { // one single call + one batched group
		t.Fatalf("backend saw %d requests, want 2", got)
	}
	stats := a.StatsSnapshot()
	if stats.Calls != 4 || stats.RoundTrips != 2 || stats.BatchedCalls != 3 {
		t.Fatalf("stats %+v", stats)
	}
	if backend.BytesOnWire() == 0 {
		t.Fatal("backend metered no bytes")
	}
}

func TestHTTPCoalescesIdenticalInflight(t *testing.T) {
	a, backend := httpFixture(t, baseHTTPSpec(), httpRows)
	backend.SetLatency(50 * time.Millisecond)
	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows, err := callOne(context.Background(), a, access.Pattern("io"), []string{"a"})
			if err == nil && len(rows) != 2 {
				err = errors.New("wrong rows")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := backend.Requests(); got >= callers {
		t.Fatalf("no coalescing: %d requests for %d identical callers", got, callers)
	}
	stats := a.StatsSnapshot()
	if stats.Calls != callers {
		t.Fatalf("all callers must be counted as calls: %+v", stats)
	}
	if int64(stats.RoundTrips) != backend.Requests() {
		t.Fatalf("adapter round trips %d vs backend requests %d", stats.RoundTrips, backend.Requests())
	}
}

func TestHTTP5xxTransient400Permanent(t *testing.T) {
	a, backend := httpFixture(t, baseHTTPSpec(), httpRows)
	backend.FailNext(1, http.StatusServiceUnavailable)
	_, err := callOne(context.Background(), a, access.Pattern("io"), []string{"a"})
	if err == nil || !sources.IsTransient(err) {
		t.Fatalf("503 must be transient, got %v", err)
	}
	backend.FailNext(1, http.StatusBadRequest)
	_, err = callOne(context.Background(), a, access.Pattern("io"), []string{"a"})
	if err == nil || sources.IsTransient(err) {
		t.Fatalf("400 must be permanent, got %v", err)
	}
	// Drained: next call succeeds.
	if _, err := callOne(context.Background(), a, access.Pattern("io"), []string{"a"}); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPConnRefusedTransient(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // port now refuses connections
	spec := baseHTTPSpec()
	spec.Backend = url
	src, err := Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = callOne(context.Background(), src.(*HTTP), access.Pattern("io"), []string{"a"})
	if err == nil || !sources.IsTransient(err) {
		t.Fatalf("connection refused must be transient, got %v", err)
	}
}

func TestHTTPSlowEndpointHonorsContext(t *testing.T) {
	a, backend := httpFixture(t, baseHTTPSpec(), httpRows)
	backend.SetLatency(500 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := callOne(ctx, a, access.Pattern("io"), []string{"a"})
	if err == nil {
		t.Fatal("slow endpoint returned before its latency")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !sources.IsTransient(err) {
		t.Fatalf("timeout produced a new failure class: %v", err)
	}
	if time.Since(start) > 300*time.Millisecond {
		t.Fatalf("context deadline not honored (took %v)", time.Since(start))
	}
}

func TestHTTPRateLimiterRecordsWaits(t *testing.T) {
	spec := baseHTTPSpec()
	spec.RateLimit = 50 // 20ms per token after the burst
	spec.Burst = 1
	a, _ := httpFixture(t, spec, httpRows)
	for i := 0; i < 4; i++ {
		if _, err := callOne(context.Background(), a, access.Pattern("oo"), nil); err != nil {
			t.Fatal(err)
		}
	}
	stats := a.StatsSnapshot()
	if stats.RateLimitWaits == 0 || stats.RateLimitWait <= 0 {
		t.Fatalf("limiter waits not recorded: %+v", stats)
	}
}

func TestHTTPMalformedResponseTransient(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"groups": [[["only-one-col"]], [], []]}`)) // arity 1, want 2
	}))
	t.Cleanup(srv.Close)
	spec := baseHTTPSpec()
	spec.Backend = srv.URL
	src, err := Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	a := src.(*HTTP)
	_, err = a.Call(context.Background(), access.Pattern("io"), [][]string{{"a"}, {"b"}, {"c"}})
	if err == nil || !sources.IsTransient(err) {
		t.Fatalf("bad arity row must be transient, got %v", err)
	}
	_, err = callOne(context.Background(), a, access.Pattern("io"), []string{"a"}) // 1 input, server answers 3 groups
	if err == nil || !sources.IsTransient(err) {
		t.Fatalf("group/input mismatch must be transient, got %v", err)
	}
}

// A 2xx body over the response limit is refused, and permanently: the
// retry policy must not fetch the same oversized answer again.
func TestHTTPOversizedResponsePermanent(t *testing.T) {
	a, backend := httpFixture(t, baseHTTPSpec(), httpRows)
	full, err := a.Call(context.Background(), access.Pattern("oo"), [][]string{{}})
	if err != nil || len(full[0]) != len(httpRows) {
		t.Fatalf("within the limit: %v, %v", full, err)
	}
	a.respLimit = 16 // the same scan answers with ~50 bytes
	_, err = a.Call(context.Background(), access.Pattern("oo"), [][]string{{}})
	if err == nil || !strings.Contains(err.Error(), "response exceeds 16 bytes") {
		t.Fatalf("err = %v, want the response-limit refusal", err)
	}
	if sources.IsTransient(err) {
		t.Fatalf("an oversized response must not be retryable: %v", err)
	}
	if got := backend.Requests(); got != 2 {
		t.Fatalf("backend requests = %d, want 2", got)
	}
}

// FuzzHTTPAdapterDecode feeds arbitrary 2xx bodies to the response
// decoder: whatever a backend sends, decode either fails or returns
// exactly one group per input with every row of the declared arity.
func FuzzHTTPAdapterDecode(f *testing.F) {
	for _, seed := range []string{
		`{"groups": [[["a","1"],["a","2"]], []]}`,
		`{"groups": [[["a","1"]]]}`,                                    // one group for two inputs
		`{"groups": [[["only-one-col"]], []]}`,                         // wrong arity
		`{"groups": [[["a","1"]], [["b"`,                               // truncated
		`{"groups": null}`,                                             // no groups
		`{"groups": [[[1, 2]], []]}`,                                   // wrong value type
		`{"groups": [[], []]} trailing`,                                // trailing garbage
		`<html>502 Bad Gateway</html>`,                                 // a proxy's error page
		`{"groups": [[["` + strings.Repeat("x", 600) + `","1"]], []]}`, // over the limit
		``,
	} {
		f.Add([]byte(seed))
	}
	a := &HTTP{name: "r", arity: 2, respLimit: 512}
	f.Fuzz(func(t *testing.T, body []byte) {
		groups, err := a.decode(bytes.NewReader(body), 2)
		if err != nil {
			return
		}
		if len(groups) != 2 {
			t.Fatalf("%d groups for 2 inputs", len(groups))
		}
		for _, g := range groups {
			for _, row := range g {
				if len(row) != a.arity {
					t.Fatalf("row %v escaped the arity check", row)
				}
			}
		}
	})
}

func TestTokenBucketNilNeverWaits(t *testing.T) {
	var tb *tokenBucket
	waited, err := tb.wait(context.Background())
	if waited != 0 || err != nil {
		t.Fatalf("nil bucket waited %v err %v", waited, err)
	}
}
