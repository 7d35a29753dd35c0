package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	ucqn "repro"
	"repro/internal/qcache/persist"
)

// openFleetServer boots a server replica over the shared dir with
// manual fleet ticks and per-append durability, returning the server
// and the metered catalogs (one per fixture tenant).
func openFleetServer(t *testing.T, dir, id string, fixtures []*TenantFixture) (*Server, []*ucqn.Catalog) {
	t.Helper()
	s, err := Open(Config{
		FleetDir:        dir,
		FleetID:         id,
		FleetManualTick: true,
		PersistOptions:  persist.Options{SyncEvery: 1},
	})
	if err != nil {
		t.Fatalf("Open(%s): %v", id, err)
	}
	cats := make([]*ucqn.Catalog, 0, len(fixtures))
	for _, f := range fixtures {
		cat := f.Catalog()
		if _, err := s.AddTenant(f.Name, f.Patterns, cat, ucqn.Budget{}); err != nil {
			t.Fatal(err)
		}
		cats = append(cats, cat)
	}
	return s, cats
}

// totalCalls sums the catalogs' cumulative source-call meters.
func totalCalls(cats []*ucqn.Catalog) int {
	total := 0
	for _, c := range cats {
		total += c.TotalStats().Calls
	}
	return total
}

// fleetPass serves every fixture query once, verifies each response
// against the ground truth, and returns the pass's source-call delta.
func fleetPass(t *testing.T, s *Server, cats []*ucqn.Catalog, fixtures []*TenantFixture) int {
	t.Helper()
	before := totalCalls(cats)
	for _, f := range fixtures {
		for qi, q := range f.Queries {
			resp, err := s.Query(context.Background(), f.Name, q)
			if err != nil {
				t.Fatalf("%s q%d: %v", f.Name, qi, err)
			}
			if !resp.Complete {
				t.Fatalf("%s q%d: incomplete", f.Name, qi)
			}
			if got := relOf(resp.Answers); !got.Equal(f.Expected[qi]) {
				t.Fatalf("%s q%d: answers = %v, ground truth %v", f.Name, qi, got, f.Expected[qi])
			}
		}
	}
	return totalCalls(cats) - before
}

// Two server replicas over one fleet directory: B warm-starts from
// the answers A paid for, and an invalidation accepted by B kills the
// answer on A within one tick. This is experiment E28, and its source
// calls are pinned exactly over the three-tenant mix: A's cold pass
// pays 21, A's steady pass and B's warm pass pay 0, and the killed
// tenant's first query costs exactly 1 call on B, then 1 on A.
func TestServerFleetWarmStartAndInvalidationFanOut(t *testing.T) {
	dir := t.TempDir()
	fixtures := PaperTenants(3)

	a, catsA := openFleetServer(t, dir, "replica-a", fixtures)
	if a.Fleet().Role().String() != "writer" {
		t.Fatalf("first replica role = %s", a.Fleet().Role())
	}
	if cold := fleetPass(t, a, catsA, fixtures); cold != 21 {
		t.Fatalf("A's cold pass made %d source calls, want 21", cold)
	}
	if steady := fleetPass(t, a, catsA, fixtures); steady != 0 {
		t.Fatalf("A's steady pass made %d source calls, want 0", steady)
	}

	// B joins the same directory with fresh catalogs: after one tick it
	// serves the whole mix at the sibling's steady state — A's disk
	// answers, not B's sources, pay for the pass.
	b, catsB := openFleetServer(t, dir, "replica-b", fixtures)
	if b.Fleet().Role().String() != "reader" {
		t.Fatalf("second replica role = %s", b.Fleet().Role())
	}
	b.Fleet().Tick(time.Now())
	if warm := fleetPass(t, b, catsB, fixtures); warm != 0 {
		t.Fatalf("replica B's warm pass made %d source calls, want 0", warm)
	}

	// Role and lease surface in stats and healthz on both replicas.
	if st := a.Stats(); st.Fleet == nil || st.Fleet.Role != "writer" || st.Fleet.LeaseID != "replica-a" {
		t.Fatalf("A fleet stats = %+v", st.Fleet)
	}
	if st := b.Stats(); st.Fleet == nil || st.Fleet.Role != "reader" {
		t.Fatalf("B fleet stats = %+v", st.Fleet)
	}
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	if body := healthzBody(t, tsA.URL); !strings.Contains(body, "role=writer") || !strings.Contains(body, "staleness_bound_ms=") {
		t.Fatalf("writer healthz = %q", body)
	}

	// reDerive serves the killed tenant's first query on s and returns
	// its source calls, verifying the answer against the ground truth.
	f := fixtures[0]
	reDerive := func(name string, s *Server, cats []*ucqn.Catalog) int {
		t.Helper()
		before := totalCalls(cats)
		resp, err := s.Query(context.Background(), f.Name, f.Queries[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := relOf(resp.Answers); !resp.Complete || !got.Equal(f.Expected[0]) {
			t.Fatalf("%s: complete=%v answers = %v, ground truth %v", name, resp.Complete, got, f.Expected[0])
		}
		return totalCalls(cats) - before
	}

	// An invalidation accepted by B (a reader: it goes durable in B's
	// inbox) re-derives on B at once...
	gen, err := b.Invalidate(f.Name)
	if err != nil || gen <= 0 {
		t.Fatalf("Invalidate on reader: gen=%d err=%v", gen, err)
	}
	if n := reDerive("B", b, catsB); n != 1 {
		t.Fatalf("B paid %d source calls after its own invalidation, want 1", n)
	}

	// ...and reaches A within one tick: A's warm cache for the tenant
	// is orphaned and the next query re-reads the sources.
	if n := reDerive("A before the tick", a, catsA); n != 0 {
		t.Fatalf("sanity: A was not warm before the fan-out tick (%d calls)", n)
	}
	a.Fleet().Tick(time.Now())
	if n := reDerive("A", a, catsA); n != 1 {
		t.Fatalf("A paid %d source calls after the invalidation fanned out, want 1", n)
	}
	// The sibling tenant's warm answers survive the bump on both sides.
	g := fixtures[1]
	beforeG := totalCalls(catsA)
	if _, err := a.Query(context.Background(), g.Name, g.Queries[0]); err != nil {
		t.Fatal(err)
	}
	if totalCalls(catsA) != beforeG {
		t.Errorf("tenant %s lost its fleet cache to %s's invalidation", g.Name, f.Name)
	}

	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func healthzBody(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d (the replica still serves; it must not be pulled)", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// An inert persistence log must surface in /v1/stats and flip healthz
// to "degraded" — without failing queries or the health check itself.
func TestServerHealthzDegradedWhenLogInert(t *testing.T) {
	s, err := Open(Config{
		PersistDir:     t.TempDir(),
		PersistOptions: persist.Options{FS: &persist.FaultFS{FailSyncEveryN: 1}, SyncEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fixtures := PaperTenants(1)
	f := fixtures[0]
	if _, err := s.AddTenant(f.Name, f.Patterns, f.Catalog(), ucqn.Budget{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if body := healthzBody(t, ts.URL); !strings.HasPrefix(body, "ok") {
		t.Fatalf("healthy healthz = %q", body)
	}

	// The first cached answer's fsync fails: the log goes inert, the
	// query still answers completely.
	resp, err := s.Query(context.Background(), f.Name, f.Queries[0])
	if err != nil {
		t.Fatalf("query over broken storage: %v", err)
	}
	if !resp.Complete {
		t.Fatal("query degraded by a broken log")
	}
	if st := s.Stats(); st.Persist.Broken == "" {
		t.Fatalf("stats did not surface the inert log: %+v", st.Persist)
	}
	body := healthzBody(t, ts.URL)
	if !strings.HasPrefix(body, "degraded") || !strings.Contains(body, "persist=") {
		t.Fatalf("healthz over inert log = %q, want degraded with the persist reason", body)
	}
}
