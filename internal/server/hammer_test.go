package server

// The multi-tenant hammer: concurrent Execs across three tenants
// sharing ONE query cache, with one tenant's catalog replica-backed,
// run under -race. Every tenant submits the *same query texts* over
// *different data* — the worst case for cache aliasing — so any
// cross-tenant answer reuse without proven equivalence (or any catalog
// identity collision) surfaces as a wrong answer. Budget accounting is
// asserted exactly per request: BudgetSpent must equal the profile's
// launched calls and never exceed the quota.

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	ucqn "repro"
)

func TestMultiTenantHammer(t *testing.T) {
	const tenants = 3
	fixtures := PaperTenants(tenants)
	qc := ucqn.NewQueryCache(ucqn.QueryCacheOptions{})
	quota := ucqn.Budget{MaxCalls: 50}

	// Tenant 0 is replica-backed: two same-data catalogs zipped into
	// replica sets, exercising the replicated call path under the same
	// shared cache.
	cat0, _, err := ucqn.ReplicaCatalog(ucqn.ReplicaConfig{}, fixtures[0].Catalog(), fixtures[0].Catalog())
	if err != nil {
		t.Fatal(err)
	}
	cats := []*ucqn.Catalog{cat0, fixtures[1].Catalog(), fixtures[2].Catalog()}

	const workersPerTenant = 4
	const requestsPerWorker = 25
	var tenantCalls [tenants]atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	for ti := 0; ti < tenants; ti++ {
		for w := 0; w < workersPerTenant; w++ {
			wg.Add(1)
			go func(ti, w int) {
				defer wg.Done()
				f := fixtures[ti]
				rng := rand.New(rand.NewSource(int64(ti)*101 + int64(w)))
				for i := 0; i < requestsPerWorker; i++ {
					qi := rng.Intn(len(f.Queries))
					q, err := ucqn.ParseQuery(f.Queries[qi])
					if err != nil {
						t.Errorf("parse: %v", err)
						return
					}
					res, err := ucqn.Exec(ctx, q, f.Patterns, cats[ti],
						ucqn.WithQueryCache(qc),
						ucqn.WithPartialResults(),
						ucqn.WithProfile(),
						ucqn.WithBudget(quota),
					)
					if err != nil {
						t.Errorf("tenant %d q%d: %v", ti, qi, err)
						return
					}
					rel, err := res.Rel()
					if err != nil {
						t.Errorf("tenant %d q%d: %v", ti, qi, err)
						return
					}
					inc, ok := res.Incompleteness()
					if !ok {
						t.Errorf("tenant %d q%d: no incompleteness report in partial mode", ti, qi)
						return
					}
					expected := f.Expected[qi]
					if inc.Complete() {
						// Isolation: a complete answer must be exactly this
						// tenant's ground truth. A leaked sibling entry would
						// surface foreign rows here (the constants carry the
						// tenant index).
						if !rel.Equal(expected) {
							t.Errorf("tenant %d q%d: answers != ground truth:\n got %v\nwant %v", ti, qi, rel, expected)
							return
						}
					} else {
						for _, row := range rel.Rows() {
							if !expected.Contains(row) {
								t.Errorf("tenant %d q%d: degraded answer carries foreign row %v", ti, qi, row)
								return
							}
						}
					}
					prof, ok := res.Profile()
					if !ok {
						t.Errorf("tenant %d q%d: no profile", ti, qi)
						return
					}
					// Exact accounting: the per-request budget meter equals
					// the profile's launched calls (no drops, no double
					// counts) and respects the quota.
					if prof.Calls.BudgetSpent != prof.Calls.Total {
						t.Errorf("tenant %d q%d: BudgetSpent = %d, profile calls = %d", ti, qi, prof.Calls.BudgetSpent, prof.Calls.Total)
						return
					}
					if prof.Calls.BudgetSpent > quota.MaxCalls {
						t.Errorf("tenant %d q%d: spent %d calls over quota %d", ti, qi, prof.Calls.BudgetSpent, quota.MaxCalls)
						return
					}
					tenantCalls[ti].Add(int64(prof.Calls.BudgetSpent))
				}
			}(ti, w)
		}
	}
	wg.Wait()

	// Per-tenant totals reconcile with the catalogs' own meters: calls
	// charged to a tenant's budget all hit that tenant's sources (the
	// replica-backed catalog meters through its replica sets).
	for ti, cat := range cats {
		spent := tenantCalls[ti].Load()
		meter := int64(cat.TotalStats().Calls)
		if meter > spent {
			t.Errorf("tenant %d: catalog saw %d calls but budgets paid for %d", ti, meter, spent)
		}
		if spent > 0 && meter == 0 {
			t.Errorf("tenant %d: budgets paid %d calls but the catalog never saw one", ti, spent)
		}
	}
	if st := qc.Stats(); st.PlanHits == 0 {
		t.Error("shared cache never served a plan hit across the hammer")
	}
}
