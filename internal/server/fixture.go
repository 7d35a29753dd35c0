package server

// Shared multi-tenant fixture: every tenant serves the same schema and
// query mix (the worst case for cache aliasing — identical query texts
// over distinct data), with per-tenant rows so cross-tenant leakage is
// observable as wrong answers. The server tests, cmd/ucqnd,
// cmd/ucqnload and the bench/ workloads all build on it.

import (
	"context"
	"fmt"

	ucqn "repro"
	"repro/internal/workload"
)

// FixturePatterns is the access-pattern declaration every fixture
// tenant serves under: R is freely scannable, S requires its first
// column bound — the book-store shape of the paper's running examples.
const FixturePatterns = `R^oo S^io L^o`

// TenantFixture is one simulated tenant: its data, its catalog, the
// query mix (Zipf-ranked: index 0 is the hottest), and the ground-truth
// answer per query computed naively over the instance.
type TenantFixture struct {
	Name     string
	Patterns *ucqn.PatternSet
	Instance *ucqn.Instance
	Queries  []string
	Expected []*ucqn.Rel
}

// Catalog builds a fresh limited-access catalog over the tenant's
// instance. Each call returns a new catalog (fresh identity, fresh
// meters); a server tenant should be registered with exactly one.
func (f *TenantFixture) Catalog() *ucqn.Catalog {
	return f.Instance.MustCatalog(f.Patterns)
}

// fixtureQueries is the mix every tenant serves, hottest first. The
// α-renamed variants resubmit the same semantic query under different
// variable names, so a healthy plan cache collapses them; the negation
// rule keeps the UCQ¬ shape of the paper in the mix.
func fixtureQueries() []string {
	base := []string{
		`Q(x, y) :- R(x, y).`,
		`Q(x, y) :- R(x, z), S(z, y).`,
		`Q(x, y) :- R(x, y), not L(x).`,
		`Q(x, y) :- R(x, y). Q(x, y) :- R(x, z), S(z, y).`,
	}
	out := append([]string(nil), base...)
	for i, src := range base {
		u := ucqn.MustParseQuery(src)
		out = append(out, workload.AlphaRename(u, fmt.Sprintf("v%d", i)).String())
	}
	return out
}

// PaperTenants builds n tenants named tenant-0..tenant-n-1, each with
// its own rows (tenant i's constants carry an i suffix) over the shared
// schema, plus naive ground truth for every query in the mix.
func PaperTenants(n int) []*TenantFixture {
	ps := ucqn.MustParsePatterns(FixturePatterns)
	queries := fixtureQueries()
	out := make([]*TenantFixture, 0, n)
	for i := 0; i < n; i++ {
		in := ucqn.NewInstance()
		for k := 0; k < 6; k++ {
			a := fmt.Sprintf("a%d_%d", i, k)
			b := fmt.Sprintf("b%d_%d", i, k%3)
			in.MustAdd("R", a, b)
			in.MustAdd("S", b, fmt.Sprintf("c%d_%d", i, k%3))
		}
		// L blocks two of the R subjects for the negation rule.
		in.MustAdd("L", fmt.Sprintf("a%d_0", i))
		in.MustAdd("L", fmt.Sprintf("a%d_3", i))

		f := &TenantFixture{
			Name:     fmt.Sprintf("tenant-%d", i),
			Patterns: ps,
			Instance: in,
			Queries:  queries,
		}
		for _, src := range queries {
			res, err := ucqn.Exec(context.Background(), ucqn.MustParseQuery(src), nil, nil, ucqn.WithNaive(in))
			if err != nil {
				panic(fmt.Sprintf("server fixture: naive ground truth for %q: %v", src, err))
			}
			rel, err := res.Rel()
			if err != nil {
				panic(fmt.Sprintf("server fixture: naive ground truth for %q: %v", src, err))
			}
			f.Expected = append(f.Expected, rel)
		}
		out = append(out, f)
	}
	return out
}
