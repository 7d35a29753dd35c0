package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	ucqn "repro"
	"repro/internal/adapter/fakedb"
	"repro/internal/server"
	"repro/internal/workload"
)

// request is one generated query with its naive ground truth.
type request struct {
	tenant int    // index into spec.tenants
	query  string // the text the server sees
	body   []byte // the POST /v1/query body
	truth  [][]string
}

// tenant is one registered tenant; catalog builds a fresh catalog (fresh
// identity, fresh meters) for each server the benchmark boots.
type tenant struct {
	name     string
	patterns *ucqn.PatternSet
	catalog  func() (*ucqn.Catalog, error)
}

// probe is one standalone source call timed outside any request.
type probe struct {
	rel     string
	pattern ucqn.Pattern
	inputs  [][]string
}

// spec is one workload made from a seed: the data, the request universe
// with ground truth, the order each client walks it in, and the server
// configuration it runs against.
type spec struct {
	name     string
	cfg      server.Config
	persist  bool // serve from server.Open on a fresh directory
	tenants  []tenant
	requests []request
	warm     []int // request indices issued once, in order, before timing
	// next returns the request-index generator of one client out of
	// clients; the traced run is client 0 of 1.
	next func(client, clients int) func() int
	// invalidateEvery makes client 0 invalidate tenant k mod len(tenants)
	// after every n-th of its own requests (k counts invalidations).
	invalidateEvery int
	tracedN         int
	store           *fakedb.Store // backend of the adapter tenants
	latency         time.Duration // injected per statement on store
	scan, lookup    probe         // sources.scan_us, sources.lookup_us
	batch           *probe        // adapter.batch_us
}

// workloads is the registry; names are final (BENCHMARK.json, README).
var workloads = []struct {
	name  string
	why   string
	build func(seed int64) (*spec, error)
}{
	{"hot_cache", "24 (tenant, query) pairs, Zipf 1.2, both caches warm: every request is a full answer hit, so server, parser and the qcache hit path do all the work and an evaluator change must leave it flat", buildHotCache},
	{"cold_plan", "4096 non-isomorphic UCQ-not texts round-robin over a 512-entry plan cache: every request is a plan miss, so minimize, containment, core planning and the answer-tier scan are on the request path", buildColdPlan},
	{"join_eval", "E25 join (32000 bindings, 49 source calls, 120 rows) with the answer cache off and the plan cached: the engine's columnar loop is nearly the whole request", buildJoinEval},
	{"big_answer", "4000-row, 100 KB answer served from a warm answer cache: no calls, no evaluation, all time in cached-relation hand-off, Rel.Sorted, JSON encode and transfer", buildBigAnswer},
	{"remote_batch", "two sequential 256-binding groups pushed down as one IN statement each to a fakedb backend with 2 ms statement latency: adapter, sources and the runtime's batch path dominate", buildRemoteBatch},
	{"churn_persist", "hot_cache's mix on a persistent cache with an invalidation every 200 requests: stores, log appends, fsyncs, tombstones, compaction and recovery. fleet has no workload: it needs several processes", buildChurnPersist},
}

func wireRows(rel *ucqn.Rel) [][]string {
	out := make([][]string, 0, rel.Len())
	for _, row := range rel.Sorted() {
		r := make([]string, len(row))
		for i, v := range row {
			r[i] = v.S
		}
		out = append(out, r)
	}
	return out
}

// naive computes the ground truth of query over in, in wire order.
func naive(query string, in *ucqn.Instance) ([][]string, error) {
	q, err := ucqn.ParseQuery(query)
	if err != nil {
		return nil, fmt.Errorf("parse %q: %w", query, err)
	}
	res, err := ucqn.Exec(context.Background(), q, nil, nil, ucqn.WithNaive(in))
	if err != nil {
		return nil, fmt.Errorf("ground truth of %q: %w", query, err)
	}
	rel, err := res.Rel()
	if err != nil {
		return nil, fmt.Errorf("ground truth of %q: %w", query, err)
	}
	return wireRows(rel), nil
}

func (s *spec) add(tenant int, query string, truth [][]string) error {
	body, err := json.Marshal(server.Request{Tenant: s.tenants[tenant].name, Query: query})
	if err != nil {
		return err
	}
	s.requests = append(s.requests, request{tenant: tenant, query: query, body: body, truth: truth})
	return nil
}

// always is the sequence of a single-request workload.
func always(int, int) func() int { return func() int { return 0 } }

// clientRand seeds one client's generator from the workload seed.
func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(client)*7919))
}

// paperMix fills s with server.PaperTenants(3) and its 8-query mix:
// request t*8+q is tenant t's query q, drawn with the tenant uniform and
// the query Zipf(1.2) over ranks. All 24 pairs are warmed.
func paperMix(s *spec, seed int64) error {
	fixtures := server.PaperTenants(3)
	nq := len(fixtures[0].Queries)
	for ti, f := range fixtures {
		s.tenants = append(s.tenants, tenant{
			name:     f.Name,
			patterns: f.Patterns,
			catalog:  func() (*ucqn.Catalog, error) { return f.Instance.Catalog(f.Patterns) },
		})
		for qi, q := range f.Queries {
			if err := s.add(ti, q, wireRows(f.Expected[qi])); err != nil {
				return err
			}
			s.warm = append(s.warm, ti*nq+qi)
		}
	}
	s.next = func(client, _ int) func() int {
		rng := clientRand(seed, client)
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(nq-1))
		return func() int { return rng.Intn(len(fixtures))*nq + int(zipf.Uint64()) }
	}
	s.scan = probe{"R", "oo", [][]string{{}}}
	s.lookup = probe{"S", "io", [][]string{{"b0_0"}}}
	return nil
}

func buildHotCache(seed int64) (*spec, error) {
	s := &spec{name: "hot_cache", tracedN: 20000}
	return s, paperMix(s, seed)
}

func buildChurnPersist(seed int64) (*spec, error) {
	s := &spec{name: "churn_persist", tracedN: 20000, persist: true, invalidateEvery: 200}
	return s, paperMix(s, seed)
}

// coldPlanTexts is the size of cold_plan's universe: 8x the plan cache,
// 4x the answer cache's entry bound.
const coldPlanTexts = 4096

// coldPlanQuery generates text idx: 1–3 disjuncts over R^oo S^io L^o
// with head Q(x, y), each a spine binding x and y, a few fillers (some
// redundant, so minimisation has work), one literal over a constant no
// other text uses (so no two texts are isomorphic and every plan lookup
// misses), then workload.PadRedundant's duplicate: 3–7 literals a
// disjunct. The sizes cycle with idx and only the literals are drawn
// from rng, so every seed's universe has the same size distribution.
func coldPlanQuery(rng *rand.Rand, idx int) string {
	var rules []string
	for d, n := 0, 1+idx%3; d < n; d++ {
		var lits []string
		fresh := 0
		v := func() string { fresh++; return fmt.Sprintf("u%d", fresh) }
		// R's second column is bound to y directly, or to z with y
		// reached through S.
		joined, key := (idx/3+d)%2 == 0, "y"
		if joined {
			key = "z"
			lits = append(lits, "R(x, z)", "S(z, y)")
		} else {
			lits = append(lits, "R(x, y)")
		}
		for want := 1 + (idx/6+d)%5; len(lits) < want; {
			switch rng.Intn(5) {
			case 0:
				lits = append(lits, fmt.Sprintf("R(x, %s)", v()))
			case 1:
				lits = append(lits, fmt.Sprintf("S(%s, %s)", key, v()))
			case 2:
				lits = append(lits, "not L(x)")
			case 3:
				lits = append(lits, fmt.Sprintf("R(%s, %s)", v(), key))
			case 4:
				lits = append(lits, fmt.Sprintf(`R(x, "b0_%d")`, rng.Intn(3)))
			}
		}
		unique := fmt.Sprintf(`"k%d_%d"`, idx, d)
		switch k := rng.Intn(6); {
		case k < 2:
			lits = append(lits, fmt.Sprintf("not L(%s)", unique))
		case k < 4:
			lits = append(lits, fmt.Sprintf("not R(x, %s)", unique))
		case k == 4 || d == 0:
			lits = append(lits, fmt.Sprintf("not S(%s, y)", unique))
		default:
			// A positive unique constant matches no row: this disjunct
			// pays its scan and contributes nothing.
			lits = append(lits, fmt.Sprintf("R(x, %s)", unique))
		}
		rules = append(rules, "Q(x, y) :- "+strings.Join(lits, ", ")+".")
	}
	return workload.PadRedundant(ucqn.MustParseQuery(strings.Join(rules, " "))).String()
}

func buildColdPlan(seed int64) (*spec, error) {
	f := server.PaperTenants(1)[0]
	s := &spec{name: "cold_plan", tracedN: coldPlanTexts / 2}
	s.tenants = []tenant{{
		name:     f.Name,
		patterns: f.Patterns,
		catalog:  func() (*ucqn.Catalog, error) { return f.Instance.Catalog(f.Patterns) },
	}}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < coldPlanTexts; i++ {
		text := coldPlanQuery(rng, i)
		truth, err := naive(text, f.Instance)
		if err != nil {
			return nil, err
		}
		if err := s.add(0, text, truth); err != nil {
			return nil, err
		}
	}
	// The tail of the cycle: evicted again long before the cycle returns.
	for i := coldPlanTexts - 8; i < coldPlanTexts; i++ {
		s.warm = append(s.warm, i)
	}
	s.next = func(client, clients int) func() int {
		i := client - clients
		return func() int { i += clients; return i % coldPlanTexts }
	}
	s.scan = probe{"R", "oo", [][]string{{}}}
	s.lookup = probe{"S", "io", [][]string{{"b0_0"}}}
	return s, nil
}

// e25 builds the E25 instance (bench_test.go's e25Fixture: R 4000 rows x
// 7 columns over 20 join keys, S fan-out 8, T, N on every fourth key)
// as a single tenant serving one query. The seed only names the query's
// variables: row order moves the evaluator's allocation count by several
// percent, which would drown a real change in seed-to-seed spread.
func e25(name string, seed int64, query string, tracedN int) (*spec, error) {
	const baseRows, keys, fanout = 4000, 20, 8
	in := ucqn.NewInstance()
	for i := 0; i < baseRows; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i),
			fmt.Sprintf("a%d", i%7), fmt.Sprintf("b%d", i%11), fmt.Sprintf("c%d", i%13),
			fmt.Sprintf("d%d", i%3), fmt.Sprintf("e%d", i%5),
			fmt.Sprintf("z%d", i%keys))
	}
	for z := 0; z < keys; z++ {
		for j := 0; j < fanout; j++ {
			in.MustAdd("S", fmt.Sprintf("z%d", z), fmt.Sprintf("w%d", j))
		}
	}
	for j := 0; j < fanout; j++ {
		in.MustAdd("T", fmt.Sprintf("w%d", j), fmt.Sprintf("y%d", j))
	}
	for z := 0; z < keys; z += 4 {
		in.MustAdd("N", fmt.Sprintf("z%d", z))
	}
	ps := ucqn.MustParsePatterns(`R^ooooooo S^io T^io N^i`)
	s := &spec{name: name, tracedN: tracedN, warm: []int{0}, next: always}
	s.tenants = []tenant{{
		name:     "e25",
		patterns: ps,
		catalog:  func() (*ucqn.Catalog, error) { return in.Catalog(ps) },
	}}
	text := workload.AlphaRename(ucqn.MustParseQuery(query), fmt.Sprint(seed)).String()
	truth, err := naive(text, in)
	if err != nil {
		return nil, err
	}
	s.scan = probe{"R", "ooooooo", [][]string{{}}}
	s.lookup = probe{"S", "io", [][]string{{"z1"}}}
	return s, s.add(0, text, truth)
}

func buildJoinEval(seed int64) (*spec, error) {
	s, err := e25("join_eval", seed, `Q(z, y) :- R(x, a, b, c, d, e, z), S(z, w), T(w, y), not N(z).`, 150)
	if err != nil {
		return nil, err
	}
	s.cfg.Cache.DisableAnswers = true
	return s, nil
}

func buildBigAnswer(seed int64) (*spec, error) {
	return e25("big_answer", seed, `Q(x, z) :- R(x, a, b, c, d, e, z).`, 100)
}

// remoteStore names the fakedb store behind remote_batch's adapters.
const remoteStore = "bench_remote_batch"

func buildRemoteBatch(seed int64) (*spec, error) {
	const keys = 256
	in := ucqn.NewInstance()
	var rRows []ucqn.Tuple
	var tRows, uRows, zKeys [][]string
	for k := 0; k < keys; k++ {
		x, z, w, y := fmt.Sprintf("x%d", k), fmt.Sprintf("z%d", k), fmt.Sprintf("w%d", k), fmt.Sprintf("y%d", k)
		rRows = append(rRows, ucqn.Tuple{x, z})
		tRows = append(tRows, []string{z, w})
		uRows = append(uRows, []string{w, y})
		zKeys = append(zKeys, []string{z})
		in.MustAdd("R", x, z).MustAdd("T", z, w).MustAdd("U", w, y)
	}
	st := fakedb.StoreFor(remoteStore)
	st.Load("t_rel", []string{"zc", "wc"}, tRows)
	st.Load("u_rel", []string{"wc", "yc"}, uRows)

	s := &spec{name: "remote_batch", tracedN: 150, warm: []int{0}, next: always,
		store: st, latency: 2 * time.Millisecond}
	s.cfg.Cache.DisableAnswers = true
	adapter := func(rel, table string, cols ...string) (ucqn.Source, error) {
		return ucqn.OpenAdapter(ucqn.AdapterSpec{
			Name: rel, Arity: 2, Patterns: []string{"io"},
			Backend: "sql://fakedb/" + remoteStore, Table: table, Columns: cols,
		})
	}
	s.tenants = []tenant{{
		name:     "remote",
		patterns: ucqn.MustParsePatterns(`R^oo T^io U^io`),
		catalog: func() (*ucqn.Catalog, error) {
			r, err := ucqn.NewTable("R", 2, []ucqn.Pattern{"oo"}, rRows)
			if err != nil {
				return nil, err
			}
			t, err := adapter("T", "t_rel", "zc", "wc")
			if err != nil {
				return nil, err
			}
			u, err := adapter("U", "u_rel", "wc", "yc")
			if err != nil {
				return nil, err
			}
			return ucqn.NewCatalog(r, t, u)
		},
	}}
	text := workload.AlphaRename(ucqn.MustParseQuery(`Q(x, y) :- R(x, z), T(z, w), U(w, y).`), fmt.Sprint(seed)).String()
	truth, err := naive(text, in)
	if err != nil {
		return nil, err
	}
	s.scan = probe{"R", "oo", [][]string{{}}}
	s.lookup = probe{"T", "io", [][]string{{"z1"}}}
	s.batch = &probe{"T", "io", zKeys}
	return s, s.add(0, text, truth)
}
