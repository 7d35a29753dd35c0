package adapter

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/adapter/fakedb"
	"repro/internal/sources"
)

// callOne issues a group of one and unwraps its rows.
func callOne(ctx context.Context, s sources.Source, p access.Pattern, inputs []string) ([]sources.Tuple, error) {
	groups, err := s.Call(ctx, p, [][]string{inputs})
	if err != nil {
		return nil, err
	}
	return groups[0], nil
}

// sqlSpec mounts a fresh fakedb store (unique per test) with the given
// rows and returns the opened adapter plus its store.
func sqlSpec(t *testing.T, patterns []string, cols []string, rows [][]string, maxBatch int) (*SQL, *fakedb.Store) {
	t.Helper()
	dsn := "t_" + strings.ReplaceAll(t.Name(), "/", "_")
	st := fakedb.StoreFor(dsn)
	st.Reset()
	st.Load("rel", cols, rows)
	src, err := Open(Spec{
		Name:     "r",
		Arity:    len(cols),
		Patterns: patterns,
		Backend:  "sql://fakedb/" + dsn,
		Table:    "rel",
		Columns:  cols,
		MaxBatch: maxBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := src.(*SQL)
	t.Cleanup(func() { a.Close() })
	return a, st
}

func TestSQLCallSingle(t *testing.T) {
	a, st := sqlSpec(t, []string{"io", "oo"}, []string{"c0", "c1"}, [][]string{
		{"a", "1"}, {"a", "2"}, {"b", "3"},
	}, 0)
	rows, err := callOne(context.Background(), a, access.Pattern("io"), []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != "a" || rows[1][1] != "2" {
		t.Fatalf("got %v", rows)
	}
	all, err := callOne(context.Background(), a, access.Pattern("oo"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("scan got %v", all)
	}
	if got := st.Queries(); got != 2 {
		t.Fatalf("store saw %d queries, want 2", got)
	}
	stats := a.StatsSnapshot()
	if stats.Calls != 2 || stats.RoundTrips != 2 || stats.TuplesReturned != 5 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestSQLContractEnforced(t *testing.T) {
	a, _ := sqlSpec(t, []string{"io"}, []string{"c0", "c1"}, nil, 0)
	if _, err := callOne(context.Background(), a, access.Pattern("oi"), []string{"x"}); err == nil {
		t.Fatal("undeclared pattern accepted")
	}
	if _, err := callOne(context.Background(), a, access.Pattern("io"), []string{"x", "y"}); err == nil {
		t.Fatal("wrong input count accepted")
	}
	if _, err := a.Call(context.Background(), access.Pattern("oi"), [][]string{{"x"}}); err == nil {
		t.Fatal("batch with undeclared pattern accepted")
	}
}

func TestSQLBatchSingleInputIN(t *testing.T) {
	a, st := sqlSpec(t, []string{"io"}, []string{"k", "v"}, [][]string{
		{"a", "1"}, {"a", "2"}, {"b", "3"}, {"c", "4"},
	}, 0)
	inputs := [][]string{{"a"}, {"missing"}, {"b"}, {"a"}} // dup + miss
	groups, err := a.Call(context.Background(), access.Pattern("io"), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 4 {
		t.Fatalf("%d groups", len(groups))
	}
	if len(groups[0]) != 2 || len(groups[1]) != 0 || len(groups[2]) != 1 || len(groups[3]) != 2 {
		t.Fatalf("group sizes %d %d %d %d", len(groups[0]), len(groups[1]), len(groups[2]), len(groups[3]))
	}
	if groups[2][0][1] != "3" {
		t.Fatalf("demux wrong: %v", groups[2])
	}
	if got := st.Queries(); got != 1 {
		t.Fatalf("store saw %d round trips, want 1", got)
	}
	stats := a.StatsSnapshot()
	if stats.Calls != 4 || stats.RoundTrips != 1 || stats.BatchedCalls != 4 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestSQLBatchMultiInputOR(t *testing.T) {
	a, st := sqlSpec(t, []string{"iio"}, []string{"x", "y", "z"}, [][]string{
		{"a", "p", "1"}, {"a", "q", "2"}, {"b", "p", "3"}, {"a\x1fp", "q", "4"},
	}, 0)
	groups, err := a.Call(context.Background(), access.Pattern("iio"), [][]string{
		{"a", "p"}, {"b", "p"}, {"a", "zz"}, {"a", "p\x1fq"}, {"a\x1fp", "q"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups[0]) != 1 || groups[0][0][2] != "1" {
		t.Fatalf("group 0: %v", groups[0])
	}
	if len(groups[1]) != 1 || groups[1][0][2] != "3" {
		t.Fatalf("group 1: %v", groups[1])
	}
	if len(groups[2]) != 0 {
		t.Fatalf("group 2: %v", groups[2])
	}
	// Vectors whose values joined by the key separator read alike are
	// told apart.
	if len(groups[3]) != 0 || len(groups[4]) != 1 || groups[4][0][2] != "4" {
		t.Fatalf("groups 3 and 4: %q, %q; want none and the one tuple (a\\x1fp, q, 4)", groups[3], groups[4])
	}
	if st.Queries() != 1 {
		t.Fatalf("store saw %d round trips, want 1", st.Queries())
	}
}

func TestSQLBatchAllOutput(t *testing.T) {
	a, st := sqlSpec(t, []string{"oo"}, []string{"x", "y"}, [][]string{{"a", "1"}, {"b", "2"}}, 0)
	groups, err := a.Call(context.Background(), access.Pattern("oo"), [][]string{{}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || len(groups[0]) != 2 || len(groups[1]) != 2 {
		t.Fatalf("groups %v", groups)
	}
	if st.Queries() != 1 {
		t.Fatalf("store saw %d round trips, want 1", st.Queries())
	}
}

func TestSQLBatchChunksByMaxBatch(t *testing.T) {
	var rows [][]string
	var inputs [][]string
	for i := 0; i < 10; i++ {
		rows = append(rows, []string{fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)})
		inputs = append(inputs, []string{fmt.Sprintf("k%d", i)})
	}
	a, st := sqlSpec(t, []string{"io"}, []string{"k", "v"}, rows, 4)
	groups, err := a.Call(context.Background(), access.Pattern("io"), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range groups {
		if len(g) != 1 || g[0][1] != fmt.Sprintf("v%d", i) {
			t.Fatalf("group %d: %v", i, g)
		}
	}
	if st.Queries() != 3 { // ceil(10/4)
		t.Fatalf("store saw %d round trips, want 3", st.Queries())
	}
}

func TestSQLBatchMatchesSequential(t *testing.T) {
	rows := [][]string{{"a", "p", "1"}, {"a", "q", "2"}, {"b", "p", "3"}, {"c", "r", "4"}}
	a, _ := sqlSpec(t, []string{"ioo"}, []string{"x", "y", "z"}, rows, 0)
	inputs := [][]string{{"a"}, {"b"}, {"nope"}, {"c"}, {"a"}}
	batch, err := a.Call(context.Background(), access.Pattern("ioo"), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range inputs {
		seq, err := callOne(context.Background(), a, access.Pattern("ioo"), in)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != len(batch[i]) {
			t.Fatalf("input %v: batch %v vs sequential %v", in, batch[i], seq)
		}
		for k := range seq {
			for j := range seq[k] {
				if seq[k][j] != batch[i][k][j] {
					t.Fatalf("input %v row %d: batch %v vs sequential %v", in, k, batch[i][k], seq[k])
				}
			}
		}
	}
}

func TestSQLFaultIsTransient(t *testing.T) {
	a, st := sqlSpec(t, []string{"io"}, []string{"k", "v"}, [][]string{{"a", "1"}}, 0)
	st.FailNext(1, errors.New("connection refused"))
	_, err := callOne(context.Background(), a, access.Pattern("io"), []string{"a"})
	if err == nil {
		t.Fatal("injected fault returned no error")
	}
	if !sources.IsTransient(err) {
		t.Fatalf("backend fault not transient: %v", err)
	}
	// Recovered on the next round trip.
	if _, err := callOne(context.Background(), a, access.Pattern("io"), []string{"a"}); err != nil {
		t.Fatalf("after fault drained: %v", err)
	}
}

func TestSQLSlowBackendHonorsContext(t *testing.T) {
	a, st := sqlSpec(t, []string{"io"}, []string{"k", "v"}, [][]string{{"a", "1"}}, 0)
	st.SetLatency(200 * time.Millisecond)
	defer st.SetLatency(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := callOne(ctx, a, access.Pattern("io"), []string{"a"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded through the driver, got %v", err)
	}
}

func TestSQLSpecValidation(t *testing.T) {
	bad := []Spec{
		{Name: "r", Arity: 2, Patterns: []string{"io"}, Backend: "sql://fakedb"},                                                  // no dsn
		{Name: "r", Arity: 2, Patterns: []string{"io"}, Backend: "sql://fakedb/d"},                                                // no table
		{Name: "r", Arity: 2, Patterns: []string{"io"}, Backend: "sql://fakedb/d", Table: "t", Columns: []string{"a"}},            // arity mismatch
		{Name: "r", Arity: 2, Patterns: []string{"io"}, Backend: "sql://fakedb/d", Table: "t; DROP", Columns: []string{"a", "b"}}, // injection
		{Name: "r", Arity: 2, Patterns: []string{"io"}, Backend: "sql://fakedb/d", Table: "t", Columns: []string{"a", "b drop"}},  // injection
		{Name: "r", Arity: 2, Patterns: []string{"iox"}, Backend: "sql://fakedb/d", Table: "t", Columns: []string{"a", "b"}},      // bad pattern
		{Name: "r", Arity: 2, Patterns: []string{"i"}, Backend: "sql://fakedb/d", Table: "t", Columns: []string{"a", "b"}},        // pattern arity
		{Name: "r", Arity: 2, Patterns: []string{"io"}, Backend: "nosuch://x/y", Table: "t", Columns: []string{"a", "b"}},         // unknown scheme
		{Name: "r", Arity: 2, Patterns: []string{"io"}, Backend: "plain-address", Table: "t", Columns: []string{"a", "b"}},        // no scheme
		{Name: "r", Arity: 2, Patterns: nil, Backend: "sql://fakedb/d", Table: "t", Columns: []string{"a", "b"}},                  // no patterns
	}
	for i, spec := range bad {
		if _, err := Open(spec); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
}

// Open knows three schemes: each opens a source of its adapter, and an
// unknown scheme is an error that names them.
func TestSchemesRegistered(t *testing.T) {
	spec := Spec{Name: "r", Arity: 2, Patterns: []string{"io"}, Table: "t", Columns: []string{"a", "b"}}
	for backend, want := range map[string]string{
		"sql://fakedb/schemes":  "*adapter.SQL",
		"http://127.0.0.1:1/r":  "*adapter.HTTP",
		"https://127.0.0.1:1/r": "*adapter.HTTP",
	} {
		spec.Backend = backend
		src, err := Open(spec)
		if err != nil || fmt.Sprintf("%T", src) != want {
			t.Errorf("Open(%s) = %T, %v; want a %s", backend, src, err, want)
		}
		if c, ok := src.(io.Closer); ok {
			c.Close()
		}
	}
	spec.Backend = "nosuch://x/y"
	if _, err := Open(spec); err == nil || !strings.Contains(err.Error(), "(have http, https, sql)") {
		t.Errorf("unknown scheme: %v, want an error naming http, https and sql", err)
	}
}

func TestParseConfigShapes(t *testing.T) {
	multi := `{"tenants": [{"tenant": "acme", "sources": [
		{"name": "r", "arity": 1, "patterns": ["o"], "backend": "sql://fakedb/x", "table": "t", "columns": ["a"]}
	]}]}`
	cfg, err := ParseConfig([]byte(multi))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Tenants) != 1 || cfg.Tenants[0].Tenant != "acme" {
		t.Fatalf("parsed %+v", cfg)
	}
	single := `{"tenant": "solo", "sources": [
		{"name": "r", "arity": 1, "patterns": ["o"], "backend": "sql://fakedb/x", "table": "t", "columns": ["a"]}
	]}`
	cfg, err = ParseConfig([]byte(single))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Tenants) != 1 || cfg.Tenants[0].Tenant != "solo" {
		t.Fatalf("parsed %+v", cfg)
	}
	for i, bad := range []string{
		`{}`,
		`{"tenants": [{"tenant": "", "sources": [{"name":"r"}]}]}`,
		`{"tenants": [{"tenant": "a", "sources": []}]}`,
		`{"tenants": [{"tenant": "a", "sources": [{"name":"r"}]}, {"tenant": "a", "sources": [{"name":"r"}]}]}`,
		`not json`,
	} {
		if _, err := ParseConfig([]byte(bad)); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestCatalogConfigOpen(t *testing.T) {
	dsn := "t_cfg_open"
	st := fakedb.StoreFor(dsn)
	st.Reset()
	st.Load("rel", []string{"k", "v"}, [][]string{{"a", "1"}})
	tc := CatalogConfig{Tenant: "acme", Sources: []Spec{{
		Name: "r", Arity: 2, Patterns: []string{"io"},
		Backend: "sql://fakedb/" + dsn, Table: "rel", Columns: []string{"k", "v"},
	}}}
	cat, err := tc.Open()
	if err != nil {
		t.Fatal(err)
	}
	if cat.PersistentID() != "acme" {
		t.Fatalf("persistent id %q", cat.PersistentID())
	}
	src := cat.Source("r")
	if src == nil {
		t.Fatal("relation r not mounted")
	}
	rows, err := callOne(context.Background(), src, access.Pattern("io"), []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][1] != "1" {
		t.Fatalf("rows %v", rows)
	}
	if !src.Batches() {
		t.Fatal("mounted sql source not batch capable")
	}
}

// sqlCallFixture is remote_batch's shape: a 256-vector group over a
// single-input pattern, one row per vector.
func sqlCallFixture(t testing.TB) (*SQL, [][]string) {
	var rows, inputs [][]string
	for i := 0; i < 256; i++ {
		rows = append(rows, []string{fmt.Sprintf("z%d", i), fmt.Sprintf("w%d", i)})
		inputs = append(inputs, []string{fmt.Sprintf("z%d", i)})
	}
	st := fakedb.StoreFor("t_sql_call_allocs")
	st.Reset()
	st.Load("rel", []string{"zc", "wc"}, rows)
	src, err := Open(Spec{Name: "T", Arity: 2, Patterns: []string{"io"}, Backend: "sql://fakedb/t_sql_call_allocs", Table: "rel", Columns: []string{"zc", "wc"}})
	if err != nil {
		t.Fatal(err)
	}
	a := src.(*SQL)
	t.Cleanup(func() { a.Close() })
	return a, inputs
}

// A 256-vector Call scans its statement's rows into one array and hands
// them out as windows of another: 1 093 allocations, of which ≈ 780 are
// the fakedb driver's, ≈ 260 where's argument boxing (one per input)
// and ≈ 30 the adapter's own (1 855 when every row and every demux
// entry was its own).
func TestSQLCallAllocs(t *testing.T) {
	a, inputs := sqlCallFixture(t)
	allocs := testing.AllocsPerRun(20, func() {
		groups, err := a.Call(context.Background(), "io", inputs)
		if err != nil || len(groups[255]) != 1 {
			t.Fatalf("Call: %v, %v", groups[255], err)
		}
	})
	const limit = 1093 + 32
	if allocs > limit {
		t.Errorf("a 256-vector Call allocated %.0f times, want at most %d", allocs, limit)
	}
}

func BenchmarkSQLCall(b *testing.B) {
	a, inputs := sqlCallFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Call(context.Background(), "io", inputs); err != nil {
			b.Fatal(err)
		}
	}
}
