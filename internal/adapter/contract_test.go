package adapter

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/adapter/fakedb"
	"repro/internal/sources"
	"repro/internal/sources/sourcetest"
)

// The SQL and HTTP adapters, bare and under a resilience stack, meet
// the same Source contract as the in-memory implementations. MaxBatch 2
// makes the multi-vector groups of the suite span several round trips.
func TestSourceContract(t *testing.T) {
	spec := Spec{Name: "r", Arity: 2, Patterns: []string{"io", "oo"}, MaxBatch: 2}
	stack := func(s sources.Source) sources.Source {
		return sources.NewBreaker(sources.NewCached(s), sources.BreakerConfig{Window: 32, Threshold: 32})
	}

	openSQL := func(t *testing.T) (sourcetest.Fixture, *SQL) {
		dsn := "t_" + strings.ReplaceAll(t.Name(), "/", "_")
		st := fakedb.StoreFor(dsn)
		st.Reset()
		var rows [][]string
		for _, r := range sourcetest.Rows {
			rows = append(rows, r)
		}
		st.Load("rel", []string{"k", "v"}, rows)
		sp := spec
		sp.Backend, sp.Table, sp.Columns = "sql://fakedb/"+dsn, "rel", []string{"k", "v"}
		src, err := Open(sp)
		if err != nil {
			t.Fatal(err)
		}
		a := src.(*SQL)
		t.Cleanup(func() { a.Close() })
		return sourcetest.Fixture{
			Src: a, Batches: true, Meter: a.StatsSnapshot,
			Wire: func() int { return int(st.Queries()) },
			Fail: func() { st.FailNext(1, errors.New("connection reset")) },
		}, a
	}
	openHTTP := func(t *testing.T) (sourcetest.Fixture, *HTTP) {
		leaf := sourcetest.NewLeaf(true)
		backend := NewBackend(leaf)
		srv := httptest.NewServer(backend)
		t.Cleanup(srv.Close)
		sp := spec
		sp.Backend = srv.URL
		src, err := Open(sp)
		if err != nil {
			t.Fatal(err)
		}
		a := src.(*HTTP)
		return sourcetest.Fixture{
			Src: a, Batches: true, Meter: a.StatsSnapshot,
			Wire: func() int { return int(backend.Requests()) },
			Fail: leaf.FailNext,
		}, a
	}

	t.Run("SQL", func(t *testing.T) {
		f, _ := openSQL(t)
		sourcetest.Contract(t, f)
	})
	t.Run("HTTP", func(t *testing.T) {
		f, _ := openHTTP(t)
		sourcetest.Contract(t, f)
	})
	t.Run("Breaker(Cached(SQL))", func(t *testing.T) {
		f, a := openSQL(t)
		f.Src = stack(a)
		sourcetest.Contract(t, f)
	})
	t.Run("Breaker(Cached(HTTP))", func(t *testing.T) {
		f, a := openHTTP(t)
		f.Src = stack(a)
		sourcetest.Contract(t, f)
	})
}
