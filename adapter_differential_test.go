package ucqn

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/adapter/fakedb"
	"repro/internal/engine"
	"repro/internal/workload"
)

// mirrorSQLCatalog mounts every relation of ps as a SQL adapter over a
// fakedb store loaded with the instance's rows — the external mirror of
// in.MustCatalog(ps).
func mirrorSQLCatalog(t *testing.T, in *Instance, ps *PatternSet, tag string) *Catalog {
	t.Helper()
	dsn := "diff_" + tag
	st := fakedb.StoreFor(dsn)
	st.Reset()
	var srcs []Source
	for _, name := range ps.Relations() {
		ar := ps.Arity(name)
		cols := make([]string, ar)
		for j := range cols {
			cols[j] = fmt.Sprintf("c%d", j)
		}
		var rows [][]string
		for _, tu := range in.Rows(name) {
			rows = append(rows, tu)
		}
		st.Load("t_"+name, cols, rows)
		var pats []string
		for _, p := range ps.Patterns(name) {
			pats = append(pats, string(p))
		}
		src, err := OpenAdapter(AdapterSpec{
			Name: name, Arity: ar, Patterns: pats,
			Backend: "sql://fakedb/" + dsn, Table: "t_" + name, Columns: cols,
		})
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	cat, err := NewCatalog(srcs...)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// mirrorHTTPCatalog publishes every relation over the JSON group
// protocol on one test server and mounts HTTP adapters against it.
func mirrorHTTPCatalog(t *testing.T, in *Instance, ps *PatternSet) *Catalog {
	t.Helper()
	mux := http.NewServeMux()
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	var srcs []Source
	for _, name := range ps.Relations() {
		ar := ps.Arity(name)
		tbl, err := NewTable(name, ar, ps.Patterns(name), in.Rows(name))
		if err != nil {
			t.Fatal(err)
		}
		mux.Handle("/"+name, NewHTTPBackend(tbl))
		var pats []string
		for _, p := range ps.Patterns(name) {
			pats = append(pats, string(p))
		}
		src, err := OpenAdapter(AdapterSpec{
			Name: name, Arity: ar, Patterns: pats,
			Backend: srv.URL + "/" + name,
		})
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	cat, err := NewCatalog(srcs...)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// Differential property: an adapter-backed catalog must be answer-
// equivalent to the in-memory catalog it mirrors, on random executable
// workloads with negation, in all three execution modes — materialized,
// streamed, partial-results. This is the contract that batched pushdown
// never changes call-visible semantics. Three fixed rows pin the safe-
// negation idioms — set difference, gap detection, orphaned records —
// where the negated relation sits behind an input-only pattern, so
// every filter probe is a bound call (and, on the adapters, one pushed-
// down group).
func TestAdapterDifferentialEquivalence(t *testing.T) {
	modes := []struct {
		name string
		opts []ExecOption
	}{
		{"materialized", nil},
		{"streamed", []ExecOption{WithStreaming()}},
		{"partial", []ExecOption{WithPartialResults()}},
	}
	// check runs q in every mode against the in-memory catalog and its
	// SQL and HTTP mirrors and returns the (agreed) materialized answer.
	check := func(label string, q Query, ps *PatternSet, in *Instance) *Rel {
		t.Helper()
		cats := []struct {
			name string
			cat  *Catalog
		}{
			{"in-memory", in.MustCatalog(ps)},
			{"sql adapter", mirrorSQLCatalog(t, in, ps, label)},
			{"http adapter", mirrorHTTPCatalog(t, in, ps)},
		}
		var first *Rel
		for _, mode := range modes {
			var want *Rel
			for _, c := range cats {
				res, err := Exec(context.Background(), q, ps, c.cat, mode.opts...)
				if err != nil {
					t.Fatalf("%s (%s): %s: %v\n%s", label, mode.name, c.name, err, q)
				}
				got, err := res.Rel()
				if err != nil {
					t.Fatalf("%s (%s): %s: %v\n%s", label, mode.name, c.name, err, q)
				}
				if want == nil {
					want = got
				} else if !got.Equal(want) {
					t.Fatalf("%s (%s): %s diverges\n%s\nadapter: %s\nmemory:  %s", label, mode.name, c.name, q, got, want)
				}
			}
			if first == nil {
				first = want
			}
		}
		return first
	}

	g := workload.New(271)
	s := g.Schema(4, 1, 2)
	ps := g.Patterns(s, 0.4, 2)
	cfg := workload.QueryConfig{PosLits: 3, NegLits: 1, VarPool: 4, ConstProb: 0.1, HeadVars: 1, DomainSize: 5}
	tested := 0
	for i := 0; i < 120 && tested < 25; i++ {
		u := g.UCQ(s, 2, cfg)
		ordered, ok := Reorder(u, ps)
		if !ok {
			continue
		}
		in := engine.NewInstance()
		if err := in.LoadFacts(g.Facts(s, 12, 6)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("w%d", i), ordered, ps, in)
		tested++
	}
	if tested < 25 {
		t.Errorf("only %d/25 workloads engaged", tested)
	}

	idioms := []struct {
		label, query, patterns string
		in                     *Instance
		want                   []string
	}{
		{"difference", `D(x) :- A(x), not B(x).`, `A^o B^i`,
			NewInstance().MustAdd("A", "a").MustAdd("A", "b").MustAdd("A", "c").
				MustAdd("B", "b").MustAdd("B", "d"),
			[]string{"a", "c"}},
		{"gap", `Missing(x) :- Expected(x), not Actual(x).`, `Expected^o Actual^i`,
			NewInstance().MustAdd("Expected", "test_auth.go").MustAdd("Expected", "test_db.go").MustAdd("Expected", "test_api.go").
				MustAdd("Actual", "test_auth.go").MustAdd("Actual", "test_api.go"),
			[]string{"test_db.go"}},
		{"orphans", `Orphaned(c) :- Child(c, p), not Parent(p).`, `Child^oo Parent^i`,
			NewInstance().MustAdd("Child", "c1", "p1").MustAdd("Child", "c2", "p2").MustAdd("Child", "c3", "p9").
				MustAdd("Parent", "p1").MustAdd("Parent", "p2"),
			[]string{"c3"}},
	}
	for _, id := range idioms {
		got := check(id.label, MustParseQuery(id.query), MustParsePatterns(id.patterns), id.in)
		want := NewRel()
		for _, v := range id.want {
			want.Add(RowOf(v))
		}
		if !got.Equal(want) {
			t.Errorf("%s: answers = %s, want %s", id.label, got, want)
		}
	}
}

// The same equivalence holds when batching actually fires: a fan-out
// join through an adapter must produce the per-call answers while
// making far fewer round trips.
func TestAdapterBatchedJoinEquivalence(t *testing.T) {
	q := MustParseQuery(`Q(x, y) :- R(x, z), T(z, y).`)
	ps := MustParsePatterns(`R^oo T^io`)
	in := engine.NewInstance()
	for i := 0; i < 300; i++ {
		in.MustAdd("R", fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%20))
	}
	for z := 0; z < 20; z++ {
		in.MustAdd("T", fmt.Sprintf("z%d", z), fmt.Sprintf("y%d", z))
	}
	memCat := in.MustCatalog(ps)
	sqlCat := mirrorSQLCatalog(t, in, ps, "batchjoin")

	memRes, err := Exec(context.Background(), q, ps, memCat)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := memRes.Rel()
	res, err := Exec(context.Background(), q, ps, sqlCat, WithProfile())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.Rel()
	if !got.Equal(want) {
		t.Fatal("batched adapter answers diverge from in-memory answers")
	}
	prof, _ := res.Profile()
	if prof.Calls.BatchGroups == 0 || prof.Calls.BatchedCalls < 20 {
		t.Fatalf("pushdown did not fire: %+v", prof.Calls)
	}
	st := sqlCat.TotalStats()
	if st.RoundTrips >= st.Calls {
		t.Fatalf("no round-trip saving: %d trips for %d calls", st.RoundTrips, st.Calls)
	}
}
