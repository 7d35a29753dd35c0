package server

import (
	"fmt"
	"net/http/httptest"
	"testing"

	ucqn "repro"
	"repro/internal/adapter"
	"repro/internal/adapter/fakedb"
)

// A catalog config file mounts straight onto the multi-tenant server:
// the tenant's relations live behind the SQL adapter and are queryable
// over the HTTP API.
func TestMountCatalogConfig(t *testing.T) {
	st := fakedb.StoreFor("mount_test")
	st.Reset()
	st.Load("edges", []string{"src", "dst"}, [][]string{
		{"a", "b"}, {"b", "c"}, {"c", "a"},
	})
	cfg := &adapter.Config{Tenants: []adapter.CatalogConfig{{
		Tenant: "graph",
		Sources: []adapter.Spec{{
			Name: "E", Arity: 2, Patterns: []string{"oo", "io"},
			Backend: "sql://fakedb/mount_test", Table: "edges", Columns: []string{"src", "dst"},
		}},
	}}}
	s := New(Config{})
	if err := MountCatalogConfig(s, cfg, ucqn.Budget{}); err != nil {
		t.Fatal(err)
	}
	if s.Tenant("graph") == nil {
		t.Fatal("tenant not registered")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _, code := post(t, ts.URL, "graph", `Q(x, y) :- E(x, y).`)
	if code != 200 {
		t.Fatalf("query status = %d", code)
	}
	if got := relOf(resp.Answers); got.Len() != 3 {
		t.Fatalf("answers = %d, want 3", got.Len())
	}

	// A second mount of the same tenant name must fail.
	if err := MountCatalogConfig(s, cfg, ucqn.Budget{}); err == nil {
		t.Fatal("duplicate tenant mount must fail")
	}
}

// Batched pushdown through a mounted SQL catalog: a fan-out join whose
// 256-binding group into T is one IN round trip answers exactly as the
// same tenant with one statement per binding (MaxBatch 1), at 10x fewer
// round trips and fewer wire bytes.
func TestRunBatchPushdown(t *testing.T) {
	const bindings, fanout = 256, 2
	var rRows, tRows [][]string
	for k := 0; k < bindings; k++ {
		for f := 0; f < fanout; f++ {
			rRows = append(rRows, []string{fmt.Sprintf("x%d_%d", k, f), fmt.Sprintf("z%d", k)})
		}
		tRows = append(tRows, []string{fmt.Sprintf("z%d", k), fmt.Sprintf("y%d", k)})
	}
	s := New(Config{})
	mount := func(tenant string, maxBatch int) *fakedb.Store {
		st := fakedb.StoreFor(tenant)
		st.Reset()
		st.Load("r_rel", []string{"xc", "zc"}, rRows)
		st.Load("t_rel", []string{"zc", "yc"}, tRows)
		backend := "sql://fakedb/" + tenant
		cfg := &adapter.Config{Tenants: []adapter.CatalogConfig{{
			Tenant: tenant,
			Sources: []adapter.Spec{
				{Name: "R", Arity: 2, Patterns: []string{"oo"},
					Backend: backend, Table: "r_rel", Columns: []string{"xc", "zc"}},
				{Name: "T", Arity: 2, Patterns: []string{"io"},
					Backend: backend, Table: "t_rel", Columns: []string{"zc", "yc"}, MaxBatch: maxBatch},
			},
		}}}
		if err := MountCatalogConfig(s, cfg, ucqn.Budget{}); err != nil {
			t.Fatal(err)
		}
		return st
	}
	batchedDB := mount("pushdown_batched", 0)
	perCallDB := mount("pushdown_percall", 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const q = `Q(x, y) :- R(x, z), T(z, y).`
	answers := map[string]*ucqn.Rel{}
	for _, tenant := range []string{"pushdown_batched", "pushdown_percall"} {
		resp, _, code := post(t, ts.URL, tenant, q)
		if code != 200 {
			t.Fatalf("%s: query status = %d", tenant, code)
		}
		answers[tenant] = relOf(resp.Answers)
	}
	if got := answers["pushdown_batched"]; got.Len() != bindings*fanout {
		t.Fatalf("answers = %d, want %d", got.Len(), bindings*fanout)
	}
	if !answers["pushdown_batched"].Equal(answers["pushdown_percall"]) {
		t.Fatal("per-call and batched answers diverge")
	}
	// One scan of R plus one IN statement for the whole group into T.
	if got := batchedDB.Queries(); got != 2 {
		t.Errorf("batched round trips = %d, want 2", got)
	}
	if b, p := batchedDB.Queries(), perCallDB.Queries(); p < 10*b {
		t.Errorf("round trips %d vs %d: batching saved less than 10x", p, b)
	}
	if b, p := batchedDB.BytesOnWire(), perCallDB.BytesOnWire(); b >= p {
		t.Errorf("batched wire bytes %d did not drop below per-call %d", b, p)
	}
}
