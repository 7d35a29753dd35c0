package ucqn_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	ucqn "repro"
	"repro/internal/minimize"
	"repro/internal/server"
)

// negationIdiom is one of the safe-negation idioms — set difference,
// gap detection, orphaned records — in its unanswerable form: a union
// of the idiom itself, which its patterns answer, and a variant whose
// negated variable is bound only through a literal whose input no step
// binds, so that PLAN* dismisses that literal and the negation with it.
// facts is an instance on which the variant puts rows into Δ.
type negationIdiom struct {
	name, query, patterns, facts string
}

var negationIdioms = []negationIdiom{
	{"difference", `
		D(x) :- A(x), not B(x).
		D(x) :- A(x), Alias(k, x, y), not B(y).`, `A^o B^i Alias^ioo`,
		`A("a"). A("b"). A("c"). B("b"). B("d"). Alias("k", "b", "e"). Alias("k", "c", "d").`},
	{"gap", `
		Missing(x) :- Expected(x), not Actual(x).
		Missing(x) :- Expected(x), Release(r, v), not Shipped(x, v).`, `Expected^o Actual^i Release^io Shipped^ii`,
		`Expected("auth"). Expected("db"). Expected("api"). Actual("auth"). Actual("api").
		Release("r1", "v2"). Shipped("auth", "v2"). Shipped("db", "v2").`},
	{"orphans", `
		Orphaned(c) :- Child(c, p), not Parent(p).
		Orphaned(c) :- Child(c, p), Archive(a, p, q), not Parent(q).`, `Child^oo Parent^i Archive^ioo`,
		`Child("c1", "p1"). Child("c2", "p2"). Child("c3", "p9"). Parent("p1"). Parent("p2"). Archive("a", "p1", "p7").`},
}

// The idioms through Exec: uncached, cached (miss, then hit) and
// streamed (drained, or read with Next) runs agree, Under ⊆ naive ⊆ Over
// with Δ = Over − Under, and under WithPartialResults the dismissed rule
// is reported access-limited, naming the literals it dismissed. Each
// idiom is its own core, so the cached and streamed runs reproduce the
// uncached rows byte for byte and the same report, which holds
// ucqn.ReportInvariants on every path. Over HTTP the response is a 200 carrying the same class. Run
// by `make cache-smoke`.
func TestNegationIdiomsUnanswerable(t *testing.T) {
	ctx := context.Background()
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, id := range negationIdioms {
		q, ps := ucqn.MustParseQuery(id.query), ucqn.MustParsePatterns(id.patterns)
		in := ucqn.NewInstance()
		if err := in.ParseInto(id.facts); err != nil {
			t.Fatal(err)
		}
		naiveRes, err := ucqn.Exec(ctx, q, nil, nil, ucqn.WithNaive(in))
		if err != nil {
			t.Fatal(err)
		}
		naive, _ := naiveRes.Rel()
		for _, r := range q.Rules {
			if len(minimize.CQ(r).Body) != len(r.Body) {
				t.Fatalf("%s: the idiom must be its own core", id.name)
			}
		}

		cat := in.MustCatalog(ps)
		qc := ucqn.NewQueryCache(ucqn.QueryCacheOptions{})
		var first []ucqn.Row
		var firstReport string
		for _, mode := range []string{"uncached", "cached miss", "cached hit", "streamed, drained", "streamed, Next"} {
			opts := []ucqn.ExecOption{ucqn.WithPartialResults(), ucqn.WithProfile()}
			switch mode {
			case "cached miss", "cached hit":
				opts = append(opts, ucqn.WithQueryCache(qc))
			case "streamed, drained", "streamed, Next":
				opts = append(opts, ucqn.WithStreaming())
			}
			res, err := ucqn.Exec(ctx, q, ps, cat, opts...)
			if err != nil {
				t.Fatalf("%s, %s: %v", id.name, mode, err)
			}
			var rows []ucqn.Row
			if mode == "streamed, Next" {
				s := res.Stream()
				for s.Next() {
					rows = append(rows, s.Tuple())
				}
				if err := s.Close(); err != nil {
					t.Fatalf("%s, %s: %v", id.name, mode, err)
				}
			} else {
				rel, _ := res.Rel()
				rows = rel.Rows()
			}
			star, ok := res.Report()
			if !ok || star.Complete() || !star.Certified {
				t.Fatalf("%s, %s: want an incomplete, certified report:\n%s", id.name, mode, star.String())
			}
			if err := ucqn.ReportInvariants(star, false); err != nil {
				t.Errorf("%s, %s: %v", id.name, mode, err)
			}
			for _, row := range star.Under.Rows() {
				if !naive.Contains(row) {
					t.Errorf("%s, %s: underestimate row %s is no answer", id.name, mode, row)
				}
			}
			for _, row := range naive.Rows() {
				if !star.Over.Contains(row) {
					t.Errorf("%s, %s: answer %s is missing from the overestimate %s", id.name, mode, row, star.Over)
				}
			}
			if !star.Delta.Equal(star.Over.Minus(star.Under)) || star.Delta.Len() == 0 {
				t.Errorf("%s, %s: Δ = %s, want Over − Under, not empty", id.name, mode, star.Delta)
			}
			inc, _ := res.Incompleteness()
			if f := inc.Failed; len(f) != 1 || f[0].Class != ucqn.FailAccessLimited || f[0].RuleIndex != 1 ||
				!strings.Contains(f[0].Step, "not ") || inc.RulesSurvived != 1 {
				t.Errorf("%s, %s: incompleteness %+v, want rule 2 access-limited with its dismissed negation", id.name, mode, inc)
			}
			if prof, _ := res.Profile(); mode == "cached hit" && (prof.Cache.PlanHits != 1 || prof.Cache.AnswerHits != 1) {
				t.Errorf("%s: cached hit = %+v, want the plan and both disjuncts' rows from the cache", id.name, prof.Cache)
			}
			if first == nil {
				first, firstReport = rows, star.String()
				continue
			}
			same := len(rows) == len(first)
			for i := 0; same && i < len(rows); i++ {
				same = rows[i].Key() == first[i].Key()
			}
			if !same || star.String() != firstReport {
				t.Errorf("%s, %s: rows %v, report\n%s\nwant the uncached %v,\n%s", id.name, mode, rows, star.String(), first, firstReport)
			}
		}

		if _, err := srv.AddTenant(id.name, ps, in.MustCatalog(ps), ucqn.Budget{}); err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(server.Request{Tenant: id.name, Query: id.query})
		httpResp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var resp server.Response
		err = json.NewDecoder(httpResp.Body).Decode(&resp)
		httpResp.Body.Close()
		if err != nil || httpResp.StatusCode != http.StatusOK || resp.Complete || resp.Degraded || resp.Incompleteness == nil {
			t.Fatalf("%s over HTTP: status %d, %+v (%v); want 200, incomplete, not degraded", id.name, httpResp.StatusCode, resp, err)
		}
		if f := resp.Incompleteness.Failed; len(f) != 1 || f[0].Rule != 2 || f[0].Class != string(ucqn.FailAccessLimited) || !strings.Contains(f[0].Step, "not ") {
			t.Errorf("%s over HTTP: failed rules %+v, want rule 2 access-limited with its dismissed negation", id.name, f)
		}
	}
}
