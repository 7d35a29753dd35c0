package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	ucqn "repro"
)

// TestWireRowsSortedAndIndependent: rows go out in Sorted order, a null
// as "null", each row a window of the shared backing that an append
// cannot grow into its neighbour.
func TestWireRowsSortedAndIndependent(t *testing.T) {
	rel := ucqn.NewRel()
	rel.Add(ucqn.RowOf("b", "2"))
	rel.Add(ucqn.Row{{S: "a"}, {Null: true}})
	rel.Add(ucqn.RowOf("c", "3"))
	rows := wireRows(rel)
	if got, _ := json.Marshal(rows); string(got) != `[["a","null"],["b","2"],["c","3"]]` {
		t.Fatalf("wireRows = %s", got)
	}
	rows[0] = append(rows[0], "appended")
	if rows[1][0] != "b" {
		t.Fatal("appending to a row overwrote the next one")
	}
	if got, _ := json.Marshal(wireRows(ucqn.NewRel())); string(got) != `[]` {
		t.Fatalf("empty relation encodes as %s, want []", got)
	}
	nullary := ucqn.NewRel()
	nullary.Add(ucqn.Row{})
	if got, _ := json.Marshal(wireRows(nullary)); string(got) != `[[]]` {
		t.Fatalf("nullary answer encodes as %s, want [[]]", got)
	}
}

// FuzzWireCodecAgreesWithStdlib holds the encoder to encoding/json: a
// response built around two arbitrary strings and an arbitrary elapsed
// time, in its rows and its incompleteness report, appends to exactly
// json.Marshal's bytes and a newline. The seed
// corpus is testdata/fuzz/FuzzWireCodecAgreesWithStdlib.
func FuzzWireCodecAgreesWithStdlib(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b string, elapsed float64) {
		if math.IsNaN(elapsed) || math.IsInf(elapsed, 0) {
			elapsed = 0 // a measured duration; json.Marshal refuses these
		}
		resp := &Response{Tenant: a, Complete: len(a)%2 == 0, Shed: len(b)%3 == 0, Degraded: len(b)%2 == 0,
			Calls: len(a) + len(b), ElapsedMS: elapsed, Gen: int64(len(a)) - int64(len(b))}
		reports := []*IncompletenessReport{nil, {RulesTotal: 1, RulesSurvived: 1}, {RulesTotal: 3, RulesSurvived: 1,
			Failed: []FailedRule{{Rule: 2, Class: a, Source: b, Step: a, Error: b}, {Rule: 3, Class: "breaker-open", Error: a}}}}
		for _, rows := range [][][]string{{{a, b}, {b}, nil, {}}, nil} {
			for _, rep := range reports {
				resp.Answers, resp.Incompleteness = rows, rep
				want, err := json.Marshal(resp)
				if err != nil {
					t.Fatal(err)
				}
				if got := appendResponse(nil, resp); !bytes.Equal(got, append(want, '\n')) {
					t.Fatalf("appendResponse =\n%q\njson.Marshal =\n%q", got, want)
				}
			}
		}
	})
}

// TestQueryBodyIsMarshal pins the wire contract end to end: the body of
// POST /v1/query is json.Marshal of the response it carries and a
// newline — for the fixture mix, for answers the patterns cannot give
// in full, for shed answers and for a 4 000-row answer full of cells
// to escape, each sent with its Content-Length, none chunked. (A cell of invalid UTF-8
// goes out as \ufffd and comes back as U+FFFD, which marshals as
// itself, so it cannot take this round trip; the fuzz target holds it.)
func TestQueryBodyIsMarshal(t *testing.T) {
	s, fixtures := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 2, QueueWait: 2 * time.Millisecond}, 2)
	ps := ucqn.MustParsePatterns(`B^oo`)
	in := ucqn.NewInstance()
	for i := 0; i < 4000; i++ {
		cell := fmt.Sprintf("v%d", i%20)
		switch i % 6 {
		case 1:
			cell += "<&>"
		case 2:
			cell += "\u2028\x01"
		case 3:
			cell += "\"\\/"
		}
		in.MustAdd("B", fmt.Sprintf("k%06d", (i*7919)%4000), cell)
	}
	if _, err := s.AddTenant("big", ps, in.MustCatalog(ps), ucqn.Budget{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	query := func(tenant, q string) *Response {
		t.Helper()
		body, _ := json.Marshal(Request{Tenant: tenant, Query: q})
		httpResp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer httpResp.Body.Close()
		got, err := io.ReadAll(httpResp.Body)
		if err != nil || httpResp.StatusCode != http.StatusOK {
			t.Fatalf("%s %q: status %d, %v", tenant, q, httpResp.StatusCode, err)
		}
		if httpResp.ContentLength != int64(len(got)) || len(httpResp.TransferEncoding) != 0 {
			t.Errorf("%s %q: %d-byte body sent with Content-Length %d, transfer encoding %v; want its length, not chunks",
				tenant, q, len(got), httpResp.ContentLength, httpResp.TransferEncoding)
		}
		var resp Response
		if err := json.Unmarshal(got, &resp); err != nil {
			t.Fatalf("%s %q: %v", tenant, q, err)
		}
		want, err := json.Marshal(&resp)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("%s %q: body\n%q\nis not json.Marshal's\n%q", tenant, q, got, want)
		}
		return &resp
	}

	for _, f := range fixtures {
		for _, q := range f.Queries {
			query(f.Name, q)
		}
	}
	for _, q := range []string{ // TestServerAnswersInfeasible's
		"Q(x) :- R(x, y).\nQ(x) :- R(x, y), S(z, w).",
		"Q(x, y) :- R(x, y), not L(x).\nQ(x, y) :- R(x, y), S(z, y).",
		"Q(y) :- S(x, y).",
	} {
		if resp := query(fixtures[0].Name, q); resp.Incompleteness == nil {
			t.Errorf("%q: no incompleteness report", q)
		}
	}

	s.slots <- struct{}{} // occupy the only slot: both shed
	if resp := query(fixtures[1].Name, fixtures[1].Queries[0]); !resp.Shed || !resp.Complete {
		t.Errorf("warm shed answer: shed=%v complete=%v", resp.Shed, resp.Complete)
	}
	if resp := query(fixtures[1].Name, `Q(y) :- R(x, y), S(y, z).`); !resp.Shed || resp.Complete {
		t.Errorf("cold shed answer: shed=%v complete=%v", resp.Shed, resp.Complete)
	}
	<-s.slots

	if resp := query("big", `Q(x, y) :- B(x, y).`); len(resp.Answers) != 4000 {
		t.Fatalf("big answer: %d rows, want 4000", len(resp.Answers))
	}
}

var sinkWire [][]string

func BenchmarkWireRows(b *testing.B) {
	for _, n := range []int{10, 4000} {
		rel := ucqn.NewRel()
		for i := 0; i < n; i++ {
			rel.Add(ucqn.RowOf(fmt.Sprintf("k%06d", (i*7919)%n), fmt.Sprintf("v%d", i%20)))
		}
		// What a cached answer's view is by the time it is flattened: the
		// order already computed.
		served := rel.View()
		served.Sorted()
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkWire = wireRows(served)
			}
		})
	}
}

// BenchmarkWireCodec times the handler's encode of a response body at
// 10 and 4 000 two-cell rows: the append into a reused buffer beside
// the json.Encoder.Encode it replaces.
func BenchmarkWireCodec(b *testing.B) {
	for _, n := range []int{10, 4000} {
		resp := &Response{Tenant: "tenant-0", Answers: make([][]string, n), Complete: true, ElapsedMS: 0.755, Gen: 1,
			Incompleteness: &IncompletenessReport{RulesTotal: 1, RulesSurvived: 1}}
		for i := range resp.Answers {
			resp.Answers[i] = []string{fmt.Sprintf("k%06d", (i*7919)%n), fmt.Sprintf("v%d", i%20)}
		}
		b.Run(fmt.Sprintf("rows=%d/encode/append", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkBody = appendResponse(sinkBody[:0], resp) // reused, as writeResponse's pool does
			}
		})
		b.Run(fmt.Sprintf("rows=%d/encode/json", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = json.NewEncoder(io.Discard).Encode(resp)
			}
		})
	}
}

var sinkBody []byte
