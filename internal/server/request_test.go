package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	ucqn "repro"
)

// stdlibDecodeRequest is the decodeRequest this package had before it
// read the body into a pooled buffer, kept as the reference
// decodeRequest is held to.
func stdlibDecodeRequest(w http.ResponseWriter, r *http.Request) (Request, bool) {
	var req Request
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return req, false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad request: "+err.Error(), status)
		return req, false
	}
	return req, true
}

// checkDecodeAgrees decodes body with both decoders and fails unless
// they answer the same status and, on success, the same fields.
func checkDecodeAgrees(t *testing.T, body []byte) {
	t.Helper()
	decode := func(dec func(http.ResponseWriter, *http.Request) (Request, bool)) (Request, bool, int) {
		rec := httptest.NewRecorder()
		req, ok := dec(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		return req, ok, rec.Code
	}
	want, wantOK, wantStatus := decode(stdlibDecodeRequest)
	got, gotOK, gotStatus := decode(decodeRequest)
	if gotOK != wantOK || gotStatus != wantStatus {
		t.Fatalf("body %q: ok %v status %d, encoding/json says ok %v status %d", body, gotOK, gotStatus, wantOK, wantStatus)
	}
	if wantOK && got != want {
		t.Fatalf("body %q: decoded %+v, encoding/json decodes %+v", body, got, want)
	}
}

// decodeSeeds are request bodies at the edges of the decoder's
// contract with encoding/json.
var decodeSeeds = []string{
	`{"tenant":"tenant-0","query":"Q(x) :- R(x, y)."}`,
	`{"tenant":"a"}`,
	`{}`,
	`  {"query" : "q" , "tenant" : "t" }  trailing bytes`,
	`{"tenant":"a"}{"tenant":"b"}`,
	`{"TENANT":"a","QuErY":"b"}`,
	`{"tenant":"a","tenant":"b"}`,
	`{"tenant":"a","tenant":null}`,
	`{"tenant":null}`,
	`{"tenant":1}`,
	`{"tenant":{"x":"y"},"query":"q"}`,
	`{"tenant":["a"]}`,
	`{"tenant":true}`,
	`{"other":[1,{"x":null},-2.5e+3,"sé"],"tenant":"a"}`,
	`{"other":01}`,
	`{"other":-}`,
	`{"other":1.}`,
	`{"other":1e}`,
	`{"other":nul}`,
	`{"tenant":nullx}`,
	`{"tenant":"a",}`,
	`{"tenant" "a"}`,
	`{"tenant":"a"`,
	`{"tenant":"a`,
	`{"tenant":"A\n\t\"\\\/\b\f\r"}`,
	`{"tenant":"😀 pair, \ud83d lone high, \ude00 lone low, \ud83dA high then A"}`,
	"{\"tenant\":\"invalid \xff\xfe utf-8 \xed\xa0\x80 surrogate\"}",
	"{\"tenant\":\"control \x01 byte\"}",
	`{"tenant":"bad \x escape"}`,
	`{"tenant":"bad \u12g4 escape"}`,
	"{\"ten\xffant\":\"a\"}",
	`null`,
	`null trailing`,
	`nullx`,
	`nul`,
	`"tenant"`,
	`[{"tenant":"a"}]`,
	`42`,
	``,
	`   `,
}

func TestDecodeRequestAgreesWithStdlib(t *testing.T) {
	for _, body := range decodeSeeds {
		checkDecodeAgrees(t, []byte(body))
	}
	// A body larger than the buffers the pool keeps.
	checkDecodeAgrees(t, []byte(`{"tenant":"`+strings.Repeat("x", 70<<10)+`"}`))
	// encoding/json refuses a value nested deeper than 10 000, even
	// under a key nobody reads: the request object is the first level.
	for _, depth := range []int{9999, 10000} {
		body := `{"other":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"tenant":"a"}`
		checkDecodeAgrees(t, []byte(body))
	}
}

// FuzzDecodeRequestAgreesWithStdlib holds decodeRequest to
// encoding/json's Decoder on every body: the same status and, when the
// body decodes, the same tenant and query.
func FuzzDecodeRequestAgreesWithStdlib(f *testing.F) {
	for _, body := range decodeSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(checkDecodeAgrees)
}

// A full answer hit allocates little beyond its response: the request
// text is parsed into arenas, its fast key rendered into pooled scratch
// and the answer tier looked up without building a key string. Every
// query of the fixture mix, warm, as the hot_cache workload serves it.
func TestServedHitAllocs(t *testing.T) {
	s, fixtures := newTestServer(t, Config{}, 1)
	f := fixtures[0]
	ctx := context.Background()
	for _, src := range f.Queries {
		if _, err := s.Query(ctx, f.Name, src); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := s.Query(ctx, f.Name, src); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(20 + raceAllocSlack); allocs > limit {
			t.Errorf("a hit on %q allocated %.0f times, want at most %.0f", src, allocs, limit)
		}
	}
}

// raceAllocSlack is what the race detector adds to an allocation count
// (racealloc_test.go).
var raceAllocSlack = 0

// A cached planning failure keeps its key and an error that quotes at
// most a bounded part of the text, and nothing else of its request: 32
// distinct ≈ 1 MiB texts naming an unknown relation each fail with
// ErrNotOrderable, are cached, and together retain less than 2.5 MB a
// request — a text's fast key and plan key, about 1 MiB each (a failure
// that kept its cores, its plan and its whole message retained 7.34 MB a
// request).
func TestCachedPlanningFailureRetainsLittle(t *testing.T) {
	s, fixtures := newTestServer(t, Config{}, 1)
	tenant := fixtures[0].Name
	ctx := context.Background()
	const n = 32
	text := func(i int) string {
		return fmt.Sprintf("Q(x) :- P%sN%d(x).", strings.Repeat("p", 1<<20), i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		_, err := s.Query(ctx, tenant, text(i))
		if !errors.Is(err, ucqn.ErrNotOrderable) {
			t.Fatalf("text %d: %v, want ErrNotOrderable", i, err)
		}
		if len(err.Error()) > 2<<10 {
			t.Fatalf("text %d: a %d-byte error", i, len(err.Error()))
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if plans, _ := s.qc.Len(); plans != n {
		t.Fatalf("%d plans cached, want the %d failures", plans, n)
	}
	if per := (float64(after.HeapInuse) - float64(before.HeapInuse)) / n; per > 2.5e6 {
		t.Errorf("a cached failure retains %.2f MB, want less than 2.5", per/1e6)
	}
	hits := s.qc.Stats().PlanHits
	if _, err := s.Query(ctx, tenant, text(0)); !errors.Is(err, ucqn.ErrNotOrderable) || s.qc.Stats().PlanHits != hits+1 {
		t.Fatalf("a repeated failing text: %v, %d plan hits, want ErrNotOrderable from the cache", err, s.qc.Stats().PlanHits-hits)
	}
}
