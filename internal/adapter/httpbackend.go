package adapter

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/sources"
)

// Backend is the reference server for the JSON group protocol: an
// http.Handler answering wireRequests from an in-memory source. Tests
// mount it on httptest servers — with injectable latency and fault
// bursts — and deployments can use it to expose any Source over the
// wire (two ucqnd processes can front each other's catalogs with it).
// It meters requests and approximate bytes on the wire, which is what
// E27 reports.
type Backend struct {
	src sources.Source

	mu         sync.Mutex
	latency    time.Duration
	failNext   int
	failStatus int

	requests atomic.Int64
	bytes    atomic.Int64
}

// NewBackend serves src over the JSON group protocol.
func NewBackend(src sources.Source) *Backend { return &Backend{src: src} }

// SetLatency makes every request sleep d before answering (simulated
// service time; honors the request context).
func (b *Backend) SetLatency(d time.Duration) {
	b.mu.Lock()
	b.latency = d
	b.mu.Unlock()
}

// FailNext makes the next n requests fail with the given HTTP status
// (e.g. 503 for a transient outage, 400 for a permanent one).
func (b *Backend) FailNext(n, status int) {
	b.mu.Lock()
	b.failNext, b.failStatus = n, status
	b.mu.Unlock()
}

// Requests returns the number of wire requests served (failed ones
// included) — the backend-side round-trip count.
func (b *Backend) Requests() int64 { return b.requests.Load() }

// BytesOnWire approximates the payload bytes transferred (request plus
// response bodies).
func (b *Backend) BytesOnWire() int64 { return b.bytes.Load() }

// ServeHTTP implements http.Handler.
func (b *Backend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b.requests.Add(1)
	var req wireRequest
	body := http.MaxBytesReader(w, r.Body, 32<<20)
	dec := json.NewDecoder(body)
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	b.mu.Lock()
	lat := b.latency
	fail := false
	status := 0
	if b.failNext > 0 {
		b.failNext--
		fail, status = true, b.failStatus
	}
	b.mu.Unlock()
	if lat > 0 {
		timer := time.NewTimer(lat)
		select {
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return
		}
	}
	if fail {
		http.Error(w, "injected fault", status)
		return
	}
	groups, err := b.src.Call(r.Context(), access.Pattern(req.Pattern), req.Inputs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp := wireResponse{Groups: make([][][]string, len(groups))}
	for i, rows := range groups {
		group := make([][]string, len(rows))
		for k, t := range rows {
			group[k] = t
		}
		resp.Groups[i] = group
	}
	out, err := json.Marshal(resp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b.countBytes(&req, out)
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}

// countBytes approximates the wire payload of one exchange.
func (b *Backend) countBytes(req *wireRequest, resp []byte) {
	in, _ := json.Marshal(req)
	b.bytes.Add(int64(len(in) + len(resp)))
}
