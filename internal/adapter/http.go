package adapter

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/sources"
)

// wireRequest is the JSON group protocol's request: one access pattern
// and the binding group's input vectors (a plain call is a group of
// one). wireResponse aligns groups[i] with inputs[i].
type wireRequest struct {
	Relation string     `json:"relation"`
	Pattern  string     `json:"pattern"`
	Inputs   [][]string `json:"inputs"`
}

type wireResponse struct {
	Groups [][][]string `json:"groups"`
}

// maxResponseBytes bounds how much of a 2xx response body the adapter
// will decode, the same ceiling Backend puts on request bodies: a
// misbehaving or hostile endpoint cannot make the process buffer an
// unbounded answer.
const maxResponseBytes = 32 << 20

// sharedTransport is the pooled transport all HTTP adapters share:
// adapters in one process typically target few endpoints, and the
// point of pooling is reusing connections across calls and adapters.
var sharedTransport = &http.Transport{
	MaxIdleConns:        64,
	MaxIdleConnsPerHost: 16,
	IdleConnTimeout:     90 * time.Second,
}

// HTTP adapts a remote endpoint speaking the JSON group protocol (see
// Backend for the reference server) to a limited-access source. It
// keeps connections pooled (one shared Transport per process),
// coalesces identical in-flight requests across callers — two queries
// asking the same (pattern, group) while one request is on the wire
// share that request — and meters an optional client-side token-bucket
// rate limiter, reporting waits in the stats. Batches travel as one
// POST per MaxBatch chunk. It is safe for concurrent use.
type HTTP struct {
	name      string
	arity     int
	patterns  []access.Pattern
	endpoint  string
	maxBatch  int
	respLimit int64 // maxResponseBytes; a field so tests can shrink it
	client    *http.Client
	limiter   *tokenBucket

	mu       sync.Mutex
	stats    sources.Stats
	inflight map[string]*httpFlight
}

// httpFlight is one in-progress wire request shared by coalesced
// callers.
type httpFlight struct {
	done   chan struct{}
	groups [][]sources.Tuple
	err    error
}

// openHTTP builds an HTTP adapter from a spec (schemes http/https).
func openHTTP(spec Spec) (sources.Source, error) {
	ps, err := spec.patterns()
	if err != nil {
		return nil, err
	}
	a := &HTTP{
		name:      spec.Name,
		arity:     spec.Arity,
		patterns:  ps,
		endpoint:  spec.Backend,
		maxBatch:  spec.maxBatch(),
		respLimit: maxResponseBytes,
		client:    &http.Client{Transport: sharedTransport},
		inflight:  map[string]*httpFlight{},
	}
	if spec.RateLimit > 0 {
		burst := spec.Burst
		if burst < 1 {
			burst = 1
		}
		a.limiter = &tokenBucket{rate: spec.RateLimit, burst: float64(burst), tokens: float64(burst), last: time.Now()}
	}
	return a, nil
}

// Name implements Source.
func (a *HTTP) Name() string { return a.name }

// Arity implements Source.
func (a *HTTP) Arity() int { return a.arity }

// Patterns implements Source.
func (a *HTTP) Patterns() []access.Pattern {
	return append([]access.Pattern(nil), a.patterns...)
}

// Batches implements Source: a binding group is one POST.
func (a *HTTP) Batches() bool { return true }

// Call implements Source: the whole binding group as one POST per
// MaxBatch chunk, coalesced with identical in-flight requests.
func (a *HTTP) Call(ctx context.Context, p access.Pattern, inputs [][]string) ([][]sources.Tuple, error) {
	if err := sources.CheckGroup(a.name, a.patterns, p, inputs); err != nil {
		return nil, err
	}
	out := make([][]sources.Tuple, 0, len(inputs))
	for lo := 0; lo < len(inputs); lo += a.maxBatch {
		hi := lo + a.maxBatch
		if hi > len(inputs) {
			hi = len(inputs)
		}
		groups, err := a.fetch(ctx, p, inputs[lo:hi])
		if err != nil {
			return nil, err
		}
		out = append(out, groups...)
	}
	return out, nil
}

// fetch services one chunk, joining an identical in-flight request when
// one exists (the coalescing is keyed by the full request payload, so
// single calls and whole batches both coalesce). A follower whose
// leader died of the leader's own cancellation retries rather than
// inheriting an error its own live context never caused.
func (a *HTTP) fetch(ctx context.Context, p access.Pattern, inputs [][]string) ([][]sources.Tuple, error) {
	body, err := json.Marshal(wireRequest{Relation: a.name, Pattern: string(p), Inputs: inputs})
	if err != nil {
		return nil, fmt.Errorf("adapter: http %s: %w", a.name, err)
	}
	key := string(body)
	for {
		a.mu.Lock()
		if f, found := a.inflight[key]; found {
			a.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if f.err != nil {
				if (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) && ctx.Err() == nil {
					continue // leader hung up; take over
				}
				return nil, f.err
			}
			a.meterServed(len(inputs), f.groups, 0)
			return f.groups, nil
		}
		f := &httpFlight{done: make(chan struct{})}
		a.inflight[key] = f
		a.mu.Unlock()

		f.groups, f.err = a.roundTrip(ctx, body, len(inputs))

		a.mu.Lock()
		delete(a.inflight, key)
		a.mu.Unlock()
		close(f.done)
		return f.groups, f.err
	}
}

// roundTrip performs one wire request: limiter, POST, decode, meter.
func (a *HTTP) roundTrip(ctx context.Context, body []byte, nCalls int) ([][]sources.Tuple, error) {
	waited, err := a.limiter.wait(ctx)
	if waited > 0 {
		a.mu.Lock()
		a.stats.RateLimitWaits++
		a.stats.RateLimitWait += waited
		a.mu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.endpoint, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("adapter: http %s: %w", a.name, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.client.Do(req)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		return nil, sources.Transient(fmt.Errorf("adapter: http %s: %w", a.name, err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		werr := fmt.Errorf("adapter: http %s: %s: %s", a.name, resp.Status, strings.TrimSpace(string(msg)))
		if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
			return nil, sources.Transient(werr)
		}
		return nil, werr
	}
	groups, err := a.decode(resp.Body, nCalls)
	if err != nil {
		return nil, err
	}
	a.meterServed(nCalls, groups, 1)
	a.mu.Lock()
	a.stats.Observe(time.Since(start))
	a.mu.Unlock()
	return groups, nil
}

// decode reads one 2xx response body — at most maxResponseBytes of it —
// into nCalls tuple groups. A malformed or misaligned body is transient
// (a proxy error page, a truncated transfer); a body over the limit is
// permanent: retrying fetches the same oversized answer again.
func (a *HTTP) decode(body io.Reader, nCalls int) ([][]sources.Tuple, error) {
	lr := &io.LimitedReader{R: body, N: a.respLimit + 1}
	var wr wireResponse
	err := json.NewDecoder(lr).Decode(&wr)
	if lr.N <= 0 {
		return nil, fmt.Errorf("adapter: http %s: response exceeds %d bytes", a.name, a.respLimit)
	}
	if err != nil {
		return nil, sources.Transient(fmt.Errorf("adapter: http %s: decoding response: %w", a.name, err))
	}
	if len(wr.Groups) != nCalls {
		return nil, sources.Transient(fmt.Errorf("adapter: http %s: %d groups for %d inputs", a.name, len(wr.Groups), nCalls))
	}
	groups := make([][]sources.Tuple, nCalls)
	for i, g := range wr.Groups {
		tuples := make([]sources.Tuple, len(g))
		for k, row := range g {
			if len(row) != a.arity {
				return nil, sources.Transient(fmt.Errorf("adapter: http %s: row of %d values, want arity %d", a.name, len(row), a.arity))
			}
			tuples[k] = sources.Tuple(row)
		}
		groups[i] = tuples
	}
	return groups, nil
}

// meterServed counts calls serviced from groups (trips is 1 for a wire
// round trip, 0 for a coalesced follower).
func (a *HTTP) meterServed(nCalls int, groups [][]sources.Tuple, trips int) {
	tuples := 0
	for _, g := range groups {
		tuples += len(g)
	}
	a.mu.Lock()
	a.stats.Calls += nCalls
	a.stats.TuplesReturned += tuples
	a.stats.RoundTrips += trips
	if trips > 0 && nCalls > 1 {
		a.stats.BatchedCalls += nCalls
	}
	a.mu.Unlock()
}

// StatsSnapshot implements StatsReporter.
func (a *HTTP) StatsSnapshot() sources.Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// ResetStats implements StatsReporter.
func (a *HTTP) ResetStats() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats = sources.Stats{}
}

// tokenBucket is a minimal client-side rate limiter: rate tokens per
// second up to burst, one token per wire request. A nil bucket never
// waits.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// wait blocks until a token is available (or ctx dies), returning how
// long it waited.
func (tb *tokenBucket) wait(ctx context.Context) (time.Duration, error) {
	if tb == nil {
		return 0, nil
	}
	var waited time.Duration
	for {
		tb.mu.Lock()
		now := time.Now()
		tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		tb.last = now
		if tb.tokens >= 1 {
			tb.tokens--
			tb.mu.Unlock()
			return waited, nil
		}
		need := time.Duration((1 - tb.tokens) / tb.rate * float64(time.Second))
		tb.mu.Unlock()
		if need <= 0 {
			need = time.Millisecond
		}
		timer := time.NewTimer(need)
		select {
		case <-timer.C:
			waited += need
		case <-ctx.Done():
			timer.Stop()
			return waited, ctx.Err()
		}
	}
}
