package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ucqn "repro"
	"repro/internal/qcache/persist"
	"repro/internal/server"
)

// outDir is where traces and the persistence directories go: bench/out,
// whether the benchmark runs from the repository root or from bench/.
func outDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// countingFS meters the persistence log's disk traffic.
type countingFS struct {
	persist.FS
	writes, bytes, syncs, syncNS, compactions atomic.Int64
}

type countingFile struct {
	persist.File
	fs *countingFS
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writes.Add(1)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f countingFile) Sync() error { return f.fs.timeSync(f.File.Sync) }

// timeSync counts and times one fsync, of a file or of the directory.
func (c *countingFS) timeSync(sync func() error) error {
	start := time.Now()
	err := sync()
	c.syncs.Add(1)
	c.syncNS.Add(int64(time.Since(start)))
	return err
}

func (c *countingFS) OpenAppend(path string) (persist.File, int64, error) {
	f, size, err := c.FS.OpenAppend(path)
	if err != nil {
		return nil, 0, err
	}
	return countingFile{f, c}, size, nil
}

func (c *countingFS) Create(path string) (persist.File, error) {
	f, err := c.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c}, nil
}

// Rename counts compactions: the log commits one by renaming its
// temporary snapshot over answers.snap.
func (c *countingFS) Rename(oldPath, newPath string) error {
	if filepath.Base(newPath) == "answers.snap" {
		c.compactions.Add(1)
	}
	return c.FS.Rename(oldPath, newPath)
}

func (c *countingFS) SyncDir(dir string) error {
	return c.timeSync(func() error { return c.FS.SyncDir(dir) })
}

// instance is one prepared server of a spec, not yet listening.
type instance struct {
	spec *spec
	srv  *server.Server
	cats []*ucqn.Catalog
	fs   *countingFS // nil unless spec.persist
	dir  string      // persistence directory, "" unless spec.persist
}

// prepare boots a server for the spec with fresh catalogs and, on a
// persistent spec, a fresh directory. Every phase and pass runs on its
// own instance so that all start from the same state.
func (s *spec) prepare() (*instance, error) {
	in := &instance{spec: s}
	if s.persist {
		if err := os.MkdirAll(outDir(), 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(outDir(), "persist-")
		if err != nil {
			return nil, err
		}
		in.dir, in.fs = dir, &countingFS{FS: persist.OSFS{}}
	}
	if s.store != nil {
		s.store.Reset()
		s.store.SetLatency(s.latency)
	}
	if err := in.open(); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// open (re)opens the server on the instance's directory and registers
// the tenants with fresh catalogs.
func (in *instance) open() error {
	cfg := in.spec.cfg
	if in.dir != "" {
		cfg.PersistDir = in.dir
		// SyncEvery stays at its default (64). 32 KiB of log per
		// compaction gives the traced run three cycles and the timed
		// phase dozens.
		cfg.PersistOptions = persist.Options{CompactBytes: 32 << 10, FS: in.fs}
	}
	srv, err := server.Open(cfg)
	if err != nil {
		return err
	}
	in.srv, in.cats = srv, nil
	for _, t := range in.spec.tenants {
		cat, err := t.catalog()
		if err != nil {
			return err
		}
		in.cats = append(in.cats, cat)
		if _, err := srv.AddTenant(t.name, t.patterns, cat, ucqn.Budget{}); err != nil {
			return err
		}
	}
	return nil
}

// shutdown closes the server's log and the catalogs' adapters, keeping
// the persistence directory.
func (in *instance) shutdown() error {
	var first error
	if in.srv != nil {
		first = in.srv.Close()
	}
	for _, cat := range in.cats {
		for _, name := range cat.Names() {
			if c, ok := cat.Source(name).(io.Closer); ok {
				if err := c.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
	}
	in.srv, in.cats = nil, nil
	return first
}

func (in *instance) close() error {
	err := in.shutdown()
	if in.dir != "" {
		if rerr := os.RemoveAll(in.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// query answers request i in process and verifies it.
func (in *instance) query(ctx context.Context, i int) (*server.Response, error) {
	r := &in.spec.requests[i]
	resp, err := in.srv.Query(ctx, in.spec.tenants[r.tenant].name, r.query)
	if err != nil {
		return nil, err
	}
	if msg := r.check(resp, 0); msg != "" {
		return nil, fmt.Errorf("%s", msg)
	}
	return resp, nil
}

// warm issues the spec's warm-up requests in process.
func (in *instance) warm(ctx context.Context) error {
	for _, i := range in.spec.warm {
		if _, err := in.query(ctx, i); err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return nil
}

// check verifies a response against the request's ground truth: a
// complete answer equals it row for row (both sides are in Rel.Sorted
// order), any other is a subset, and the generation is not older than
// the invalidation watermark read before the request was sent. It
// returns "" or what is wrong.
func (r *request) check(resp *server.Response, watermark int64) string {
	if resp.Gen < watermark {
		return fmt.Sprintf("%q: gen %d below acked invalidation watermark %d", r.query, resp.Gen, watermark)
	}
	if resp.Complete {
		if len(resp.Answers) != len(r.truth) {
			return fmt.Sprintf("%q: complete with %d rows, ground truth has %d", r.query, len(resp.Answers), len(r.truth))
		}
		for i, row := range resp.Answers {
			if !slices.Equal(row, r.truth[i]) {
				return fmt.Sprintf("%q: row %d is %v, ground truth has %v", r.query, i, row, r.truth[i])
			}
		}
		return ""
	}
	truth := make(map[string]bool, len(r.truth))
	for _, row := range r.truth {
		truth[strings.Join(row, "\x00")] = true
	}
	for _, row := range resp.Answers {
		if !truth[strings.Join(row, "\x00")] {
			return fmt.Sprintf("%q: row %v is not a certain answer", r.query, row)
		}
	}
	return ""
}

// loopback is a server.Server listening on 127.0.0.1.
type loopback struct {
	hs   *http.Server
	url  string
	done chan error
}

func listen(srv *server.Server) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

func (l *loopback) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	<-l.done
	return err
}

// client is one closed-loop client: one keep-alive connection, its own
// transport and read buffer, nothing shared with the others.
type client struct {
	tr  *http.Transport
	hc  *http.Client
	url string
	buf bytes.Buffer
}

func newClient(url string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{tr: tr, hc: &http.Client{Transport: tr}, url: url}
}

// post sends body to path and reads the whole response into c.buf. The
// duration runs from before the request is written until the last body
// byte is read.
func (c *client) post(path string, body []byte) (int, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, lat, err
}

// sample is one verified response.
type sample struct {
	end time.Duration // completion, since the phase began
	lat time.Duration
}

func latencies(samples []sample) []time.Duration {
	lat := make([]time.Duration, len(samples))
	for i, sm := range samples {
		lat[i] = sm.lat
	}
	return lat
}

// loadResult is what the clients of one phase saw.
type loadResult struct {
	attempted, failed, complete int
	failures                    []string // the first few, for the report
	samples                     []sample
	mallocs                     uint64
}

func (r *loadResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *loadResult) merge(o *loadResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.complete += o.complete
	r.samples = append(r.samples, o.samples...)
	for _, f := range o.failures {
		if len(r.failures) < 5 {
			r.failures = append(r.failures, f)
		}
	}
}

// rig is a workload ready for its first timed request: built from the
// seed, served over loopback, warmed.
type rig struct {
	spec    *spec
	inst    *instance
	lb      *loopback
	clients []*client
	// marks[t] is tenant t's highest acked invalidation generation.
	marks []atomic.Int64
}

// setUp does everything that precedes the first timed request: fixture
// and ground truth, server, listener, one connection per client, warm-up.
func setUp(build func(int64) (*spec, error), seed int64, clients int) (*rig, error) {
	s, err := build(seed)
	if err != nil {
		return nil, err
	}
	return s.boot(clients)
}

// boot serves a fresh instance of s over loopback and warms it.
func (s *spec) boot(clients int) (*rig, error) {
	inst, err := s.prepare()
	if err != nil {
		return nil, err
	}
	r := &rig{spec: s, inst: inst, marks: make([]atomic.Int64, len(s.tenants))}
	if r.lb, err = listen(inst.srv); err != nil {
		inst.close()
		return nil, err
	}
	for c := 0; c < clients; c++ {
		r.clients = append(r.clients, newClient(r.lb.url))
	}
	var res loadResult
	for _, i := range s.warm {
		r.send(r.clients[0], i, &res, 0)
	}
	for _, c := range r.clients[1:] {
		r.send(c, s.warm[0], &res, 0) // opens the client's connection
	}
	if res.failed > 0 {
		r.tearDown()
		return nil, fmt.Errorf("%s: warm-up: %s", s.name, res.failures[0])
	}
	return r, nil
}

func (r *rig) tearDown() error {
	for _, c := range r.clients {
		c.tr.CloseIdleConnections()
	}
	err := r.lb.stop()
	if cerr := r.inst.close(); err == nil {
		err = cerr
	}
	return err
}

// send issues request i on c, verifies the response and records it.
func (r *rig) send(c *client, i int, res *loadResult, since time.Duration) {
	req := &r.spec.requests[i]
	mark := r.marks[req.tenant].Load()
	res.attempted++
	status, lat, err := c.post("/v1/query", req.body)
	switch {
	case err != nil:
		res.fail("transport: %v", err)
		return
	case status != http.StatusOK:
		res.fail("status %d: %s", status, bytes.TrimSpace(c.buf.Bytes()))
		return
	}
	var resp server.Response
	if err := json.Unmarshal(c.buf.Bytes(), &resp); err != nil {
		res.fail("decode: %v", err)
		return
	}
	if msg := req.check(&resp, mark); msg != "" {
		res.fail("%s", msg)
		return
	}
	if resp.Complete && !resp.Shed && !resp.Degraded {
		res.complete++
	}
	res.samples = append(res.samples, sample{end: since + lat, lat: lat})
}

// invalidate posts /v1/invalidate for tenant t and raises its watermark.
func (r *rig) invalidate(c *client, t int, res *loadResult) {
	body, _ := json.Marshal(server.Request{Tenant: r.spec.tenants[t].name})
	status, _, err := c.post("/v1/invalidate", body)
	var ack struct {
		Gen int64 `json:"gen"`
	}
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(c.buf.Bytes(), &ack)
	}
	if err != nil || status != http.StatusOK {
		res.attempted++
		res.fail("invalidate: status %d: %v", status, err)
		return
	}
	r.marks[t].Store(ack.Gen)
}

// drive runs the closed loop: every client sends its next request as
// soon as the previous one is answered, until d has passed or, when
// limit > 0, it has sent limit requests. Clients share nothing on the
// request path; their results are merged afterwards.
func (r *rig) drive(d time.Duration, limit int) *loadResult {
	parts := make([]loadResult, len(r.clients))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, next := &parts[ci], r.spec.next(ci, len(r.clients))
			for n, k := 0, 0; limit == 0 || n < limit; {
				since := time.Since(start)
				if limit == 0 && since >= d {
					return
				}
				r.send(c, next(), res, since)
				n++
				if every := r.spec.invalidateEvery; ci == 0 && every > 0 && n%every == 0 {
					r.invalidate(c, k%len(r.spec.tenants), res)
					k++
				}
			}
		}()
	}
	wg.Wait()
	total := &loadResult{}
	runtime.ReadMemStats(&ms1)
	total.mallocs = ms1.Mallocs - ms0.Mallocs
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// recovery is what reopening a used persistence directory gave.
type recovery struct {
	dirBytes int64         // directory size after Close
	open     time.Duration // server.Open + tenant registration
	replays  int
	warm     int // replays answered with no source call
}

// recover ends a persistent instance's phase: Close, server.Open on the
// same directory, and one verified replay of the warm-up pairs.
func (in *instance) recover(ctx context.Context) (recovery, error) {
	var rec recovery
	if err := in.shutdown(); err != nil {
		return rec, fmt.Errorf("close: %w", err)
	}
	var err error
	if rec.dirBytes, err = dirBytes(in.dir); err != nil {
		return rec, err
	}
	start := time.Now()
	if err := in.open(); err != nil {
		return rec, fmt.Errorf("reopen: %w", err)
	}
	rec.open = time.Since(start)
	for _, i := range in.spec.warm {
		resp, err := in.query(ctx, i)
		if err != nil {
			return rec, fmt.Errorf("replay after recovery: %w", err)
		}
		rec.replays++
		if resp.Calls == 0 {
			rec.warm++
		}
	}
	return rec, nil
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
