// Package server is the multi-tenant serving layer over the ucqn
// facade: an HTTP daemon (cmd/ucqnd) exposing Exec over the wire with
// per-tenant catalogs and quotas, admission control with queue-depth
// shedding, and one semantic query cache shared across tenants.
//
// The overload contract follows the paper's ANSWER* reading: a request
// the server cannot afford to evaluate is not refused with a 503 — it
// is executed in shed mode (a per-query budget that admits no source
// calls), which degrades it to the certified underestimate covered by
// the answer cache, with the Incompleteness report serialized into the
// response instead of an error. Every 200 is sound; "complete" says
// whether it is also exact.
//
// Tenant isolation rests on two invariants of the underlying runtime
// (see DESIGN.md): answer-cache entries are keyed by the registered
// monotonic catalog ID (never a recycled pointer), and cross-tenant
// reuse of answers requires proven query equivalence plus an identical
// catalog fingerprint. Each tenant owns its catalog, so one tenant's
// rows can never serve another's query.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ucqn "repro"
	"repro/internal/engine"
	"repro/internal/qcache"
	"repro/internal/qcache/fleet"
	"repro/internal/qcache/persist"
)

// Config configures a Server. The zero value serves with GOMAXPROCS
// execution slots, a queue of four waiters per slot, a 25ms queue wait,
// no default quota, and default cache options.
type Config struct {
	// MaxConcurrent is the number of queries evaluated simultaneously;
	// 0 means GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue is how many admitted requests may wait for a slot before
	// further arrivals shed; 0 means 4×MaxConcurrent.
	MaxQueue int
	// QueueWait bounds how long an admitted request waits for a slot
	// before it sheds; 0 means 25ms.
	QueueWait time.Duration
	// DefaultQuota is the per-request source-call budget applied to
	// tenants registered without their own. Zero means unlimited.
	DefaultQuota ucqn.Budget
	// Cache configures the shared cross-tenant query cache.
	Cache ucqn.QueryCacheOptions
	// PersistDir, when non-empty, backs the shared query cache with the
	// crash-safe persistence log in that directory: answer entries
	// survive restarts (warm-loaded under the same bounds), recovery
	// tolerates torn or corrupt files by dropping exactly the
	// unverifiable records, and /v1/invalidate tombstones persisted
	// entries so a restart cannot resurrect them. Construct the server
	// with Open (not New) to use it, and Close it on shutdown so the
	// final fsync batch is durable. Tenant names are the persistence
	// labels: a tenant's answers warm-load only for a tenant of the same
	// name.
	PersistDir string
	// PersistOptions tunes the persistence log under PersistDir or
	// FleetDir (zero value = production defaults). Tests inject a
	// FaultFS or a virtual clock here.
	PersistOptions persist.Options
	// FleetDir, when non-empty, joins the answer cache to a *shared*
	// persistence directory as one replica of a cache fleet (mutually
	// exclusive with PersistDir): one replica at a time — the holder of
	// the TTL'd writer lease — owns the log, the others follow the
	// published state at the poll interval and warm-start from answers
	// any sibling paid for. Invalidations fan out fleet-wide within one
	// poll interval. See internal/qcache/fleet.
	FleetDir string
	// FleetID names this replica in the fleet (required with FleetDir;
	// must be unique across replicas and stable across restarts).
	FleetID string
	// FleetTTL and FleetPoll are the lease TTL and the poll/renewal
	// interval (defaults per fleet.Options).
	FleetTTL  time.Duration
	FleetPoll time.Duration
	// FleetManualTick disables the background ticker when set (tests
	// drive Fleet().Tick with a virtual clock).
	FleetManualTick bool
}

func (c Config) maxConcurrent() int {
	if c.MaxConcurrent > 0 {
		return c.MaxConcurrent
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) maxQueue() int {
	if c.MaxQueue > 0 {
		return c.MaxQueue
	}
	return 4 * c.maxConcurrent()
}

func (c Config) queueWait() time.Duration {
	if c.QueueWait > 0 {
		return c.QueueWait
	}
	return 25 * time.Millisecond
}

// Tenant is one registered tenant: its catalog, declared patterns, and
// per-request quota, plus cumulative serving counters.
type Tenant struct {
	name  string
	ps    *ucqn.PatternSet
	cat   *ucqn.Catalog
	quota ucqn.Budget

	requests atomic.Int64
	shed     atomic.Int64
	degraded atomic.Int64
	errors   atomic.Int64
	calls    atomic.Int64 // source-call budget spent across requests
}

// Catalog returns the tenant's catalog.
func (t *Tenant) Catalog() *ucqn.Catalog { return t.cat }

// Patterns returns the tenant's declared access patterns.
func (t *Tenant) Patterns() *ucqn.PatternSet { return t.ps }

// Server serves Exec over HTTP for a set of tenants. Construct with
// New, register tenants with AddTenant, and mount Handler.
type Server struct {
	cfg   Config
	qc    *ucqn.QueryCache
	fleet *fleet.Node // nil unless Config.FleetDir was set
	slots chan struct{}

	queued atomic.Int64
	sheds  atomic.Int64

	mu      sync.RWMutex
	tenants map[string]*Tenant
}

// New returns a server with the given configuration and a fresh shared
// in-memory query cache. Config.PersistDir is ignored here — use Open
// for a persistence-backed server.
func New(cfg Config) *Server {
	return &Server{
		cfg:     cfg,
		qc:      ucqn.NewQueryCache(cfg.Cache),
		slots:   make(chan struct{}, cfg.maxConcurrent()),
		tenants: map[string]*Tenant{},
	}
}

// Open is New plus persistence: when Config.PersistDir is set, the
// shared query cache is backed by the crash-safe log in that directory
// and whatever answer entries survived a previous process are
// warm-loaded on each tenant's first query. Each Open owns its log
// instance (one writer per server); call Close on shutdown. The only
// errors are real filesystem failures — corrupt or torn on-disk state
// recovers to a cold cache, never a failed start.
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	switch {
	case cfg.FleetDir != "" && cfg.PersistDir != "":
		return nil, errors.New("server: FleetDir and PersistDir are mutually exclusive")
	case cfg.FleetDir != "":
		qc, node, err := qcache.OpenFleet(cfg.FleetDir, cfg.Cache, fleet.Options{
			ID:         cfg.FleetID,
			TTL:        cfg.FleetTTL,
			Poll:       cfg.FleetPoll,
			FS:         cfg.PersistOptions.FS,
			Now:        cfg.PersistOptions.Now,
			Log:        cfg.PersistOptions,
			Background: !cfg.FleetManualTick,
		})
		if err != nil {
			return nil, err
		}
		s.qc, s.fleet = qc, node
	case cfg.PersistDir != "":
		qc, _, err := qcache.OpenPersistent(cfg.PersistDir, cfg.Cache, cfg.PersistOptions)
		if err != nil {
			return nil, err
		}
		s.qc = qc
	}
	return s, nil
}

// Fleet returns the server's fleet node (nil unless Config.FleetDir
// was set) — for stats, role inspection, and manual ticking in tests.
func (s *Server) Fleet() *fleet.Node { return s.fleet }

// Close flushes and closes the persistence log (no-op for an in-memory
// server). The graceful-shutdown path should call it after draining
// requests so every cached answer appended since the last fsync batch
// is durable for the next start.
func (s *Server) Close() error {
	return s.qc.ClosePersist()
}

// Cache returns the shared cross-tenant query cache.
func (s *Server) Cache() *ucqn.QueryCache { return s.qc }

// AddTenant registers a tenant with its own catalog and patterns. A
// zero quota inherits Config.DefaultQuota. Registering an existing name
// is an error.
func (s *Server) AddTenant(name string, ps *ucqn.PatternSet, cat *ucqn.Catalog, quota ucqn.Budget) (*Tenant, error) {
	if name == "" {
		return nil, errors.New("server: tenant name must be non-empty")
	}
	if ps == nil || cat == nil {
		return nil, errors.New("server: tenant needs patterns and a catalog")
	}
	if quota == (ucqn.Budget{}) {
		quota = s.cfg.DefaultQuota
	}
	t := &Tenant{name: name, ps: ps, cat: cat, quota: quota}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[name]; ok {
		return nil, fmt.Errorf("server: tenant %q already registered", name)
	}
	if s.qc.Persist() != nil {
		// The tenant name is the catalog's stable identity on disk: a
		// restarted server warm-loads the tenant's answers by name.
		cat.SetPersistentID(name)
	}
	s.tenants[name] = t
	return t, nil
}

// Tenant returns the named tenant, or nil.
func (s *Server) Tenant(name string) *Tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tenants[name]
}

// Invalidate bumps the named tenant's catalog generation: its cached
// answers stop matching and are re-derived from the sources on the next
// query. Other tenants' entries are untouched. On a persistence-backed
// server this also tombstones the tenant's persisted entries (the
// bumped generation is appended to the log), so a later restart cannot
// resurrect the invalidated answers; on a fleet replica the tombstone
// additionally fans out to every sibling within one poll interval. The
// returned generation is the invalidation's watermark: any response
// whose Gen is at least it was computed after the invalidation took
// local effect.
func (s *Server) Invalidate(name string) (int64, error) {
	t := s.Tenant(name)
	if t == nil {
		return 0, fmt.Errorf("server: unknown tenant %q", name)
	}
	s.qc.InvalidateCatalog(t.cat)
	return t.cat.Generation(), nil
}

// Request is the wire shape of POST /v1/query.
type Request struct {
	Tenant string `json:"tenant"`
	Query  string `json:"query"`
}

// FailedRule is one dropped disjunct of a degraded answer.
type FailedRule struct {
	Rule   int    `json:"rule"` // 1-based index in the executed union
	Class  string `json:"class"`
	Source string `json:"source,omitempty"`
	Error  string `json:"error"`
}

// IncompletenessReport serializes an engine Incompleteness for the
// wire: how many disjuncts survived and why the rest were dropped.
type IncompletenessReport struct {
	RulesTotal    int          `json:"rules_total"`
	RulesSurvived int          `json:"rules_survived"`
	Failed        []FailedRule `json:"failed,omitempty"`
}

// Response is the wire shape of one answered query. Answers are always
// sound (every row is a certain answer); Complete says whether they are
// also exact, and Incompleteness reports what was dropped when not.
// Shed marks answers produced in overload shed mode (no source calls;
// the certified underestimate covered by the cache).
type Response struct {
	Tenant         string                `json:"tenant"`
	Answers        [][]string            `json:"answers"`
	Complete       bool                  `json:"complete"`
	Shed           bool                  `json:"shed"`
	Degraded       bool                  `json:"degraded"`
	Incompleteness *IncompletenessReport `json:"incompleteness,omitempty"`
	// Calls is the source-call attempts this request issued (0 when
	// served entirely from cache or shed).
	Calls     int     `json:"calls"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Gen is the tenant's catalog generation the answers were computed
	// under, read before evaluation began. Clients racing an
	// invalidation compare it with the generation /v1/invalidate
	// returned: Gen >= that watermark proves the response cannot carry
	// rows cached before the invalidation.
	Gen int64 `json:"gen"`
}

// Header names carrying the completeness contract alongside the body,
// so clients can triage without decoding it.
const (
	HeaderComplete       = "X-UCQN-Complete"       // "true" | "false"
	HeaderShed           = "X-UCQN-Shed"           // "true" | "false"
	HeaderIncompleteness = "X-UCQN-Incompleteness" // compact report, e.g. "2/3 disjuncts; classes=budget-exhausted"
)

// admit reserves an execution slot. It returns a release function when
// the request may run at full budget, or shed=true when the server is
// past its queue depth (or the wait timed out) and the request must
// degrade to cache-only evaluation.
func (s *Server) admit(ctx context.Context) (release func(), shed bool) {
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, false
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.maxQueue()) {
		s.queued.Add(-1)
		return nil, true
	}
	defer s.queued.Add(-1)
	timer := time.NewTimer(s.cfg.queueWait())
	defer timer.Stop()
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, false
	case <-timer.C:
		return nil, true
	case <-ctx.Done():
		return nil, true
	}
}

// ErrParseQuery is wrapped by the error Query returns for a query text
// that does not parse.
var ErrParseQuery = errors.New("server: parse query")

// Query answers one tenant query, applying admission control, the
// tenant quota, and the shared cache. It is the HTTP handler's core and
// is also callable directly (tests, in-process loadgen). Two failures
// are the request's own and are told apart with errors.Is: a text that
// does not parse (ErrParseQuery) and a query the tenant's patterns cannot
// run (ucqn.ErrNotOrderable); neither counts in the tenant's errors.
func (s *Server) Query(ctx context.Context, tenant, query string) (*Response, error) {
	t := s.Tenant(tenant)
	if t == nil {
		return nil, fmt.Errorf("server: unknown tenant %q", tenant)
	}
	q, err := ucqn.ParseQuery(query)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrParseQuery, err)
	}
	t.requests.Add(1)
	// Read the generation before evaluation: a response claims only the
	// invalidation state it is sure of having seen (see Response.Gen).
	gen := t.cat.Generation()

	start := time.Now()
	release, shed := s.admit(ctx)
	opts := []ucqn.ExecOption{
		ucqn.WithQueryCache(s.qc),
		ucqn.WithPartialResults(),
		ucqn.WithProfile(),
	}
	if shed {
		s.sheds.Add(1)
		t.shed.Add(1)
		// Overload: no source calls are admitted. Cached disjuncts still
		// answer; the rest degrade to budget-exhausted. The response is
		// the certified underestimate, never a 503.
		opts = append(opts, ucqn.WithBudget(ucqn.Budget{MaxCalls: -1}))
	} else {
		defer release()
		if t.quota != (ucqn.Budget{}) {
			opts = append(opts, ucqn.WithBudget(t.quota))
		}
	}
	res, err := ucqn.Exec(ctx, q, t.ps, t.cat, opts...)
	if err != nil {
		if !errors.Is(err, ucqn.ErrNotOrderable) {
			t.errors.Add(1)
		}
		return nil, err
	}
	rel, err := res.Rel()
	if err != nil {
		t.errors.Add(1)
		return nil, err
	}

	resp := &Response{
		Tenant:    tenant,
		Answers:   wireRows(rel),
		Complete:  true,
		Shed:      shed,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		Gen:       gen,
	}
	if prof, ok := res.Profile(); ok {
		resp.Calls = prof.Calls.Total
		t.calls.Add(int64(prof.Calls.Total))
	}
	if inc, ok := res.Incompleteness(); ok {
		resp.Incompleteness = wireIncompleteness(inc)
		if !inc.Complete() {
			resp.Complete = false
			resp.Degraded = true
			t.degraded.Add(1)
		}
	}
	return resp, nil
}

// wireRows flattens a relation for the wire, in Sorted order, every row
// a window of one backing array. Underestimates carry no nulls (they
// are answers of surviving disjuncts); a null from other execution modes
// serializes as the string "null".
func wireRows(rel *ucqn.Rel) [][]string {
	rows := rel.Sorted()
	cells := 0
	for _, row := range rows {
		cells += len(row)
	}
	flat := make([]string, 0, cells)
	out := make([][]string, len(rows))
	for i, row := range rows {
		start := len(flat)
		for _, v := range row {
			if v.Null {
				flat = append(flat, "null")
			} else {
				flat = append(flat, v.S)
			}
		}
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

func wireIncompleteness(inc ucqn.Incompleteness) *IncompletenessReport {
	rep := &IncompletenessReport{RulesTotal: inc.RulesTotal, RulesSurvived: inc.RulesSurvived}
	for _, f := range inc.Failed {
		fr := FailedRule{Rule: f.RuleIndex + 1, Class: string(f.Class), Source: f.Source}
		if f.Err != nil {
			fr.Error = f.Err.Error()
		}
		rep.Failed = append(rep.Failed, fr)
	}
	return rep
}

// compactIncompleteness renders the report for the response header: one
// line, survivors out of total plus the distinct failure classes.
func compactIncompleteness(rep *IncompletenessReport) string {
	classes := []string{}
	seen := map[string]bool{}
	for _, f := range rep.Failed {
		if !seen[f.Class] {
			seen[f.Class] = true
			classes = append(classes, f.Class)
		}
	}
	sort.Strings(classes)
	out := fmt.Sprintf("%d/%d disjuncts", rep.RulesSurvived, rep.RulesTotal)
	if len(classes) > 0 {
		out += "; classes=" + strings.Join(classes, ",")
	}
	return out
}

// TenantStats is one tenant's cumulative serving counters.
type TenantStats struct {
	Requests int64 `json:"requests"`
	Shed     int64 `json:"shed"`
	Degraded int64 `json:"degraded"`
	Errors   int64 `json:"errors"`
	Calls    int64 `json:"calls"`
}

// InternerStats is the process-wide value interner's occupancy: how
// many distinct values the columnar evaluator has interned and their
// approximate resident bytes (monotonic gauges — the table is
// append-only for the process lifetime), plus the cap's traffic when
// one is configured: how many intern attempts were refused (and spilled
// to execution-local tables) and whether the cap is currently reached.
type InternerStats struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	CapHits int64 `json:"cap_hits"`
	Capped  bool  `json:"capped"`
}

// PersistStats reports the persistence layer's health (zero value for
// an in-memory server).
type PersistStats struct {
	// Enabled is true when the cache is persistence-backed.
	Enabled bool `json:"enabled"`
	// Dir is the persistence directory.
	Dir string `json:"dir,omitempty"`
	// Broken carries the first unrecoverable write failure, after which
	// the server keeps running memory-only ("" while healthy).
	Broken string `json:"broken,omitempty"`
}

// Stats reports the server's counters per tenant plus the shared cache,
// the interner occupancy, the persistence health, and — on a fleet
// replica — the node's role, lease, and staleness bound.
type Stats struct {
	Tenants  map[string]TenantStats `json:"tenants"`
	Shed     int64                  `json:"shed"`
	Cache    ucqn.QueryCacheStats   `json:"cache"`
	Interner InternerStats          `json:"interner"`
	Persist  PersistStats           `json:"persist"`
	Fleet    *fleet.Stats           `json:"fleet,omitempty"`
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	out := Stats{Tenants: map[string]TenantStats{}, Shed: s.sheds.Load(), Cache: s.qc.Stats()}
	out.Interner.Entries, out.Interner.Bytes = engine.InternerOccupancy()
	out.Interner.CapHits, out.Interner.Capped = engine.InternerCapStats()
	if lg := s.qc.Persist(); lg != nil {
		out.Persist.Enabled = true
		out.Persist.Dir = lg.Dir()
		if err := lg.Err(); err != nil {
			out.Persist.Broken = err.Error()
		}
	}
	if s.fleet != nil {
		fs := s.fleet.Stats()
		out.Fleet = &fs
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name, t := range s.tenants {
		out.Tenants[name] = TenantStats{
			Requests: t.requests.Load(),
			Shed:     t.shed.Load(),
			Degraded: t.degraded.Load(),
			Errors:   t.errors.Load(),
			Calls:    t.calls.Load(),
		}
	}
	return out
}

// Handler returns the HTTP API:
//
//	POST /v1/query      {"tenant": ..., "query": ...} → Response
//	                    404 unknown tenant · 400 query does not parse ·
//	                    422 query not orderable under the tenant's patterns
//	                    (unknown relation, wrong arity) · 500 anything else
//	POST /v1/invalidate {"tenant": ...}               → {"tenant": ..., "gen": N}
//	GET  /v1/stats                                    → Stats
//	GET  /v1/healthz                                  → 200 "ok ..." | "degraded ..."
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/invalidate", s.handleInvalidate)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	return mux
}

// handleHealthz reports liveness plus the durability and fleet state.
// The status is always 200 — a replica whose persistence went inert
// still serves sound answers from memory, so it must not be pulled
// from rotation — but the first word of the body flips from "ok" to
// "degraded" and names the reason, giving operators the signal a
// silent inert log never did. On a fleet replica the body also carries
// the role and lease age.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, parts := "ok", []string(nil)
	if lg := s.qc.Persist(); lg != nil {
		if err := lg.Err(); err != nil {
			status = "degraded"
			parts = append(parts, "persist="+strconv.Quote(err.Error()))
		}
	}
	if s.fleet != nil {
		fs := s.fleet.Stats()
		parts = append(parts,
			"role="+fs.Role,
			fmt.Sprintf("lease_age_ms=%d", fs.LeaseAgeMS),
			fmt.Sprintf("staleness_bound_ms=%d", fs.StalenessBoundMS))
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, strings.Join(append([]string{status}, parts...), " "))
}

// maxRequestBytes bounds the body of /v1/query and /v1/invalidate — a
// tenant name and one query text — so a client cannot make the daemon
// buffer an unbounded request.
const maxRequestBytes = 1 << 20

// decodeRequest reads the POSTed Request of a handler. On failure it
// has already answered — 405, 413 for a body over maxRequestBytes, 400
// for anything else undecodable — and reports false.
func decodeRequest(w http.ResponseWriter, r *http.Request) (Request, bool) {
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

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeRequest(w, r)
	if !ok {
		return
	}
	resp, err := s.Query(r.Context(), req.Tenant, req.Query)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case s.Tenant(req.Tenant) == nil:
			status = http.StatusNotFound
		case errors.Is(err, ErrParseQuery):
			status = http.StatusBadRequest
		case errors.Is(err, ucqn.ErrNotOrderable):
			status = http.StatusUnprocessableEntity
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderComplete, strconv.FormatBool(resp.Complete))
	w.Header().Set(HeaderShed, strconv.FormatBool(resp.Shed))
	if resp.Incompleteness != nil && !resp.Complete {
		w.Header().Set(HeaderIncompleteness, compactIncompleteness(resp.Incompleteness))
	}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		return // client went away mid-body; nothing to salvage
	}
}

func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeRequest(w, r)
	if !ok {
		return
	}
	gen, err := s.Invalidate(req.Tenant)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	// The body is the invalidation watermark: responses carrying
	// Gen >= gen were computed after this invalidation took effect
	// (see Response.Gen), which is what lets a client assert it never
	// saw a stale row.
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Tenant string `json:"tenant"`
		Gen    int64  `json:"gen"`
	}{req.Tenant, gen})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.Stats()); err != nil {
		return
	}
}
