// Package adapter connects the engine to real external backends. The
// paper's limited-access sources ARE external services — query forms
// you can only call with the input slots bound — and everything in
// internal/sources up to now simulates them in memory. An adapter
// implements the same Source and StatsReporter contracts over a wire
// protocol, so it slots under the whole resilience stack (Cached,
// Breaker, ReplicaSet, hedging, budgets) unchanged; adapters declare
// Batches: a whole binding group is one round trip (SQL: one IN (...)
// query; HTTP: one POSTed group), so the engine's call layer hands them
// each step's group in one call.
//
// Backends are addressed by scheme — "sql://driver/dsn" compiles
// adorned accesses to parameterized SELECTs over database/sql;
// "http://host/path" speaks the JSON group protocol of Backend — and
// opened through a registry (Register/Open), so deployments can mount
// additional backend kinds without touching this package. A catalog
// config file (config.go) maps tenant relations onto backend specs;
// cmd/ucqnd mounts it via -catalog.
package adapter

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/access"
	"repro/internal/sources"
)

// Spec describes one relation mounted on an external backend.
type Spec struct {
	// Name is the relation name the source answers to.
	Name string `json:"name"`
	// Arity is the relation arity.
	Arity int `json:"arity"`
	// Patterns are the declared access patterns (words over i/o, e.g.
	// "io" — exactly the adornments of the paper).
	Patterns []string `json:"patterns"`
	// Backend addresses the external system: scheme://rest, e.g.
	// "sql://fakedb/orders" (driver fakedb, DSN orders) or
	// "http://10.0.0.7:8093/rel" (the JSON group endpoint).
	Backend string `json:"backend"`

	// Table and Columns map relation positions onto SQL storage: column
	// j holds position j. Required for sql backends; ignored by http.
	Table   string   `json:"table,omitempty"`
	Columns []string `json:"columns,omitempty"`

	// MaxBatch chunks batched round trips: a binding group larger than
	// this is serviced in ceil(n/MaxBatch) round trips. 0 means
	// DefaultMaxBatch.
	MaxBatch int `json:"max_batch,omitempty"`

	// RateLimit and Burst configure the http adapter's client-side
	// token-bucket limiter (requests per second and bucket size). 0
	// disables limiting. Ignored by sql.
	RateLimit float64 `json:"rate_limit,omitempty"`
	Burst     int     `json:"burst,omitempty"`
}

// DefaultMaxBatch is the round-trip chunk size when Spec.MaxBatch is 0:
// large enough that the paper-scale binding groups (hundreds of
// bindings) fit one round trip, small enough to keep single statements
// bounded.
const DefaultMaxBatch = 1024

func (s Spec) maxBatch() int {
	if s.MaxBatch > 0 {
		return s.MaxBatch
	}
	return DefaultMaxBatch
}

// patterns parses and validates the declared access patterns.
func (s Spec) patterns() ([]access.Pattern, error) {
	if len(s.Patterns) == 0 {
		return nil, fmt.Errorf("adapter: source %s declares no access pattern", s.Name)
	}
	out := make([]access.Pattern, 0, len(s.Patterns))
	for _, raw := range s.Patterns {
		p, err := access.ParsePattern(raw)
		if err != nil {
			return nil, fmt.Errorf("adapter: source %s: %w", s.Name, err)
		}
		if p.Arity() != s.Arity {
			return nil, fmt.Errorf("adapter: source %s has arity %d but pattern %s has arity %d", s.Name, s.Arity, p, p.Arity())
		}
		out = append(out, p)
	}
	return out, nil
}

// OpenFunc builds a source for one backend scheme.
type OpenFunc func(spec Spec) (sources.Source, error)

var (
	regMu    sync.RWMutex
	registry = map[string]OpenFunc{}
)

// Register installs an OpenFunc for a backend scheme (e.g. "sql").
// Registering a duplicate scheme panics, like database/sql.Register:
// two subsystems silently fighting over a scheme is a deployment bug.
func Register(scheme string, open OpenFunc) {
	regMu.Lock()
	defer regMu.Unlock()
	if open == nil {
		panic("adapter: Register with nil OpenFunc")
	}
	if _, dup := registry[scheme]; dup {
		panic("adapter: Register called twice for scheme " + scheme)
	}
	registry[scheme] = open
}

// Schemes returns the registered backend schemes, sorted.
func Schemes() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for s := range registry {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Open builds the source for a spec, dispatching on the scheme of
// spec.Backend.
func Open(spec Spec) (sources.Source, error) {
	scheme, _, ok := strings.Cut(spec.Backend, "://")
	if !ok || scheme == "" {
		return nil, fmt.Errorf("adapter: source %s: backend %q has no scheme:// prefix", spec.Name, spec.Backend)
	}
	regMu.RLock()
	open, found := registry[scheme]
	regMu.RUnlock()
	if !found {
		return nil, fmt.Errorf("adapter: source %s: no adapter registered for scheme %q (have %v)", spec.Name, scheme, Schemes())
	}
	return open(spec)
}
