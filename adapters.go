package ucqn

// External source adapters: the facade over internal/adapter. An
// adapter mounts a real backend — a SQL database via database/sql, an
// HTTP endpoint speaking the JSON group protocol — as a limited-access
// Source, so the whole stack (caching, breakers, replicas, budgets,
// ANSWER* degradation) applies to external systems unchanged. Adapters
// batch (Source.Batches): the engine hands them a step's whole
// deduplicated binding group in one call, one wire round trip.

import (
	"context"

	"repro/internal/adapter"
	"repro/internal/engine"
)

// Adapter types.
type (
	// AdapterSpec describes one relation mounted on an external backend.
	AdapterSpec = adapter.Spec
	// CatalogConfig is one tenant's relations mapped onto backends.
	CatalogConfig = adapter.CatalogConfig
	// AdapterConfig is a parsed catalog config file (one or more tenants).
	AdapterConfig = adapter.Config
	// SQLAdapter is the database/sql-backed adapter ("sql://" scheme).
	SQLAdapter = adapter.SQL
	// HTTPAdapter is the JSON-group-protocol adapter ("http(s)://").
	HTTPAdapter = adapter.HTTP
	// HTTPBackend is the reference server for the JSON group protocol.
	HTTPBackend = adapter.Backend
)

// OpenAdapter builds the source for a spec, dispatching on the scheme
// of spec.Backend (see RegisterAdapter).
func OpenAdapter(spec AdapterSpec) (Source, error) { return adapter.Open(spec) }

// RegisterAdapter installs an opener for a backend scheme.
func RegisterAdapter(scheme string, open func(AdapterSpec) (Source, error)) {
	adapter.Register(scheme, open)
}

// AdapterSchemes lists the registered backend schemes.
func AdapterSchemes() []string { return adapter.Schemes() }

// ParseCatalogConfig decodes a catalog config (single- or multi-tenant
// JSON).
func ParseCatalogConfig(data []byte) (*AdapterConfig, error) { return adapter.ParseConfig(data) }

// LoadCatalogConfig reads and parses a catalog config file.
func LoadCatalogConfig(path string) (*AdapterConfig, error) { return adapter.LoadConfig(path) }

// NewHTTPBackend serves src over the JSON group protocol (mount it on
// any http server to publish a source to remote HTTPAdapters).
func NewHTTPBackend(src Source) *HTTPBackend { return adapter.NewBackend(src) }

// CallBatch services a group of input vectors against s; results align
// with inputs. It is s.Call, kept as a function for existing callers.
func CallBatch(ctx context.Context, s Source, p Pattern, inputs [][]string) ([][]Tuple, error) {
	return s.Call(ctx, p, inputs)
}

// SetInternerCap bounds the process-wide value interner backing
// columnar evaluation: at most maxEntries values and maxBytes
// approximate resident bytes (0 = unlimited). Values beyond the cap
// spill to execution-local tables — answers are unaffected; memory
// stops growing. Cap traffic is surfaced in ExecProfile.Batch and the
// server's /v1/stats.
func SetInternerCap(maxEntries int, maxBytes int64) { engine.SetInternerCap(maxEntries, maxBytes) }

// InternerCapStats reports how many intern attempts the cap refused and
// whether the cap is currently reached.
func InternerCapStats() (capHits int64, capped bool) { return engine.InternerCapStats() }
