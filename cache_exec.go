package ucqn

// Semantic query cache wiring for Exec: WithQueryCache routes plan
// compilation through the canonical plan cache and, when possible,
// serves answers (whole or per-disjunct) from the answer cache. The
// cache itself lives in internal/qcache; this file is the facade and
// the answer tier's side of a cached run (Exec has the run itself).

import (
	"context"

	"repro/internal/engine"
	"repro/internal/qcache"
)

// QueryCache is the two-tier semantic query cache: a plan cache keyed
// on an isomorphism-invariant canonical form of the minimized query
// (α-renamed and non-minimal resubmissions hit without re-planning) and
// an answer cache that reuses a disjunct's rows only when the query
// they answer — its minimized core, or the overestimate the plan runs
// for a disjunct it dismissed — is provably *equivalent* to a cached
// one and the catalog generation matches. Construct with NewQueryCache, share one
// instance across Exec callers (it is safe for concurrent use), and
// attach it per call with WithQueryCache.
type QueryCache = qcache.Cache

// QueryCacheOptions configures a QueryCache (zero value = defaults:
// 512 plans, 1024 answer entries, 64 MiB of rows, no TTL).
type QueryCacheOptions = qcache.Options

// QueryCacheStats are a QueryCache's cumulative counters.
type QueryCacheStats = qcache.Stats

// NewQueryCache returns a semantic query cache with the given options.
func NewQueryCache(opt QueryCacheOptions) *QueryCache { return qcache.New(opt) }

// WithQueryCache routes this Exec call through qc: the plan — what the
// one planner Exec states made of the first query of its class — is
// served from the plan cache when an equivalent query was planned
// before, and answers are reused per disjunct when the catalog's
// generation still matches. A query makes the same calls and answers
// the same with or without the cache. The cache is bypassed — not an
// error — under WithNaive.
func WithQueryCache(qc *QueryCache) ExecOption { return func(c *execConfig) { c.qc = qc } }

// useQueryCache reports whether this Exec call goes through the cache.
func (c *execConfig) useQueryCache() bool {
	return c.qc != nil && c.naive == nil
}

// cacheProfile seeds an ExecProfile's cache counters from a plan lookup
// and an answer-cache consultation: what this execution did. The cache's
// lifetime totals (persistence warm loads and drops among them) are
// QueryCache.Stats.
func cacheProfile(info qcache.PlanInfo, hit qcache.AnswerHit) engine.Profile {
	var p engine.Profile
	if info.Hit {
		p.Cache.PlanHits = 1
	}
	p.Cache.Evictions = info.Evictions
	if hit.Full != nil {
		p.Cache.AnswerHits = 1
	} else {
		p.Cache.PartialReuseRules = hit.CachedRules
	}
	return p
}

// answerStore is a materialized cached run's side of the answer tier:
// the per-disjunct answers it evaluates, stored once it has finished.
// Streamed runs do not fill the answer cache (their disjuncts' answers
// are never held apart). The zero value stores nothing.
type answerStore struct {
	entry   *qcache.PlanEntry
	covered []bool
	rels    []*engine.Rel
}

// sink wraps into so that every evaluated disjunct's rows are also kept
// for the store. Degraded disjuncts never reach the sink, so only
// complete per-disjunct answers are stored — as handed over: a
// materialized run calls the sink once per rule with rows that are
// distinct and the sink's to keep (engine.Sink), which is what Frozen
// asks for. The answer takes the same rows over (engine.Into): the two
// share them, and neither writes them.
func (st answerStore) sink(into engine.Sink) engine.Sink {
	return func(ctx context.Context, i int, rows []engine.Row) (int, bool) {
		if !st.covered[i] {
			st.rels[i] = engine.Frozen(rows)
		}
		return into(ctx, i, rows)
	}
}
