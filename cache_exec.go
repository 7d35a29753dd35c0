package ucqn

// Semantic query cache wiring for Exec: WithQueryCache routes plan
// compilation through the canonical plan cache and, when possible,
// serves answers (whole or per-disjunct) from the answer cache. The
// cache itself lives in internal/qcache; this file is the facade and
// the cached execution path.

import (
	"context"

	"repro/internal/engine"
	"repro/internal/qcache"
	"repro/internal/sources"
)

// QueryCache is the two-tier semantic query cache: a plan cache keyed
// on an isomorphism-invariant canonical form of the minimized query
// (α-renamed and non-minimal resubmissions hit without re-planning) and
// an answer cache that reuses a disjunct's rows only when its
// minimized core is provably *equivalent* to a cached one and the
// catalog generation matches. Construct with NewQueryCache, share one
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

// WithQueryCache routes this Exec call through qc: the plan (executable
// form, orderability, FEASIBLE verdict) is served from the plan cache
// when an equivalent query was planned before, and answers are reused
// per disjunct when the catalog's generation still matches. Cached
// execution accepts any orderable query (the cache plans a reordering),
// not only queries executable as written. The cache is bypassed — not
// an error — under WithNaive, WithAnswerStar/WithImproveUnder, and
// WithStats (cost ordering is statistics-dependent, so its plans are
// not a pure function of the query and patterns).
func WithQueryCache(qc *QueryCache) ExecOption { return func(c *execConfig) { c.qc = qc } }

// useQueryCache reports whether this Exec call goes through the cache.
func (c *execConfig) useQueryCache() bool {
	return c.qc != nil && c.naive == nil && !c.star && !c.hasStats
}

// cacheProfile seeds an ExecProfile's cache counters from a plan lookup
// and an answer-cache consultation. The persistence counters are the
// cache's cumulative totals (like Profile.Replicas), not per-execution
// deltas: warm loads happen lazily at the first lookup per catalog
// label, so a per-call delta would credit them to an arbitrary request.
func cacheProfile(qc *QueryCache, info qcache.PlanInfo, hit qcache.AnswerHit) engine.Profile {
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
	st := qc.Stats()
	p.Cache.PersistLoads = st.PersistLoads
	p.Cache.PersistDrops = st.PersistDrops
	p.Cache.PersistBytes = st.PersistBytes
	return p
}

// execCached is Exec's path through the cache: the disjuncts the answer
// cache covers enter the engine's driver pre-answered — no calls, rows
// at their rule position — and the rest run live, so a partial hit
// inserts, or drains, exactly as an uncached evaluation would. A
// materialized full hit returns the cached relation before any driver
// state exists. A materialized run stores the per-disjunct answers it
// evaluated; streamed runs do not fill the answer cache (their
// disjuncts' answers are never held apart).
func execCached(ctx context.Context, rt *Runtime, c *execConfig, entry *qcache.PlanEntry, info qcache.PlanInfo, ps *PatternSet, cat *sources.Catalog) (*Result, error) {
	hit := c.qc.Answers(entry, cat)
	res := &Result{profiled: c.profile, prof: cacheProfile(c.qc, info, hit)}
	if hit.Full != nil && !c.streaming {
		res.rel = hit.Full
		if c.partial {
			res.inc = &engine.Incompleteness{RulesTotal: hit.ReusedRules, RulesSurvived: hit.ReusedRules}
		}
		return res, nil
	}
	exec := entry.Exec()
	pre := engine.Answered{Covered: hit.Covered, Rows: hit.Rows}
	if c.streaming {
		s, err := rt.StreamEval(ctx, exec, ps, cat, pre, c.engineOpts())
		if err != nil {
			return nil, err
		}
		res.stream = s
		return res, nil
	}

	// Degraded disjuncts never reach the sink, so only complete
	// per-disjunct answers are stored — as handed over: a materialized
	// run calls the sink once per rule with rows that are distinct and
	// the sink's to keep (engine.Sink), which is what Frozen asks for.
	out := engine.NewRel()
	rels := make([]*engine.Rel, len(exec.Rules))
	prof, inc, err := rt.Run(ctx, exec, ps, cat, pre, c.engineOpts(), func(_ context.Context, i int, rows []engine.Row) (int, bool) {
		if !hit.Covered[i] {
			rels[i] = engine.Frozen(rows)
		}
		return out.AddRows(rows), true
	})
	if err != nil {
		return nil, err
	}
	prof.Cache = res.prof.Cache
	prof.Cache.Evictions += c.qc.StoreAnswers(entry, cat, rels)
	res.rel, res.prof, res.inc = out, prof, inc
	return res, nil
}
