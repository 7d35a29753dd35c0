package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	ucqn "repro"
	"repro/internal/containment"
	"repro/internal/server"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the index of the enclosing span, -1 for a root.
type span struct {
	name       string
	parent     int
	req        int
	start, end time.Duration // since the tracer began
	args       map[string]any
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the spans-off pass.
type tracer struct {
	pass  string
	t0    time.Time
	spans []span
}

func newTracer(pass string, capacity int) *tracer {
	return &tracer{pass: pass, t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].end = time.Since(t.t0)
	}
}

// durations returns the duration of every span called name for which
// keep (nil = all) holds.
func (t *tracer) durations(name string, keep func(*span) bool) []time.Duration {
	var out []time.Duration
	for i := range t.spans {
		if sp := &t.spans[i]; sp.name == name && (keep == nil || keep(sp)) {
			out = append(out, sp.end-sp.start)
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of it that
// its direct children cover, taken as the union of their intervals.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, sp := range spans {
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, sp := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered time.Duration
		edge := sp.start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := max(spans[k].start, edge), min(spans[k].end, sp.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = sp.end - sp.start - covered
	}
	return out
}

// writeChromeTrace writes the passes' spans as Chrome trace events (one
// process per pass), loadable in chrome://tracing or Perfetto.
func writeChromeTrace(path string, passes ...*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("[\n")
	first := true
	for pid, t := range passes {
		self := selfTimes(t.spans)
		for i, sp := range t.spans {
			args := map[string]any{"req": sp.req, "self_us": us(self[i])}
			for k, v := range sp.args {
				args[k] = v
			}
			ev, err := json.Marshal(map[string]any{
				"name": sp.name, "cat": t.pass, "ph": "X", "pid": pid + 1, "tid": 1,
				"ts": us(sp.start), "dur": us(sp.end - sp.start), "args": args,
			})
			if err != nil {
				f.Close()
				return err
			}
			if !first {
				w.WriteString(",\n")
			}
			first = false
			w.Write(ev)
		}
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters are the cumulative counts the layers keep; the traced run
// takes deltas (never ResetStats, which bumps the catalog generation and
// empties the answer cache).
type counters struct {
	calls, tuples                             int64 // Σ Catalog.TotalStats
	statements, wire                          int64 // fakedb store
	cache                                     ucqn.QueryCacheStats
	writes, bytes, syncs, syncNS, compactions int64 // persistence FS
	mallocs                                   uint64
}

func (in *instance) snapshot() counters {
	var c counters
	for _, cat := range in.cats {
		st := cat.TotalStats()
		c.calls += int64(st.Calls)
		c.tuples += int64(st.TuplesReturned)
	}
	if st := in.spec.store; st != nil {
		c.statements, c.wire = st.Queries(), st.BytesOnWire()
	}
	c.cache = in.srv.Cache().Stats()
	if fs := in.fs; fs != nil {
		c.writes, c.bytes, c.syncs = fs.writes.Load(), fs.bytes.Load(), fs.syncs.Load()
		c.syncNS, c.compactions = fs.syncNS.Load(), fs.compactions.Load()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	return c
}

func (c counters) sub(o counters) counters {
	c.calls -= o.calls
	c.tuples -= o.tuples
	c.statements -= o.statements
	c.wire -= o.wire
	c.cache.PlanHits -= o.cache.PlanHits
	c.cache.PlanMisses -= o.cache.PlanMisses
	c.cache.AnswerHits -= o.cache.AnswerHits
	c.cache.PartialReuseRules -= o.cache.PartialReuseRules
	c.cache.EquivHits -= o.cache.EquivHits
	c.cache.Evictions -= o.cache.Evictions
	c.writes -= o.writes
	c.bytes -= o.bytes
	c.syncs -= o.syncs
	c.syncNS -= o.syncNS
	c.compactions -= o.compactions
	c.mallocs -= o.mallocs
	return c
}

// countMetrics derives the count metrics of a pass of n requests: the
// ones that must repeat exactly between two fresh servers.
func (c counters) countMetrics(n int) map[string]float64 {
	per := func(v int64) float64 { return float64(v) / float64(n) }
	m := map[string]float64{
		"qcache.answer_hit_ratio":       per(int64(c.cache.AnswerHits)),
		"qcache.partial_reuse_per_req":  per(int64(c.cache.PartialReuseRules)),
		"qcache.equiv_hits_per_req":     per(int64(c.cache.EquivHits)),
		"sources.calls_per_req":         per(c.calls),
		"sources.tuples_per_req":        per(c.tuples),
		"adapter.round_trips_per_req":   per(c.statements),
		"adapter.bytes_on_wire_per_req": per(c.wire),
		"persist.writes_per_req":        per(c.writes),
	}
	if lookups := c.cache.PlanHits + c.cache.PlanMisses; lookups > 0 {
		m["qcache.plan_hit_ratio"] = float64(c.cache.PlanHits) / float64(lookups)
	}
	return m
}

// traced is the single-client, count-driven walk every pass makes: the
// spec's first tracedN requests in client 0's order, with an in-process
// invalidation after every invalidateEvery-th, on a fresh warmed
// instance.
type traced struct {
	spec *spec
	inst *instance
	tr   *tracer
}

func (s *spec) startPass(ctx context.Context, tr *tracer) (*traced, error) {
	inst, err := s.prepare()
	if err != nil {
		return nil, err
	}
	if err := inst.warm(ctx); err != nil {
		inst.close()
		return nil, err
	}
	return &traced{spec: s, inst: inst, tr: tr}, nil
}

// walk calls serve(n, i) for the n-th request, whose index is i.
func (p *traced) walk(serve func(n, i int) error) error {
	next := p.spec.next(0, 1)
	for n, k := 0, 0; n < p.spec.tracedN; n++ {
		if err := serve(n, next()); err != nil {
			return fmt.Errorf("%s: request %d of the %s pass: %w", p.spec.name, n, p.tr.passName(), err)
		}
		if every := p.spec.invalidateEvery; every > 0 && (n+1)%every == 0 {
			sp := p.tr.begin("qcache.invalidate", -1, -1)
			_, err := p.inst.srv.Invalidate(p.spec.tenants[k%len(p.spec.tenants)].name)
			p.tr.end(sp)
			if err != nil {
				return err
			}
			k++
		}
	}
	return nil
}

func (t *tracer) passName() string {
	if t == nil {
		return "spans-off"
	}
	return t.pass
}

// passA serves every request through in-process Server.Query and
// json.Marshal. It gives the response sizes, every count as a delta over
// the pass, and the tracing overhead: spans are recorded for every other
// request only, so the wall clocks with and without them come from the
// same server in the same state.
type passA struct {
	spanned, bare []time.Duration // per-request wall clock, spans on / off
	bytes         []float64
	counts        counters
	rec           recovery // persistent specs only
}

func (s *spec) runPassA(ctx context.Context, tr *tracer) (*passA, error) {
	p, err := s.startPass(ctx, tr)
	if err != nil {
		return nil, err
	}
	defer p.inst.close()
	out := &passA{spanned: make([]time.Duration, 0, s.tracedN/2), bare: make([]time.Duration, 0, s.tracedN),
		bytes: make([]float64, 0, s.tracedN)}
	before := p.inst.snapshot()
	err = p.walk(func(n, i int) error {
		r := &s.requests[i]
		tr := tr
		if n%2 == 1 {
			tr = nil
		}
		start := time.Now()
		root := tr.begin("request", -1, n)
		sp := tr.begin("server.query", root, n)
		resp, err := p.inst.srv.Query(ctx, s.tenants[r.tenant].name, r.query)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("server.encode", root, n)
		body, err := json.Marshal(resp)
		tr.end(sp)
		tr.end(root)
		if total := time.Since(start); tr != nil {
			out.spanned = append(out.spanned, total)
		} else {
			out.bare = append(out.bare, total)
		}
		if err != nil {
			return err
		}
		out.bytes = append(out.bytes, float64(len(body)))
		if msg := r.check(resp, 0); msg != "" {
			return errors.New(msg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.counts = p.inst.snapshot().sub(before)
	if s.persist {
		if out.rec, err = p.inst.recover(ctx); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// passB replays the sequence as the facade calls Server.Query makes,
// one span each, so the request decomposes into parser, exec (the cache
// tiers and the engine), sort and encode.
type passB struct {
	queryBytes                                        float64
	eval                                              []time.Duration // ExecProfile.Elapsed per request
	bindings, deduped, batches, interned, arenaReuses float64         // per request
}

func (s *spec) runPassB(ctx context.Context, tr *tracer) (*passB, error) {
	p, err := s.startPass(ctx, tr)
	if err != nil {
		return nil, err
	}
	defer p.inst.close()
	out := &passB{}
	qc := p.inst.srv.Cache()
	err = p.walk(func(n, i int) error {
		r := &s.requests[i]
		t, cat := &s.tenants[r.tenant], p.inst.cats[r.tenant]
		out.queryBytes += float64(len(r.query))
		root := tr.begin("request", -1, n)
		sp := tr.begin("parser.parse", root, n)
		q, err := ucqn.ParseQuery(r.query)
		tr.end(sp)
		if err != nil {
			return err
		}
		gen := cat.Generation()
		ex := tr.begin("exec", root, n)
		// The options Server.Query passes to an admitted request of a
		// tenant without a quota.
		res, err := ucqn.Exec(ctx, q, t.patterns, cat,
			ucqn.WithQueryCache(qc), ucqn.WithPartialResults(), ucqn.WithProfile())
		var rel *ucqn.Rel
		if err == nil {
			rel, err = res.Rel()
		}
		tr.end(ex)
		if err != nil {
			return err
		}
		sp = tr.begin("server.sort", root, n)
		rows := rel.Sorted()
		tr.end(sp)
		resp := &server.Response{Tenant: t.name, Answers: make([][]string, 0, len(rows)), Complete: true, Gen: gen}
		for _, row := range rows {
			flat := make([]string, len(row))
			for j, v := range row {
				flat[j] = v.S
			}
			resp.Answers = append(resp.Answers, flat)
		}
		sp = tr.begin("server.encode", root, n)
		_, err = json.Marshal(resp)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return err
		}
		if inc, ok := res.Incompleteness(); ok && !inc.Complete() {
			resp.Complete = false
		}
		prof, _ := res.Profile()
		out.eval = append(out.eval, prof.Elapsed)
		produced := 0
		for _, rule := range prof.Rules {
			for _, step := range rule.Steps {
				produced += step.BindingsOut
			}
		}
		out.bindings += float64(produced)
		out.deduped += float64(prof.Calls.Deduped)
		out.batches += float64(prof.Batch.BatchesProcessed)
		out.interned += float64(prof.Batch.InternedValues)
		out.arenaReuses += float64(prof.Batch.ArenaReuses)
		tr.spans[ex].args = map[string]any{
			"eval_us": us(prof.Elapsed), "calls": prof.Calls.Total, "bindings": produced,
			"batch_groups": prof.Calls.BatchGroups, "batches": prof.Batch.BatchesProcessed,
			"plan_hit": prof.Cache.PlanHits == 1, "answer_hit": prof.Cache.AnswerHits == 1,
		}
		if msg := r.check(resp, 0); msg != "" {
			return errors.New(msg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := float64(s.tracedN)
	out.queryBytes /= n
	out.bindings /= n
	out.deduped /= n
	out.batches /= n
	out.interned /= n
	out.arenaReuses /= n
	return out, nil
}

// runPassC times the two cache tiers on their own: before each request
// is served (untimed, so the caches evolve as in the other passes) it
// makes the Plan and Answers lookups the request is about to make.
func (s *spec) runPassC(ctx context.Context, tr *tracer) (planEvictions float64, err error) {
	p, err := s.startPass(ctx, tr)
	if err != nil {
		return 0, err
	}
	defer p.inst.close()
	qc := p.inst.srv.Cache()
	err = p.walk(func(n, i int) error {
		r := &s.requests[i]
		q, err := ucqn.ParseQuery(r.query)
		if err != nil {
			return err
		}
		sp := tr.begin("qcache.plan", -1, n)
		entry, info := qc.Plan(q, s.tenants[r.tenant].patterns)
		tr.end(sp)
		tr.spans[sp].args = map[string]any{"hit": info.Hit}
		planEvictions += float64(info.Evictions)
		if err := entry.Err(); err != nil {
			return err
		}
		sp = tr.begin("qcache.answers", -1, n)
		hit := qc.Answers(entry, p.inst.cats[r.tenant])
		tr.end(sp)
		tr.spans[sp].args = map[string]any{"hit": hit.Full != nil, "equiv_hits": hit.EquivHits}
		_, err = p.inst.query(ctx, i)
		return err
	})
	return planEvictions / float64(s.tracedN), err
}

// hit selects the cache spans of pass C by their outcome.
func hit(want bool) func(*span) bool {
	return func(sp *span) bool { return sp.args["hit"] == want }
}

// planMiss times, standalone, the steps a plan-cache miss runs, over the
// workload's distinct query texts (at least 256 samples).
type planMiss struct {
	minimize, canon, reorder, feasible []time.Duration
	exhausted                          int
}

func (s *spec) timePlanMiss() (*planMiss, error) {
	out := &planMiss{}
	for len(out.minimize) < 256 {
		for i := range s.requests {
			r := &s.requests[i]
			q, err := ucqn.ParseQuery(r.query)
			if err != nil {
				return nil, err
			}
			ps := s.tenants[r.tenant].patterns
			start := time.Now()
			minimal := ucqn.MinimizeUnion(q)
			out.minimize = append(out.minimize, time.Since(start))
			start = time.Now()
			for _, rule := range minimal.Rules {
				containment.CanonicalKey(rule)
			}
			out.canon = append(out.canon, time.Since(start))
			start = time.Now()
			ucqn.Reorder(q, ps)
			out.reorder = append(out.reorder, time.Since(start))
			start = time.Now()
			// 20000 is the cache's default FeasibleBudget.
			_, err = ucqn.FeasibleLimited(q, ps, 20000)
			out.feasible = append(out.feasible, time.Since(start))
			if errors.Is(err, ucqn.ErrBudget) {
				out.exhausted++
			} else if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// timeProbe is the median of reps standalone calls of p on cat's own
// source.
func timeProbe(ctx context.Context, cat *ucqn.Catalog, p probe, reps int) (time.Duration, error) {
	src := cat.Source(p.rel)
	if src == nil {
		return 0, fmt.Errorf("probe: no source %s", p.rel)
	}
	d := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := ucqn.CallBatch(ctx, src, p.pattern, p.inputs); err != nil {
			return 0, err
		}
		d = append(d, time.Since(start))
	}
	return medianDur(d), nil
}

// standalone times the sources, the adapter's batch path and a
// cache-less evaluation on a catalog of their own.
type standalone struct {
	scan, lookup, batch, batchOverhead time.Duration
	allocsPerEval                      float64
}

func (s *spec) timeStandalone(ctx context.Context) (*standalone, error) {
	inst, err := s.prepare()
	if err != nil {
		return nil, err
	}
	defer inst.close()
	cat, out := inst.cats[0], &standalone{}
	reps := 64
	if s.store != nil {
		reps = 16 // every statement waits out the injected latency
	}
	if out.scan, err = timeProbe(ctx, cat, s.scan, reps); err != nil {
		return nil, err
	}
	if out.lookup, err = timeProbe(ctx, cat, s.lookup, reps); err != nil {
		return nil, err
	}
	if s.batch != nil {
		before := s.store.Queries()
		if out.batch, err = timeProbe(ctx, cat, *s.batch, reps); err != nil {
			return nil, err
		}
		perCall := float64(s.store.Queries()-before) / float64(reps)
		out.batchOverhead = out.batch - time.Duration(perCall*float64(s.latency))
	}

	r := &s.requests[0]
	q, ok := ucqn.Reorder(ucqn.MustParseQuery(r.query), s.tenants[r.tenant].patterns)
	if !ok {
		return nil, fmt.Errorf("%s: %q is not orderable", s.name, r.query)
	}
	const evals = 5
	var ms0, ms1 runtime.MemStats
	for i := 0; i <= evals; i++ {
		if i == 1 { // the first evaluation interns the values
			runtime.ReadMemStats(&ms0)
		}
		res, err := ucqn.Exec(ctx, q, s.tenants[r.tenant].patterns, inst.cats[r.tenant])
		if err == nil {
			_, err = res.Rel()
		}
		if err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms1)
	out.allocsPerEval = float64(ms1.Mallocs-ms0.Mallocs) / evals
	return out, nil
}

// runTraced is -trace 1: the per-layer metrics of one workload.
func runTraced(s *spec) (*result, error) {
	ctx := context.Background()
	n := s.tracedN
	trA, trB, trC := newTracer("pass A", 3*n+n/100), newTracer("pass B", 5*n+n/100), newTracer("probes", 2*n+n/100)

	// Pass A twice on fresh servers: the counts must agree.
	a, err := s.runPassA(ctx, trA)
	if err != nil {
		return nil, err
	}
	off, err := s.runPassA(ctx, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: s.name, Trace: 1, Attempted: 4 * n, Samples: n, Metrics: map[string]float64{}}
	counts, again := a.counts.countMetrics(n), off.counts.countMetrics(n)
	for name := range deterministic {
		if counts[name] != again[name] {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("%s is %v on one fresh server and %v on another", name, counts[name], again[name]))
		}
		res.Metrics[name] = counts[name]
	}

	b, err := s.runPassB(ctx, trB)
	if err != nil {
		return nil, err
	}
	planEvictions, err := s.runPassC(ctx, trC)
	if err != nil {
		return nil, err
	}

	// One client over loopback, same sequence: what HTTP adds.
	rig, err := s.boot(1)
	if err != nil {
		return nil, err
	}
	before := rig.inst.srv.Stats()
	load := rig.drive(0, n)
	after := rig.inst.srv.Stats()
	if err := rig.tearDown(); err != nil {
		return nil, err
	}
	res.Attempted += load.attempted
	res.Failed += load.failed
	res.Failures = append(res.Failures, load.failures...)
	var degraded int64
	for name, t := range after.Tenants {
		degraded += t.Degraded - before.Tenants[name].Degraded
	}

	pm, err := s.timePlanMiss()
	if err != nil {
		return nil, err
	}
	alone, err := s.timeStandalone(ctx)
	if err != nil {
		return nil, err
	}

	query := medianDur(trA.durations("server.query", nil))
	encode := medianDur(trA.durations("server.encode", nil))
	parse := medianDur(trB.durations("parser.parse", nil))
	exec := medianDur(trB.durations("exec", nil))
	sorted := medianDur(trB.durations("server.sort", nil))
	// On an answer miss, the exec span minus the engine's own clock: what
	// the cache adds around a live evaluation (both lookups, assembling
	// the answer, StoreAnswers and its log append).
	var store []time.Duration
	if !s.cfg.Cache.DisableAnswers {
		for i := range trB.spans {
			if sp := &trB.spans[i]; sp.name == "exec" && sp.args["answer_hit"] == false {
				store = append(store, sp.end-sp.start-b.eval[sp.req])
			}
		}
	}

	m := res.Metrics
	m["server.query_us"] = us(query)
	m["server.http_us"] = us(medianDur(latencies(load.samples)) - query - encode)
	m["server.sort_us"] = us(sorted)
	m["server.encode_us"] = us(encode)
	m["server.resp_bytes"] = medianFloat(a.bytes)
	m["server.self_us"] = us(query - parse - exec - sorted)
	m["server.allocs_per_req"] = float64(off.counts.mallocs) / float64(n)
	m["server.shed_ratio"] = float64(after.Shed-before.Shed) / float64(n)
	m["server.degraded_ratio"] = float64(degraded) / float64(n)
	m["parser.parse_us"] = us(parse)
	m["parser.query_bytes"] = b.queryBytes
	m["qcache.plan_hit_us"] = us(medianDur(trC.durations("qcache.plan", hit(true))))
	m["qcache.plan_miss_us"] = us(medianDur(trC.durations("qcache.plan", hit(false))))
	m["qcache.plan_evictions_per_req"] = planEvictions
	m["qcache.answers_hit_us"] = us(medianDur(trC.durations("qcache.answers", hit(true))))
	m["qcache.answers_miss_us"] = us(medianDur(trC.durations("qcache.answers", hit(false))))
	m["qcache.store_us"] = us(medianDur(store))
	m["qcache.invalidate_us"] = us(medianDur(trA.durations("qcache.invalidate", nil)))
	m["minimize.union_us"] = us(medianDur(pm.minimize))
	m["containment.canon_us"] = us(medianDur(pm.canon))
	m["core.reorder_us"] = us(medianDur(pm.reorder))
	m["core.feasible_us"] = us(medianDur(pm.feasible))
	m["core.feasible_budget_exhausted_ratio"] = float64(pm.exhausted) / float64(len(pm.feasible))
	m["engine.eval_us"] = us(medianDur(append([]time.Duration(nil), b.eval...)))
	m["engine.bindings_per_req"] = b.bindings
	m["engine.deduped_calls_per_req"] = b.deduped
	m["engine.batches_per_req"] = b.batches
	m["engine.interned_per_req"] = b.interned
	m["engine.arena_reuses_per_req"] = b.arenaReuses
	m["engine.allocs_per_eval"] = alone.allocsPerEval
	m["sources.scan_us"] = us(alone.scan)
	m["sources.lookup_us"] = us(alone.lookup)
	m["adapter.batch_us"] = us(alone.batch)
	m["adapter.overhead_us"] = us(alone.batchOverhead)
	m["persist.bytes_per_req"] = float64(a.counts.bytes) / float64(n)
	m["persist.fsyncs"] = float64(a.counts.syncs)
	m["persist.fsync_ms_total"] = float64(a.counts.syncNS) / 1e6
	m["persist.compactions"] = float64(a.counts.compactions)
	m["persist.dir_bytes_end"] = float64(a.rec.dirBytes)
	m["persist.recover_ms"] = ms(a.rec.open)
	m["persist.warm_hit_ratio"] = 0
	if a.rec.replays > 0 {
		m["persist.warm_hit_ratio"] = float64(a.rec.warm) / float64(a.rec.replays)
	}
	// Pass B's request without its encode span against pass A's
	// Server.Query: the share of the request the replayed calls explain.
	replayed := medianDur(trB.durations("request", nil)) - medianDur(trB.durations("server.encode", nil))
	m["trace.layer_sum_ratio"] = float64(replayed) / float64(query)
	m["trace.overhead_ratio"] = float64(medianDur(a.spanned)) / float64(medianDur(a.bare))

	res.Correct = res.Failed == 0
	path := filepath.Join(outDir(), s.name+".trace.json")
	if err := writeChromeTrace(path, trA, trB, trC); err != nil {
		return nil, err
	}
	return res, nil
}
