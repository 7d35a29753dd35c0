// Package qcache is a two-tier semantic query cache for UCQ¬ execution
// under limited access patterns.
//
// Tier 1 (plan cache) memoizes the one planner, core.PlanUnion, which
// every execution runs: it minimizes each disjunct to its core, drops
// the unsatisfiable ones and those a certain disjunct contains, and
// plans the rest. The plan's cores are canonicalized
// (containment.CanonicalForm) with the head predicate normalized away,
// and the sorted, deduplicated per-core keys — together with the
// access-pattern set — form the key. α-renamed, literal-padded,
// duplicated-disjunct, and otherwise non-minimal resubmissions of the
// same query therefore hit the same entry and skip re-planning
// (minimization, the contained-disjunct scan, orderability check,
// reordering, adornment). A textual fast key (order-insensitive but
// multiplicity-sensitive) fronts the canonical computation for exact
// resubmissions, and an in-flight table (singleflight) makes a
// thundering herd on a cold hot query plan once.
//
// Tier 2 (answer cache) stores, per executed disjunct, the rows it
// produced, keyed by (canonical key, catalog identity, catalog
// generation) of the query those rows answer: the disjunct's core when
// the plan runs it in full, and the overestimate Qᵢᵒ the plan runs
// instead when it dismissed the disjunct (PLAN*, Figure 2). Qᵢᵒ is an
// executable query, so its rows depend on nothing but what its accesses
// return; only the plan knows they are Δ candidates rather than certain
// answers, and the tier treats every disjunct alike. A later execution
// reuses a disjunct's rows only when its query is *equivalent* to the
// cached one — either the keys are equal (isomorphism, hence
// equivalence) or a budgeted mutual containment check
// (containment.ContainsLimited both ways) proves equivalence for
// non-isomorphic queries. That check is started only against entries
// whose signature (coreSig: what equivalent queries must share
// syntactically) equals the query's, found through a bucket index
// rather than a walk of the tier. One-way containment is never enough:
// p ⊑ q makes q's rows an overestimate of p's, and answer-level reuse
// must return exactly ANSWER(p). When every disjunct is covered the
// execution makes no source call; when only some are, the remainder
// runs live, and either way the driver sorts the rows into the
// estimates as it would for a live run.
//
// A cached answer is immutable until its catalog generation moves, so
// the cache holds it as a frozen relation (engine.Frozen) and hands out
// views: a hit keys, copies and sorts nothing, and the union of several
// disjuncts is assembled outside the cache lock.
//
// Both tiers are LRU-bounded (entries, and approximate bytes for
// answers), optionally TTL-expired, and invalidated by the catalog
// generation counter (sources.Catalog.Invalidate / ResetStats);
// Cache.InvalidateCatalog also frees the invalidated entries at once.
// The cache is safe for concurrent use.
package qcache

import (
	"bytes"
	"cmp"
	"container/list"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/qcache/persist"
	"repro/internal/sources"
)

// canonHeadPred is the head predicate used in canonical cores: the
// query's own head predicate name carries no semantics, so "Q(x) :- R(x)"
// and "Ans(x) :- R(x)" must share cache entries.
const canonHeadPred = "Q"

// equivBudget bounds the total containment nodes one Answers call may
// spend on equivalence scans.
const equivBudget = 20000

// Options configures a Cache. The zero value selects the defaults.
type Options struct {
	// MaxPlanEntries bounds the plan cache (default 512; negative =
	// unbounded).
	MaxPlanEntries int
	// MaxAnswerEntries bounds the answer cache's entry count (default
	// 1024; negative = unbounded).
	MaxAnswerEntries int
	// MaxAnswerBytes bounds the answer cache's approximate row bytes
	// (default 64 MiB; negative = unbounded).
	MaxAnswerBytes int64
	// TTL expires entries of both tiers after this duration (0 = never).
	TTL time.Duration
	// PlanBudget is the planning budget of a plan miss (default
	// core.PlanBudget, which an uncached Exec uses too): the planner's
	// minimization of the disjuncts and its scan for contained
	// disjuncts together draw at most this many containment nodes, once.
	// When it runs out, the literals and disjuncts not yet tested stay —
	// the plan is as correct, possibly not minimal, so a padded variant
	// may miss the plan cache (the answer tier's equivalence lookup
	// still finds its rows).
	PlanBudget int
	// EquivScanLimit bounds how many cached cores a single uncovered
	// disjunct may be tested against for equivalence (default 16;
	// negative = no test). Only plausible candidates count: cores
	// cached for the same catalog whose signature (coreSig) equals the
	// disjunct's, newest first.
	EquivScanLimit int
	// DisableAnswers turns tier 2 off: plans are cached, answers are
	// always computed live (the "plan-only" mode of the E22 ablation).
	DisableAnswers bool
	// Now is the cache's clock (nil = time.Now). Tests inject a virtual
	// clock (mirroring sources.VirtualClock) so TTL expiry and
	// persistence timestamps are deterministic.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.MaxPlanEntries == 0 {
		o.MaxPlanEntries = 512
	}
	if o.MaxAnswerEntries == 0 {
		o.MaxAnswerEntries = 1024
	}
	if o.MaxAnswerBytes == 0 {
		o.MaxAnswerBytes = 64 << 20
	}
	if o.PlanBudget == 0 {
		o.PlanBudget = core.PlanBudget
	}
	if o.EquivScanLimit == 0 {
		o.EquivScanLimit = 16
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Stats are the cache's cumulative counters.
type Stats struct {
	PlanHits   int // plan served from cache (incl. singleflight followers and α-aliases)
	PlanMisses int // plans built
	AnswerHits int // executions answered entirely from cached rows
	// PartialReuseRules counts disjuncts whose rows were served from
	// cache while sibling disjuncts ran live.
	PartialReuseRules int
	// EquivHits counts disjuncts reused via the budgeted mutual
	// containment check rather than key equality.
	EquivHits int
	// Evictions counts entries (plans and answers) evicted by capacity,
	// bytes, or TTL.
	Evictions int
	// PersistLoads counts answer entries warm-loaded from the
	// persistence log, and PersistBytes their approximate row bytes.
	PersistLoads int
	PersistBytes int64
	// PersistDrops counts persisted records dropped rather than served:
	// unverifiable on disk (torn, bit-flipped, failed validation) or
	// superseded by a newer generation.
	PersistDrops int
}

// PlanEntry is one cached plan: the executable representative of an
// equivalence class of submitted queries.
type PlanEntry struct {
	key  string
	plan core.Plan // the representative's plan; run on behalf of every member
	// cores[i], head normalized, is the canonical form of the query
	// whose answer plan rule i's rows are: the rule's core when the
	// plan keeps it certain, the overestimate Qᵢᵒ the plan runs when it
	// dismissed it. The answer tier keys rule i's rows by it.
	cores    []logic.CQ
	coreKeys []string // CanonicalKey of cores[i]
	coreSigs []string // coreSig of cores[i]
	planErr  error
	created  time.Time
	// prepared is the plan's compiled rule programs under the last
	// engine state that ran it; it goes when the entry is evicted.
	prepared engine.Prepared
	// aliases are the fast keys that map to the entry, the latest
	// maxPlanAliases of them, oldest first; they leave the fast map
	// with the entry. Cache.mu guards them.
	aliases []string
}

// maxPlanAliases bounds the fast keys one plan entry keeps in the fast
// map: a rendering past them replaces the entry's oldest, so the map
// holds at most maxPlanAliases keys per cached plan.
const maxPlanAliases = 4

// Exec returns the executable representative the cache evaluates for
// this entry. It is equivalent to every query that maps to the entry.
func (e *PlanEntry) Exec() logic.UCQ { return e.plan.Exec }

// Plan returns the representative's plan, shared by every execution
// that uses this entry: read it, never write it.
func (e *PlanEntry) Plan() core.Plan { return e.plan }

// Prepared returns the slot where executions of Plan keep its compiled
// rule programs (engine.Opts.Prepared).
func (e *PlanEntry) Prepared() *engine.Prepared { return &e.prepared }

// Err returns the cached planning failure (a literal over an undeclared
// relation or with the wrong arity; it wraps core.ErrNotOrderable), or
// nil.
func (e *PlanEntry) Err() error { return e.planErr }

// Key returns the entry's canonical cache key (for diagnostics).
func (e *PlanEntry) Key() string { return e.key }

// PlanInfo reports how a Plan call was served.
type PlanInfo struct {
	// Hit is true when the plan came from the cache (including via the
	// canonical key of an α-renamed or non-minimal variant, and
	// singleflight followers).
	Hit bool
	// Evictions counts cache entries evicted during this call.
	Evictions int
}

// planFlight is one in-progress plan build that concurrent callers of
// the same fast key wait on.
type planFlight struct {
	done  chan struct{}
	entry *PlanEntry
}

// ansEntry is one disjunct's cached answer. The cache owns rel, a
// frozen relation nothing writes again: hits are handed views of it, and
// every entry holding the same answer (an equivalence alias, a restored
// record) shares the one relation and hence its canonical order.
type ansEntry struct {
	key     string // coreKey + catalog fingerprint
	catFP   string
	core    logic.CQ // canonical core (head normalized); for equivalence tests
	sig     string   // coreSig(core); with catFP, the entry's bucket
	rel     *engine.Rel
	bytes   int64
	created time.Time
}

// AnswerHit is the result of consulting the answer cache for one plan
// entry.
type AnswerHit struct {
	// Full is the union of the cached disjuncts' rows in rule order
	// when every disjunct is covered, nil otherwise: the answer itself
	// when the plan dismissed no rule. It borrows the cached rows but is
	// the caller's to Add to (see engine.Union).
	Full *engine.Rel
	// Rows[i] holds plan rule i's cached rows when Covered[i].
	Rows [][]engine.Row
	// Covered[i] reports whether plan rule i's rows came from the cache,
	// so it needs no live evaluation.
	Covered []bool
	// CachedRules counts the covered disjuncts: the rules the report
	// credits as survived without running, and the profile's
	// PartialReuseRules on a non-full hit.
	CachedRules int
	// EquivHits counts disjuncts covered via the mutual containment
	// check rather than key equality.
	EquivHits int
}

// Cache is the two-tier semantic query cache. Create one with New and
// share it across Exec callers; it is safe for concurrent use.
type Cache struct {
	opt Options

	mu      sync.Mutex
	fast    map[string]string        // textual fast key -> canonical key
	plans   map[string]*list.Element // canonical key -> element in planLRU
	planLRU *list.List               // of *PlanEntry; front = most recently used
	flights map[string]*planFlight   // fast key -> in-progress build

	answers  map[string]*list.Element // answer key -> element in ansLRU
	ansLRU   *list.List               // of *ansEntry
	ansBytes int64
	// buckets indexes ansLRU by what an equivalent core must share:
	// every entry is in exactly one bucket, in install order.
	buckets map[bucketKey][]*ansEntry

	// persist is the optional crash-safe spill layer (nil = memory
	// only): a private persist.Log, or a fleet node sharing a
	// directory with other replicas. restored tracks the store version
	// each catalog label was warm-loaded at (value = Version()+1, so
	// the zero value means never restored); a label re-restores when
	// the store version moved behind the cache's back.
	persist  persist.Store
	restored map[string]uint64

	stats Stats
}

// New returns a Cache with the given options (zero value = defaults).
func New(opt Options) *Cache {
	return &Cache{
		opt:      opt.withDefaults(),
		fast:     map[string]string{},
		plans:    map[string]*list.Element{},
		planLRU:  list.New(),
		flights:  map[string]*planFlight{},
		answers:  map[string]*list.Element{},
		ansLRU:   list.New(),
		buckets:  map[bucketKey][]*ansEntry{},
		restored: map[string]uint64{},
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of cached plans and answer entries.
func (c *Cache) Len() (plans, answers int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.planLRU.Len(), c.ansLRU.Len()
}

// Purge drops every cached plan and answer (counters are kept).
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fast = map[string]string{}
	c.plans = map[string]*list.Element{}
	c.planLRU = list.New()
	c.answers = map[string]*list.Element{}
	c.ansLRU = list.New()
	c.ansBytes = 0
	c.buckets = map[bucketKey][]*ansEntry{}
	// Forget restore state so persisted entries can warm the cache again
	// on the next lookup (re-restoring is idempotent).
	c.restored = map[string]uint64{}
}

func (c *Cache) fresh(created time.Time) bool {
	return c.opt.TTL <= 0 || c.opt.Now().Sub(created) < c.opt.TTL
}

// fastKey renders q textually: per rule, the head and the *sorted* body
// literal renderings — keeping duplicates, so a literal-padded variant
// misses here and is caught by the minimize/canonicalize path — with
// the rules themselves sorted, plus the pattern-set fingerprint. It
// renders into ks and returns ks.key, valid until ks is reused.
func (ks *keyScratch) fastKey(q logic.UCQ, ps *access.Set) []byte {
	text, rules := ks.text[:0], ks.rules[:0]
	byText := func(a, b span) int { return bytes.Compare(text[a.start:a.end], text[b.start:b.end]) }
	for _, r := range q.Rules {
		lits := ks.lits[:0]
		if !r.False {
			for _, l := range r.Body {
				start := len(text)
				text = l.AppendTo(text)
				lits = append(lits, span{start, len(text)})
			}
			slices.SortFunc(lits, byText)
		}
		ks.lits = lits
		start := len(text)
		text = r.Head().AppendTo(text)
		if r.False {
			text = append(text, " :- false"...)
		} else {
			text = append(text, " :- "...)
			for k, sp := range lits {
				if k > 0 {
					text = append(text, ", "...)
				}
				text = append(text, text[sp.start:sp.end]...)
			}
		}
		rules = append(rules, span{start, len(text)})
	}
	slices.SortFunc(rules, byText)
	key := ks.key[:0]
	for k, sp := range rules {
		if k > 0 {
			key = append(key, '\n')
		}
		key = append(key, text[sp.start:sp.end]...)
	}
	key = append(key, 0)
	key = append(key, ps.String()...)
	ks.text, ks.rules, ks.key = text, rules, key
	return key
}

// keyScratch is the rendering space of a fast key or an answer-tier
// lookup key, recycled through keyScratches: text holds the renderings
// of literals, heads and whole rules, which spans index, and key the
// key itself.
type keyScratch struct {
	text  []byte
	lits  []span
	rules []span
	key   []byte
}

// span is text[start:end] of a keyScratch.
type span struct{ start, end int }

var keyScratches = sync.Pool{New: func() any { return new(keyScratch) }}

// keyScratchMaxKept bounds, in bytes, the buffers a recycled keyScratch
// keeps, so that one huge union's key stays out of the pool.
const keyScratchMaxKept = 64 << 10

func takeKeyScratch() *keyScratch { return keyScratches.Get().(*keyScratch) }

func (ks *keyScratch) release() {
	if cap(ks.text) > keyScratchMaxKept || cap(ks.key) > keyScratchMaxKept {
		return
	}
	keyScratches.Put(ks)
}

// Plan returns the cached plan entry for q under ps, building (and
// caching) it on a miss. The entry's Err is non-nil when a literal of
// the query has no declared pattern to call; callers should return it.
// A hit allocates nothing: the fast key is rendered into pooled
// scratch, and only a miss copies it into a string.
func (c *Cache) Plan(q logic.UCQ, ps *access.Set) (*PlanEntry, PlanInfo) {
	ks := takeKeyScratch()
	fkb := ks.fastKey(q, ps)
	c.mu.Lock()
	if pk, ok := c.fast[string(fkb)]; ok {
		if elem, ok2 := c.plans[pk]; ok2 {
			e := elem.Value.(*PlanEntry)
			if c.fresh(e.created) {
				c.planLRU.MoveToFront(elem)
				c.stats.PlanHits++
				c.mu.Unlock()
				ks.release()
				return e, PlanInfo{Hit: true}
			}
			c.removePlanLocked(elem)
			c.stats.Evictions++
		}
		delete(c.fast, string(fkb))
	}
	if f, ok := c.flights[string(fkb)]; ok {
		c.mu.Unlock()
		ks.release()
		<-f.done
		c.mu.Lock()
		c.stats.PlanHits++
		c.mu.Unlock()
		return f.entry, PlanInfo{Hit: true}
	}
	fk := string(fkb)
	ks.release()
	f := &planFlight{done: make(chan struct{})}
	c.flights[fk] = f
	c.mu.Unlock()

	built := c.build(q, ps)

	c.mu.Lock()
	entry := built
	hit := false
	evictions := 0
	if elem, ok := c.plans[built.key]; ok {
		if e := elem.Value.(*PlanEntry); c.fresh(e.created) {
			// An isomorphic (α-renamed / non-minimal) variant is already
			// cached: serve it, discard the rebuild.
			entry = e
			c.planLRU.MoveToFront(elem)
			c.stats.PlanHits++
			hit = true
		} else {
			c.removePlanLocked(elem)
			c.stats.Evictions++
			evictions++
		}
	}
	if !hit {
		c.plans[built.key] = c.planLRU.PushFront(built)
		c.stats.PlanMisses++
		if max := c.opt.MaxPlanEntries; max > 0 {
			for c.planLRU.Len() > max {
				c.removePlanLocked(c.planLRU.Back())
				c.stats.Evictions++
				evictions++
			}
		}
	}
	c.aliasLocked(entry, fk)
	delete(c.flights, fk)
	f.entry = entry
	c.mu.Unlock()
	close(f.done)
	return entry, PlanInfo{Hit: hit, Evictions: evictions}
}

// aliasLocked maps the fast key fk to e, dropping e's oldest alias
// when e already has maxPlanAliases; c.mu held.
func (c *Cache) aliasLocked(e *PlanEntry, fk string) {
	if len(e.aliases) == maxPlanAliases {
		delete(c.fast, e.aliases[0])
		e.aliases = append(e.aliases[:0], e.aliases[1:]...)
	}
	e.aliases = append(e.aliases, fk)
	c.fast[fk] = e.key
}

// removePlanLocked removes a plan element from every index: the plans,
// the LRU and the fast map; c.mu held.
func (c *Cache) removePlanLocked(elem *list.Element) {
	e := c.planLRU.Remove(elem).(*PlanEntry)
	delete(c.plans, e.key)
	for _, fk := range e.aliases {
		delete(c.fast, fk)
	}
	e.aliases = nil
}

// build computes a PlanEntry for q: plan it with the one planner
// (core.PlanUnion) and key it by the canonical forms of the plan's
// cores.
func (c *Cache) build(q logic.UCQ, ps *access.Set) *PlanEntry {
	e := &PlanEntry{created: c.opt.Now()}
	var cores []logic.CQ
	e.plan, cores, e.planErr = core.PlanUnion(q, ps, c.opt.PlanBudget)
	if e.planErr != nil {
		// Keyed as written, so α-renamed variants replay the failure. A
		// failure keeps its key and its error (which quotes at most a
		// bounded part of the text) and nothing else of the request:
		// Answers and StoreAnswers never read a failure's cores.
		keys := make([]string, len(q.Rules))
		for i, r := range q.Rules {
			r.HeadPred = canonHeadPred
			keys[i] = containment.CanonicalKey(r)
		}
		e.key = planKey(keys, ps)
		return e
	}
	// The plan's rules share terms and literals with q, which is the
	// submitter's to change and whose parse arenas the entry must not
	// keep alive: the entry runs its own copy for every later member.
	e.plan.Exec = e.plan.Exec.Clone()

	// Canonical cores, positional with the plan's rules. The head
	// predicate is normalized away — it names the answer, it does not
	// select it.
	e.cores = make([]logic.CQ, len(cores))
	e.coreKeys = make([]string, len(cores))
	e.coreSigs = make([]string, len(cores))
	keys := make([]string, len(cores))
	for i, cr := range cores {
		cr.HeadPred = canonHeadPred // on the loop's copy: CanonicalForm builds a new query
		e.cores[i], e.coreKeys[i] = containment.CanonicalForm(cr)
		keys[i] = e.coreKeys[i]
		if !e.plan.Certain(i) {
			// A dismissed rule runs as its overestimate Qᵢᵒ, whose rows
			// are that rule's answer: they are cached under it.
			run := e.plan.Exec.Rules[i]
			run.HeadPred = canonHeadPred
			e.cores[i], e.coreKeys[i] = containment.CanonicalForm(run)
		}
		e.coreSigs[i] = coreSig(e.cores[i])
	}
	e.key = planKey(keys, ps)
	return e
}

// planKey is the plan cache's key of a union under ps from its rules'
// canonical keys, head predicates normalized away (the head names the
// answer, it does not select it): their sorted set. keys is reordered.
func planKey(keys []string, ps *access.Set) string {
	sort.Strings(keys)
	return strings.Join(slices.Compact(keys), " | ") + "\x00" + ps.String()
}

// catFingerprint keys answers to a catalog identity and generation:
// swapping catalogs or invalidating one orphans its cached answers.
//
// Identity is the catalog's registered monotonic ID, never its address:
// a pointer rendering ("%p") aliases as soon as the garbage collector
// recycles the address of a dead catalog for a new one — the cache
// holds no reference to the catalog, so nothing pins it — and a second
// tenant's catalog landing on a first tenant's old address would be
// served the first tenant's cached answers. IDs are process-unique and
// never reused, so distinct catalogs can never collide however the
// allocator places them.
func catFingerprint(cat *sources.Catalog) string {
	var buf [40]byte
	return string(appendCatFingerprint(buf[:0], cat))
}

// appendCatFingerprint appends catFingerprint(cat) to b.
func appendCatFingerprint(b []byte, cat *sources.Catalog) []byte {
	b = strconv.AppendInt(b, cat.ID(), 10)
	b = append(b, ':')
	return strconv.AppendInt(b, cat.Generation(), 10)
}

// appendAnswerKey appends the answer tier's key of a core under a
// catalog fingerprint to b.
func appendAnswerKey[FP string | []byte](b []byte, coreKey string, catFP FP) []byte {
	b = append(b, coreKey...)
	b = append(b, '\x1f')
	return append(b, catFP...)
}

// dropCatalogLocked removes every answer entry of cat, whatever its
// generation; c.mu must be held.
func (c *Cache) dropCatalogLocked(cat *sources.Catalog) {
	identity := strconv.FormatInt(cat.ID(), 10) + ":" // catFingerprint up to the generation
	for elem := c.ansLRU.Front(); elem != nil; {
		next := elem.Next()
		if strings.HasPrefix(elem.Value.(*ansEntry).catFP, identity) {
			c.removeAnswerLocked(elem)
		}
		elem = next
	}
}

// Answers consults the answer cache for e against cat. Soundness: plan
// rule i's rows are reused only when the query they answer — its core,
// or the overestimate Qᵢᵒ the plan runs for a dismissed rule — is
// equivalent to a cached one (key equality ⇒ isomorphism ⇒
// equivalence, or the mutual containment check) and the catalog
// fingerprint — identity plus generation — matches. One-way containment
// is never used. Whether the rows are certain is the plan's business,
// not the cache's.
//
// The lock covers the lookups only: a full hit's union is assembled
// after it is released, from frozen relations no one writes, so a large
// answer never stalls another tenant's lookup.
func (c *Cache) Answers(e *PlanEntry, cat *sources.Catalog) AnswerHit {
	if e.planErr != nil {
		return AnswerHit{}
	}
	n := len(e.plan.Exec.Rules)
	hit := AnswerHit{Rows: make([][]engine.Row, n), Covered: make([]bool, n)}
	if c.opt.DisableAnswers {
		return hit
	}
	c.mu.Lock()
	// Warm-load any persisted state for this catalog's label before
	// computing the fingerprint: the restore may advance the catalog's
	// generation, and the fingerprint must reflect it.
	c.ensureRestoredLocked(cat, true)
	var fpBuf [40]byte
	fp := appendCatFingerprint(fpBuf[:0], cat)
	catFP := "" // fp as a string, made once a rule misses
	ks := takeKeyScratch()
	defer ks.release()
	budget := equivBudget
	parts := make([]*engine.Rel, 0, n) // the covered disjuncts' answers, in rule order
	full := true
	for i := range n {
		ks.key = appendAnswerKey(ks.key[:0], e.coreKeys[i], fp)
		var a *ansEntry
		if elem, ok := c.answers[string(ks.key)]; ok {
			if a = elem.Value.(*ansEntry); c.fresh(a.created) {
				c.ansLRU.MoveToFront(elem)
			} else {
				c.removeAnswerLocked(elem)
				c.stats.Evictions++
				a = nil
			}
		}
		if a == nil {
			if catFP == "" {
				catFP = string(fp)
			}
			if a = c.equivScanLocked(e.cores[i], e.coreSigs[i], catFP, &budget); a == nil {
				full = false
				continue
			}
			// Alias the found entry under this core's key so the next
			// lookup is O(1).
			c.installAnswerLocked(&ansEntry{
				key: string(ks.key), catFP: catFP, core: a.core, sig: a.sig,
				rel: a.rel, bytes: a.bytes, created: a.created,
			})
			hit.EquivHits++
			c.stats.EquivHits++
		}
		hit.Rows[i] = a.rel.Rows()
		hit.Covered[i] = true
		hit.CachedRules++
		parts = append(parts, a.rel)
	}
	if full {
		c.stats.AnswerHits++
	} else if hit.CachedRules > 0 {
		c.stats.PartialReuseRules += hit.CachedRules
	}
	c.mu.Unlock()
	if full {
		hit.Full = engine.Union(parts)
	}
	return hit
}

// bucketKey names one bucket of the answer tier's equivalence index:
// the entries cached for one catalog fingerprint whose cores share one
// signature. Both strings are ones the entries already hold.
type bucketKey struct{ catFP, sig string }

// coreSig renders what every core equivalent to c must share with it:
// the head's arity and its constants by position, the predicates (with
// arity and sign) of the body literals, and each constant of a body
// literal with its predicate, sign and position. It is a necessary
// condition for equivalence, never a sufficient one. Cores in the answer
// tier are satisfiable, so by Theorem 12 c ⊑ d needs a containment
// mapping σ from d's positive part into c's that fixes the head
// positionally and every constant: each positive predicate of d occurs
// positively in c, each positive constant of d at the same position,
// each head constant of d at the same head position. For a negated
// literal ¬R(ȳ) of d the theorem asks that c ∧ R(σȳ) ⊑ d, which holds
// because ¬R(σȳ) is in c or, c ∧ R(σȳ) being satisfiable, by the same
// theorem one level down, where c's negated literals are the same; the
// recursion is finite, so it ends at a ¬R(σ′ȳ) in c, which has ȳ's
// constants where ȳ has them. Equivalence makes all these sets equal.
//
// It renders in one pass: the facts go into a sorted, deduplicated slice
// of sigParts, and from there into one builder.
func coreSig(c logic.CQ) string {
	var buf [32]sigPart
	parts := buf[:0]
	size := 8
	for _, l := range c.Body {
		p := sigPart{neg: l.Negated, pred: l.Atom.Pred, arity: len(l.Atom.Args), pos: -1}
		parts = append(parts, p)
		size += len(p.pred) + 8
		for k, t := range l.Atom.Args {
			if !t.IsVar() {
				p.pos, p.val = k, t
				parts = append(parts, p)
				size += len(p.pred) + len(t.Name) + 16
			}
		}
	}
	for _, t := range c.HeadArgs {
		size += len(t.Name) + 8
	}
	slices.SortFunc(parts, sigPart.compare)
	parts = slices.Compact(parts)
	var b strings.Builder
	b.Grow(size)
	var num [20]byte
	b.Write(strconv.AppendInt(num[:0], int64(len(c.HeadArgs)), 10))
	for k, t := range c.HeadArgs {
		if !t.IsVar() {
			b.WriteByte(' ')
			b.Write(strconv.AppendInt(num[:0], int64(k), 10))
			writeSigTerm(&b, t)
		}
	}
	for _, p := range parts {
		b.WriteByte(' ')
		if p.neg {
			b.WriteByte('!')
		}
		b.WriteString(p.pred)
		b.WriteByte('/')
		b.Write(strconv.AppendInt(num[:0], int64(p.arity), 10))
		if p.pos >= 0 {
			b.WriteByte('#')
			b.Write(strconv.AppendInt(num[:0], int64(p.pos), 10))
			writeSigTerm(&b, p.val)
		}
	}
	return b.String()
}

// sigPart is one fact of a core signature: a body literal's sign,
// predicate and arity, and for pos ≥ 0 the constant at position pos.
type sigPart struct {
	neg   bool
	pred  string
	arity int
	pos   int
	val   logic.Term
}

func (p sigPart) compare(q sigPart) int {
	return cmp.Or(
		strings.Compare(p.pred, q.pred),
		cmp.Compare(p.arity, q.arity),
		cmp.Compare(boolInt(p.neg), boolInt(q.neg)),
		cmp.Compare(p.pos, q.pos),
		cmp.Compare(p.val.Kind, q.val.Kind),
		strings.Compare(p.val.Name, q.val.Name),
	)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// writeSigTerm writes "=" and a constant or null, its name prefixed by
// its length so that no name can run into the next part.
func writeSigTerm(b *strings.Builder, t logic.Term) {
	var num [20]byte
	if t.IsNull() {
		b.WriteString("=null")
		return
	}
	b.WriteByte('=')
	b.Write(strconv.AppendInt(num[:0], int64(len(t.Name)), 10))
	b.WriteByte(':')
	b.WriteString(t.Name)
}

// equivScanLocked looks for a cached entry whose core is equivalent to
// want (whose signature is sig) under the same catalog fingerprint. Only
// the entries of that one bucket can be, so only they are tested, newest
// first, spending at most the remaining budget of containment nodes and
// Options.EquivScanLimit candidates. c.mu must be held.
func (c *Cache) equivScanLocked(want logic.CQ, sig, catFP string, budget *int) *ansEntry {
	bucket := c.buckets[bucketKey{catFP, sig}]
	tried := 0
	for i := len(bucket) - 1; i >= 0 && tried < c.opt.EquivScanLimit && *budget > 0; i-- {
		a := bucket[i]
		if !c.fresh(a.created) {
			continue
		}
		tried++
		if equivalentWithin(want, a.core, budget) {
			return a
		}
	}
	return nil
}

// equivalentWithin decides equivalence of two CQ¬ cores with a shared
// node budget, charging the nodes actually spent. Budget exhaustion
// counts as "not equivalent" (reuse is then skipped — sound, merely a
// missed hit).
func equivalentWithin(a, b logic.CQ, budget *int) bool {
	for _, dir := range [2][2]logic.CQ{{a, b}, {b, a}} {
		ck := containment.NewChecker(logic.AsUnion(dir[1]))
		ok, err := ck.ContainsLimited(dir[0], *budget)
		*budget -= ck.Nodes
		if err != nil || !ok {
			return false
		}
	}
	return true
}

// StoreAnswers records per-disjunct answer relations from a live
// evaluation: rels[i] is exec rule i's own answer relation, nil when
// the rule did not run (cached, False, or degraded — degraded disjuncts
// must never be cached: their rows are incomplete). Each is stored
// under the query it answers (PlanEntry.cores): a dismissed rule's rows
// under its Qᵢᵒ. It returns the number of entries evicted to make room.
func (c *Cache) StoreAnswers(e *PlanEntry, cat *sources.Catalog, rels []*engine.Rel) int {
	if c.opt.DisableAnswers || e.planErr != nil {
		return 0
	}
	c.mu.Lock()
	c.ensureRestoredLocked(cat, true)
	catFP := catFingerprint(cat)
	before := c.stats.Evictions
	now := c.opt.Now()
	lg := c.persist
	var label string
	if lg != nil {
		label = cat.PersistentID()
	}
	gen := cat.Generation()
	var spill []persist.Entry
	ks := takeKeyScratch()
	defer ks.release()
	for i, rel := range rels {
		if rel == nil || i >= len(e.plan.Exec.Rules) {
			continue
		}
		ks.key = appendAnswerKey(ks.key[:0], e.coreKeys[i], catFP)
		if _, ok := c.answers[string(ks.key)]; ok {
			continue // first writer wins; equal up to row order anyway
		}
		c.installAnswerLocked(&ansEntry{
			key: string(ks.key), catFP: catFP, core: e.cores[i], sig: e.coreSigs[i],
			rel: rel.View(), bytes: rowBytes(rel.Rows()), created: now,
		})
		if label != "" {
			if pe, ok := persistEntry(label, gen, now, e.coreKeys[i], e.cores[i], rel.Rows()); ok {
				spill = append(spill, pe)
			}
		}
	}
	evicted := c.stats.Evictions - before
	c.mu.Unlock()
	// Appends run outside the cache lock: disk latency must not stall
	// concurrent lookups, and a failed append only degrades durability
	// (the in-memory entry stays), never the caller.
	for _, pe := range spill {
		_ = lg.Append(pe)
	}
	return evicted
}

// rowBytes is the answer cache's approximate size of rows: each row's
// key length plus a fixed overhead.
func rowBytes(rows []engine.Row) int64 {
	var n int64
	for _, row := range rows {
		n += int64(row.KeyLen()) + 32
	}
	return n
}

// installAnswerLocked inserts an answer entry and evicts past the
// entry/byte bounds; c.mu must be held.
func (c *Cache) installAnswerLocked(a *ansEntry) {
	if elem, ok := c.answers[a.key]; ok {
		c.removeAnswerLocked(elem)
	}
	c.answers[a.key] = c.ansLRU.PushFront(a)
	c.ansBytes += a.bytes
	bk := bucketKey{a.catFP, a.sig}
	c.buckets[bk] = append(c.buckets[bk], a)
	for (c.opt.MaxAnswerEntries > 0 && c.ansLRU.Len() > c.opt.MaxAnswerEntries) ||
		(c.opt.MaxAnswerBytes > 0 && c.ansBytes > c.opt.MaxAnswerBytes && c.ansLRU.Len() > 1) {
		c.removeAnswerLocked(c.ansLRU.Back())
		c.stats.Evictions++
	}
}

// removeAnswerLocked removes an answer element from every index.
func (c *Cache) removeAnswerLocked(elem *list.Element) {
	a := c.ansLRU.Remove(elem).(*ansEntry)
	delete(c.answers, a.key)
	c.ansBytes -= a.bytes
	bk := bucketKey{a.catFP, a.sig}
	bucket := c.buckets[bk]
	if i := slices.Index(bucket, a); i >= 0 {
		bucket = slices.Delete(bucket, i, i+1)
	}
	if len(bucket) == 0 {
		delete(c.buckets, bk)
	} else {
		c.buckets[bk] = bucket
	}
}
