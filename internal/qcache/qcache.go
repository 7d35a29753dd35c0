// Package qcache is a two-tier semantic query cache for UCQ¬ execution
// under limited access patterns.
//
// Tier 1 (plan cache) keys on an isomorphism-invariant canonical form
// of the *minimized* query: each disjunct is minimized to its core
// (minimize.CQ), the cores are canonicalized (containment.Canonicalize)
// with the head predicate normalized away, and the sorted, deduplicated
// per-core keys — together with the access-pattern set — form the key.
// α-renamed, literal-padded, duplicated-disjunct, and otherwise
// non-minimal resubmissions of the same query therefore hit the same
// entry and skip re-planning (orderability check, reordering,
// adornment, FEASIBLE verdict). A textual fast key (order-insensitive
// but multiplicity-sensitive) fronts the canonical computation for
// exact resubmissions, and an in-flight table (singleflight) makes a
// thundering herd on a cold hot query plan once.
//
// Tier 2 (answer cache) stores, per executed disjunct, the disjunct's
// own answer rows keyed by (canonical core key, catalog identity,
// catalog generation). A later execution reuses a disjunct's rows only
// when its core is *equivalent* to the cached core — either the keys
// are equal (isomorphism, hence equivalence) or a budgeted mutual
// containment check (containment.ContainsLimited both ways) proves
// equivalence for non-isomorphic cores. That check is started only
// against entries whose signature (coreSig: what equivalent cores must
// share syntactically) equals the core's, found through a bucket index
// rather than a walk of the tier. One-way containment is never
// enough: p ⊑ q makes q's rows an overestimate of p's, and answer-level
// reuse must return exactly ANSWER(p). When every disjunct is covered
// the union is assembled from cache without any source call; when only
// some are, the remainder runs live and the results are unioned.
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
	"container/list"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/minimize"
	"repro/internal/qcache/persist"
	"repro/internal/sources"
)

// canonHeadPred is the head predicate used in canonical cores: the
// query's own head predicate name carries no semantics, so "Q(x) :- R(x)"
// and "Ans(x) :- R(x)" must share cache entries.
const canonHeadPred = "Q"

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
	// FeasibleBudget is the planning budget of a plan miss: minimizing
	// the query's disjuncts and computing the cached FEASIBLE verdict
	// each draw at most this many containment nodes (default 20000).
	// When minimization runs out, the literals not yet tested stay —
	// the plan is as correct, its cores possibly not minimal, so a
	// padded variant may miss the plan cache (the answer tier's
	// equivalence lookup still finds its rows). When FEASIBLE runs out,
	// the verdict is recorded as unknown; execution is unaffected.
	FeasibleBudget int
	// EquivScanLimit bounds how many cached cores a single uncovered
	// disjunct may be tested against for equivalence (default 16;
	// negative = no test). Only plausible candidates count: cores
	// cached for the same catalog whose signature (coreSig) equals the
	// disjunct's, newest first.
	EquivScanLimit int
	// EquivBudget bounds the total containment nodes one Answers call
	// may spend on equivalence scans (default 20000).
	EquivBudget int
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
	if o.FeasibleBudget == 0 {
		o.FeasibleBudget = 20000
	}
	if o.EquivScanLimit == 0 {
		o.EquivScanLimit = 16
	}
	if o.EquivBudget == 0 {
		o.EquivBudget = 20000
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

// Feasibility is the cached FEASIBLE verdict.
type Feasibility int

const (
	// FeasibilityUnknown: the budgeted check did not conclude.
	FeasibilityUnknown Feasibility = iota
	// FeasibilityYes: the query is feasible under the patterns.
	FeasibilityYes
	// FeasibilityNo: the query is infeasible under the patterns.
	FeasibilityNo
)

func (f Feasibility) String() string {
	switch f {
	case FeasibilityYes:
		return "feasible"
	case FeasibilityNo:
		return "infeasible"
	default:
		return "unknown"
	}
}

// PlanEntry is one cached plan: the executable representative of an
// equivalence class of submitted queries, with its verdicts.
type PlanEntry struct {
	key       string
	exec      logic.UCQ                 // executable representative; evaluated on behalf of every member
	steps     [][]access.AdornedLiteral // adornment per non-False exec rule (nil entry = False rule)
	cores     []logic.CQ                // canonical core per exec rule, head normalized; positional
	coreKeys  []string                  // CanonicalKey of cores[i]
	coreSigs  []string                  // coreSig of cores[i] ("" for a False core)
	orderable bool
	feasible  Feasibility
	verdict   core.Verdict
	planErr   error
	created   time.Time
}

// Exec returns the executable representative the cache evaluates for
// this entry. It is equivalent to every query that maps to the entry.
func (e *PlanEntry) Exec() logic.UCQ { return e.exec }

// Err returns the cached planning failure (the query is not orderable
// under the patterns; it wraps core.ErrNotOrderable), or nil.
func (e *PlanEntry) Err() error { return e.planErr }

// Orderable reports the cached orderability verdict.
func (e *PlanEntry) Orderable() bool { return e.orderable }

// Feasible returns the cached FEASIBLE verdict and its certificate
// class (meaningful when the verdict is not unknown).
func (e *PlanEntry) Feasible() (Feasibility, core.Verdict) { return e.feasible, e.verdict }

// Steps returns the cached adornment of exec rule i (nil for False
// rules).
func (e *PlanEntry) Steps(i int) []access.AdornedLiteral { return e.steps[i] }

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
	// Full is the complete answer, the union of the cached disjuncts in
	// rule order, when every non-False disjunct is covered; nil
	// otherwise. It borrows the cached rows but is the caller's to Add
	// to (see engine.Union).
	Full *engine.Rel
	// Rows[i] holds exec rule i's cached rows when Covered[i].
	Rows [][]engine.Row
	// Covered[i] reports whether exec rule i needs no live evaluation
	// (cached rows, or a statically unsatisfiable core).
	Covered []bool
	// ReusedRules counts the covered non-False exec rules — the number
	// of disjuncts the incompleteness accounting must credit as
	// survived-without-running.
	ReusedRules int
	// CachedRules counts the disjuncts covered by cached rows (excludes
	// statically unsatisfiable cores); this is the profile's
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
// the rules themselves sorted, plus the pattern-set fingerprint.
func fastKey(q logic.UCQ, ps *access.Set) string {
	rules := make([]string, len(q.Rules))
	for i, r := range q.Rules {
		if r.False {
			rules[i] = r.Head().String() + " :- false"
			continue
		}
		lits := make([]string, len(r.Body))
		for j, l := range r.Body {
			lits[j] = l.Key()
		}
		sort.Strings(lits)
		rules[i] = r.Head().String() + " :- " + strings.Join(lits, ", ")
	}
	sort.Strings(rules)
	return strings.Join(rules, "\n") + "\x00" + ps.String()
}

// Plan returns the cached plan entry for q under ps, building (and
// caching) it on a miss. The entry's Err is non-nil when the query
// admits no executable form under ps; callers should return it.
func (c *Cache) Plan(q logic.UCQ, ps *access.Set) (*PlanEntry, PlanInfo) {
	fk := fastKey(q, ps)
	c.mu.Lock()
	if pk, ok := c.fast[fk]; ok {
		if elem, ok2 := c.plans[pk]; ok2 {
			e := elem.Value.(*PlanEntry)
			if c.fresh(e.created) {
				c.planLRU.MoveToFront(elem)
				c.stats.PlanHits++
				c.mu.Unlock()
				return e, PlanInfo{Hit: true}
			}
			c.removePlanLocked(elem)
			c.stats.Evictions++
		}
		delete(c.fast, fk)
	}
	if f, ok := c.flights[fk]; ok {
		c.mu.Unlock()
		<-f.done
		c.mu.Lock()
		c.stats.PlanHits++
		c.mu.Unlock()
		return f.entry, PlanInfo{Hit: true}
	}
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
	// The fast map holds textual aliases; bound it coarsely so distinct
	// renderings of the same classes cannot grow it without limit.
	if max := c.opt.MaxPlanEntries; max > 0 && len(c.fast) >= 4*max {
		c.fast = map[string]string{}
	}
	c.fast[fk] = entry.key
	delete(c.flights, fk)
	f.entry = entry
	c.mu.Unlock()
	close(f.done)
	return entry, PlanInfo{Hit: hit, Evictions: evictions}
}

// removePlanLocked removes a plan element from both indexes; c.mu held.
func (c *Cache) removePlanLocked(elem *list.Element) {
	e := c.planLRU.Remove(elem).(*PlanEntry)
	delete(c.plans, e.key)
}

// build computes a PlanEntry for q: minimize each disjunct to its core,
// canonicalize, pick an executable representative, adorn it, and run
// the budgeted FEASIBLE check.
func (c *Cache) build(q logic.UCQ, ps *access.Set) *PlanEntry {
	e := &PlanEntry{created: c.opt.Now()}

	// Choose the representative to evaluate. Preferred: the reordered
	// minimized union — minimal bodies mean minimal source calls, and
	// every member of the equivalence class (padded, α-renamed, …) then
	// executes the same minimal plan. It is skipped when minimization
	// proved a disjunct unsatisfiable (a False exec rule would change
	// partial-results rule accounting relative to an uncached run, which
	// evaluates the satisfiable-but-unminimized rule) or when dropping
	// literals lost a binding provider and broke orderability. Fallbacks:
	// the submitted form if executable as written, else its ANSWERABLE
	// reordering. Every candidate is equivalent to q, so evaluating the
	// representative is sound for every query that maps to this entry.
	cores := minimize.Cores(q, c.opt.FeasibleBudget)
	anyFalse := false
	for _, cr := range cores {
		if cr.False {
			anyFalse = true
			break
		}
	}
	minimized, minOK := core.ReorderUCQ(logic.UCQ{Rules: cores}, ps)
	switch {
	case minOK && !anyFalse:
		e.exec = minimized
		e.orderable = true
	case core.Executable(q, ps):
		e.exec = q.Clone()
		e.orderable = true
	default:
		if reordered, ok := core.ReorderUCQ(q, ps); ok {
			e.exec = reordered
			e.orderable = true
		} else if minOK {
			e.exec = minimized
			e.orderable = true
		} else {
			e.planErr = fmt.Errorf("qcache: %w (no executable form): %s", core.ErrNotOrderable, q)
		}
	}

	// Canonical cores, positional with q.Rules (and hence with e.exec's
	// rules: Reorder preserves positions). The head predicate is
	// normalized away — it names the answer, it does not select it.
	e.cores = make([]logic.CQ, len(cores))
	e.coreKeys = make([]string, len(cores))
	e.coreSigs = make([]string, len(cores))
	keySet := make([]string, 0, len(cores))
	seen := map[string]bool{}
	for i, cr := range cores {
		n := cr.Clone()
		n.HeadPred = canonHeadPred
		canon := containment.Canonicalize(n)
		e.cores[i] = canon
		e.coreKeys[i] = canon.String()
		if !canon.False {
			e.coreSigs[i] = coreSig(canon)
		}
		if !seen[e.coreKeys[i]] {
			seen[e.coreKeys[i]] = true
			keySet = append(keySet, e.coreKeys[i])
		}
	}
	sort.Strings(keySet)
	e.key = strings.Join(keySet, " | ") + "\x00" + ps.String()

	if e.planErr == nil {
		e.steps = make([][]access.AdornedLiteral, len(e.exec.Rules))
		for i, rule := range e.exec.Rules {
			if rule.False {
				continue
			}
			steps, ok := access.AdornInOrder(rule.Body, ps)
			if !ok {
				// Should not happen for an executable representative;
				// degrade to a planning error rather than panic.
				e.planErr = fmt.Errorf("qcache: rule is not executable as written (%w): %s", core.ErrNotOrderable, rule)
				break
			}
			e.steps[i] = steps
		}
	}

	// The FEASIBLE verdict rides along: on a hit it answers the
	// Π₂ᴾ-complete question for free. Budgeted, because the cache must
	// never stall a request on an adversarial query.
	if res, err := core.FeasibleLimited(q, ps, c.opt.FeasibleBudget); err == nil {
		if res.Feasible {
			e.feasible = FeasibilityYes
		} else {
			e.feasible = FeasibilityNo
		}
		e.verdict = res.Verdict
	}
	return e
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
	return fmt.Sprintf("%d:%d", cat.ID(), cat.Generation())
}

// dropCatalogLocked removes every answer entry of cat, whatever its
// generation; c.mu must be held.
func (c *Cache) dropCatalogLocked(cat *sources.Catalog) {
	identity := fmt.Sprintf("%d:", cat.ID()) // catFingerprint up to the generation
	for elem := c.ansLRU.Front(); elem != nil; {
		next := elem.Next()
		if strings.HasPrefix(elem.Value.(*ansEntry).catFP, identity) {
			c.removeAnswerLocked(elem)
		}
		elem = next
	}
}

// Answers consults the answer cache for e against cat. Soundness: a
// disjunct's rows are reused only when its core is equivalent to the
// cached core (key equality ⇒ isomorphism ⇒ equivalence, or the mutual
// containment check) and the catalog fingerprint — identity plus
// generation — matches. One-way containment is never used.
//
// The lock covers the lookups only: a full hit's union is assembled
// after it is released, from frozen relations no one writes, so a large
// answer never stalls another tenant's lookup.
func (c *Cache) Answers(e *PlanEntry, cat *sources.Catalog) AnswerHit {
	n := len(e.exec.Rules)
	hit := AnswerHit{Rows: make([][]engine.Row, n), Covered: make([]bool, n)}
	if c.opt.DisableAnswers || e.planErr != nil {
		return hit
	}
	c.mu.Lock()
	// Warm-load any persisted state for this catalog's label before
	// computing the fingerprint: the restore may advance the catalog's
	// generation, and the fingerprint must reflect it.
	c.ensureRestoredLocked(cat, true)
	catFP := catFingerprint(cat)
	equivBudget := c.opt.EquivBudget
	parts := make([]*engine.Rel, 0, n) // the covered disjuncts' answers, in rule order
	full := true
	for i, rule := range e.exec.Rules {
		if rule.False {
			continue
		}
		if e.cores[i].False {
			// Statically unsatisfiable disjunct: covered with no rows on
			// any catalog.
			hit.Covered[i] = true
			hit.ReusedRules++
			continue
		}
		key := e.coreKeys[i] + "\x1f" + catFP
		var a *ansEntry
		if elem, ok := c.answers[key]; ok {
			if a = elem.Value.(*ansEntry); c.fresh(a.created) {
				c.ansLRU.MoveToFront(elem)
			} else {
				c.removeAnswerLocked(elem)
				c.stats.Evictions++
				a = nil
			}
		}
		if a == nil {
			if a = c.equivScanLocked(e.cores[i], e.coreSigs[i], catFP, &equivBudget); a == nil {
				full = false
				continue
			}
			// Alias the found entry under this core's key so the next
			// lookup is O(1).
			c.installAnswerLocked(&ansEntry{
				key: key, catFP: catFP, core: a.core, sig: a.sig,
				rel: a.rel, bytes: a.bytes, created: a.created,
			})
			hit.EquivHits++
			c.stats.EquivHits++
		}
		hit.Rows[i] = a.rel.Rows()
		hit.Covered[i] = true
		hit.ReusedRules++
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
func coreSig(c logic.CQ) string {
	var parts []string
	for _, l := range c.Body {
		pred := fmt.Sprintf("%s/%d", l.Atom.Pred, len(l.Atom.Args))
		if l.Negated {
			pred = "!" + pred
		}
		parts = append(parts, pred)
		for k, t := range l.Atom.Args {
			if !t.IsVar() {
				parts = append(parts, fmt.Sprintf("%s#%d=%s", pred, k, t))
			}
		}
	}
	sort.Strings(parts)
	var b strings.Builder
	fmt.Fprintf(&b, "%d", len(c.HeadArgs))
	for k, t := range c.HeadArgs {
		if !t.IsVar() {
			fmt.Fprintf(&b, " %d=%s", k, t)
		}
	}
	for i, p := range parts {
		if i == 0 || p != parts[i-1] {
			b.WriteString(" ")
			b.WriteString(p)
		}
	}
	return b.String()
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
// must never be cached: their rows are incomplete). It returns the
// number of entries evicted to make room.
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
	for i, rel := range rels {
		if rel == nil || i >= len(e.exec.Rules) || e.exec.Rules[i].False || e.cores[i].False {
			continue
		}
		key := e.coreKeys[i] + "\x1f" + catFP
		if _, ok := c.answers[key]; ok {
			continue // first writer wins; equal up to row order anyway
		}
		c.installAnswerLocked(&ansEntry{
			key: key, catFP: catFP, core: e.cores[i], sig: e.coreSigs[i],
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
