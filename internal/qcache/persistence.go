package qcache

// Persistence glue: attaching a crash-safe persist.Log to the answer
// cache (Tier 2) so restarts come up warm.
//
// On-disk entries are keyed by (catalog label, generation, core key).
// The label is the catalog's operator-chosen PersistentID — the
// process-local Catalog.ID() does not survive restarts — so only
// labeled catalogs persist. At the first lookup or store against a
// labeled catalog the cache lazily "restores" its label: it advances
// the live catalog's generation to the persisted one and installs the
// recovered entries under the live fingerprint, subject to the same
// LRU/byte/TTL bounds as freshly computed answers. Every recovered
// record is re-validated (core JSON parses, canonical key matches,
// arities agree); anything that fails is dropped and counted in
// Stats.PersistDrops, never served.
//
// Invalidation must go through InvalidateCatalog when persistence is
// on: it restores first (so the bump lands above the persisted
// generation), bumps the catalog, and appends a tombstone — a restart
// can then never resurrect the invalidated answers — and drops the
// catalog's in-memory entries on the spot. A raw Catalog.Invalidate
// still protects the running process (the fingerprint changes; the
// orphaned entries wait for LRU pressure), and the next StoreAnswers
// implicitly supersedes the persisted state via its higher generation;
// only a crash in between would restore pre-invalidation answers.

import (
	"encoding/json"
	"time"

	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/qcache/persist"
	"repro/internal/sources"
)

// OpenPersistent builds a Cache backed by the persistence directory:
// it recovers whatever survived under dir (tolerating torn tails,
// truncation, bit-flips, and missing files) and opens the log for
// appending. The only errors are real filesystem failures; corrupt
// content yields a cold cache, not a dead process.
func OpenPersistent(dir string, opt Options, popt persist.Options) (*Cache, persist.RecoveryStats, error) {
	c := New(opt)
	if popt.Now == nil {
		popt.Now = c.opt.Now
	}
	lg, rs, err := persist.Open(dir, popt)
	if err != nil {
		return nil, rs, err
	}
	c.AttachPersist(lg, rs)
	return c, rs, nil
}

// AttachPersist wires an opened log into the cache and folds its
// recovery accounting into the cache stats. Entries are installed
// lazily, per catalog label, at the first Answers/StoreAnswers against
// a catalog with that PersistentID.
func (c *Cache) AttachPersist(lg *persist.Log, rs persist.RecoveryStats) {
	c.AttachStore(lg, rs)
}

// AttachStore wires any persistence backend (a private Log or a fleet
// node) into the cache; see AttachPersist. On a backend whose Version
// advances (fleet), labels re-restore whenever the shared state moved
// behind this cache's back.
func (c *Cache) AttachStore(st persist.Store, rs persist.RecoveryStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.persist = st
	c.restored = map[string]uint64{}
	c.stats.PersistDrops += rs.CorruptDrops + rs.StaleDrops
}

// Persist returns the attached persistence backend (nil when the
// cache is memory only) — for stats, explicit Sync, and tests.
func (c *Cache) Persist() persist.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.persist
}

// ClosePersist flushes and closes the attached log (no-op when memory
// only). Graceful shutdown should call it so the last fsync batch is
// durable.
func (c *Cache) ClosePersist() error {
	c.mu.Lock()
	lg := c.persist
	c.mu.Unlock()
	if lg == nil {
		return nil
	}
	return lg.Close()
}

// InvalidateCatalog invalidates cat the persistence-aware way: restore
// first (so the new generation lands above everything persisted), bump
// the catalog, then append a tombstone pinning the bumped generation.
// After a restart the tombstone guarantees every answer stored below it
// stays dead. Without an attached log (or an unlabeled catalog) only the
// catalog is bumped.
//
// It also frees the catalog's cached answers at once: generations only
// grow, so nothing stored under an earlier one can be served again, and
// left in place the entries would hold their rows and count against the
// byte bound until LRU pressure reached them. They are not counted in
// Stats.Evictions (capacity, bytes, TTL). A raw Catalog.Invalidate
// cannot reach the cache and keeps that lazy behaviour.
func (c *Cache) InvalidateCatalog(cat *sources.Catalog) {
	c.mu.Lock()
	c.ensureRestoredLocked(cat, false)
	cat.Invalidate()
	c.dropCatalogLocked(cat)
	lg := c.persist
	var label string
	if lg != nil {
		label = cat.PersistentID()
	}
	gen := cat.Generation()
	c.mu.Unlock()
	if lg != nil && label != "" {
		_ = lg.AppendTombstone(label, gen)
	}
}

// ensureRestoredLocked warm-loads the persisted state for cat's label:
// advance the catalog's generation to the persisted one, then (when
// install is set) install the recovered entries under the live
// fingerprint. c.mu must be held. The install flag lets the
// invalidation path sync generations without paying to install entries
// it is about to orphan. With a private Log the load happens once per
// label (Version is constantly 0); with a fleet store it repeats each
// time the store version moved — a follower refresh or a fleet-wide
// invalidation changed the state behind this cache's back.
func (c *Cache) ensureRestoredLocked(cat *sources.Catalog, install bool) {
	if c.persist == nil {
		return
	}
	label := cat.PersistentID()
	if label == "" {
		return
	}
	ver := c.persist.Version() + 1 // +1 so the map's zero value means "never"
	if c.restored[label] == ver {
		return
	}
	c.restored[label] = ver
	gen, entries := c.persist.Label(label)
	if gen == 0 && len(entries) == 0 {
		return
	}
	cat.AdvanceGeneration(gen)
	if !install || c.opt.DisableAnswers {
		return
	}
	if cat.Generation() != gen {
		// The live catalog was already past the persisted generation
		// (invalidated in this process before its first persistent use):
		// everything on disk is stale.
		c.stats.PersistDrops += len(entries)
		return
	}
	catFP := catFingerprint(cat)
	for _, pe := range entries {
		a, ok := c.restoreEntry(pe, catFP)
		if !ok {
			c.stats.PersistDrops++
			continue
		}
		if a == nil {
			continue // TTL-expired, not corrupt
		}
		if _, dup := c.answers[a.key]; dup {
			continue
		}
		c.installAnswerLocked(a)
		c.stats.PersistLoads++
		c.stats.PersistBytes += a.bytes
	}
}

// restoreEntry re-validates one recovered record and converts it into
// an in-memory answer entry. ok=false means the record is structurally
// untrustworthy (drop and count); a nil entry with ok=true means it is
// merely TTL-expired.
func (c *Cache) restoreEntry(pe persist.Entry, catFP string) (*ansEntry, bool) {
	var cq logic.CQ
	if err := json.Unmarshal(pe.Core, &cq); err != nil {
		return nil, false
	}
	// The stored canonical key must match the stored core: a mismatch
	// means the canonicalization (or the bytes) drifted, and serving the
	// rows under this key could alias a different query.
	if cq.String() != pe.CoreKey || len(cq.HeadArgs) != pe.Arity {
		return nil, false
	}
	created := time.Unix(0, pe.Created)
	if !c.fresh(created) {
		return nil, true
	}
	rows := make([]engine.Row, 0, len(pe.Rows))
	for _, pr := range pe.Rows {
		if len(pr) != pe.Arity {
			return nil, false
		}
		row := make(engine.Row, len(pr))
		for j, v := range pr {
			if v.Null {
				row[j] = engine.NullValue
			} else {
				row[j] = engine.Value{S: v.S}
			}
		}
		rows = append(rows, row)
	}
	// A record is one stored answer's rows, distinct when written; the
	// log's checksum vouches they are the rows that were written.
	return &ansEntry{
		key: pe.CoreKey + "\x1f" + catFP, catFP: catFP, core: cq,
		sig: coreSig(cq), rel: engine.Frozen(rows), bytes: rowBytes(rows), created: created,
	}, true
}

// persistEntry renders one freshly stored answer as an on-disk record.
// ok=false when the core does not serialize (nothing is persisted; the
// in-memory entry is unaffected).
func persistEntry(label string, gen int64, now time.Time, coreKey string, core logic.CQ, rows []engine.Row) (persist.Entry, bool) {
	coreJSON, err := json.Marshal(core)
	if err != nil {
		return persist.Entry{}, false
	}
	prows := make([][]persist.Value, len(rows))
	for i, row := range rows {
		pr := make([]persist.Value, len(row))
		for j, v := range row {
			if v.Null {
				pr[j] = persist.Value{Null: true}
			} else {
				pr[j] = persist.Value{S: v.S}
			}
		}
		prows[i] = pr
	}
	return persist.Entry{
		Label: label, Gen: gen, Created: now.UnixNano(),
		CoreKey: coreKey, Core: coreJSON,
		Arity: len(core.HeadArgs), Rows: prows,
	}, true
}
