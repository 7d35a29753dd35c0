package ucqn

// Persistent answer-cache facade: OpenQueryCache opens a crash-safe,
// warm-restarting query cache backed by a directory; pass the result to
// Exec with WithQueryCache and close it on shutdown.

import (
	"repro/internal/qcache"
	"repro/internal/qcache/persist"
)

// PersistRecoveryStats reports what opening a persistence directory
// found on disk (records recovered, corrupt or stale records dropped,
// torn bytes truncated).
type PersistRecoveryStats = persist.RecoveryStats

// OpenQueryCache opens the persistent query cache in dir, recovering
// whatever answer entries survived there. Corrupt or torn on-disk state
// is dropped record-by-record, never an error: the only errors are real
// filesystem failures. The on-disk log has a single writer: opening a
// directory that another live cache in this or any process already owns
// is the caller's error (share the *QueryCache instead; use
// OpenFleetCache to share a directory across processes). Answers
// persist only for catalogs that carry a stable label
// (Catalog.SetPersistentID); unlabeled catalogs get plain in-memory
// caching. Call ClosePersist on the cache during graceful shutdown to
// make the final fsync batch durable.
func OpenQueryCache(dir string, opt QueryCacheOptions) (*QueryCache, error) {
	qc, _, err := qcache.OpenPersistent(dir, opt, persist.Options{})
	return qc, err
}
