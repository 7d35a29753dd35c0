package ucqn

// Fleet facade: OpenFleetCache opens a query cache that shares its
// persistence directory with other processes — a cache fleet; pass the
// result to Exec with WithQueryCache. One replica at a time (elected
// via the TTL'd writer lease) owns the append log; the rest follow the
// published state and warm-start from answers any sibling paid for.
// Storage or peer trouble degrades a replica to its local in-memory
// cache, never a failed query; invalidations fan out fleet-wide within
// one poll interval. The mechanics live in internal/qcache/fleet.

import (
	"fmt"
	"os"

	"repro/internal/qcache"
	"repro/internal/qcache/fleet"
)

// FleetOptions configures this process's fleet replica (lease TTL,
// poll interval, replica ID). See the field docs in
// internal/qcache/fleet.Options.
type FleetOptions = fleet.Options

// FleetStats is a fleet replica's health snapshot: role, lease age,
// staleness bound, takeover and fence counters.
type FleetStats = fleet.Stats

// FleetNode is this process's handle on the shared cache directory.
type FleetNode = fleet.Node

// defaultFleetID names this process in a fleet when the caller did
// not: hostname plus pid is unique across a fleet of machines and
// across restarts on one machine (a stale inbox file from a previous
// pid is still read by everyone — at-least-once holds either way).
func defaultFleetID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "ucqn"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// OpenFleetCache opens a query cache on the shared dir, joining the
// fleet and starting the background poll/renewal ticker: answers
// computed by any replica of the fleet warm this process's cache, and
// this process's answers (while it holds the writer lease) warm
// everyone else's. Open a directory once per process and share the
// cache. An empty fopt.ID defaults to hostname-pid. Catalogs must carry
// a stable label (Catalog.SetPersistentID) for their answers to travel;
// unlabeled catalogs get plain in-memory caching. Call ClosePersist on
// the cache during graceful shutdown: it releases the lease (when this
// replica is the writer) and makes the final fsync batch durable.
func OpenFleetCache(dir string, opt QueryCacheOptions, fopt FleetOptions) (*QueryCache, *FleetNode, error) {
	if fopt.ID == "" {
		fopt.ID = defaultFleetID()
	}
	fopt.Background = true
	return qcache.OpenFleet(dir, opt, fopt)
}
