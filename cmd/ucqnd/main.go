// Command ucqnd serves UCQ¬ queries over limited-access sources to
// multiple tenants. Each tenant gets its own catalog and per-request
// call quota; all tenants share one plan/answer cache keyed by catalog
// identity and generation, so identical query texts never alias across
// tenants. Under overload the server does not 503: requests past the
// admission queue run with a zero call budget and return the certified
// underestimate (cache-covered disjuncts still answer; the rest are
// reported budget-exhausted in the Incompleteness field and the
// X-UCQN-Incompleteness header).
//
//	$ ucqnd -addr :8099 -tenants 3 -quota 50
//	$ curl -s localhost:8099/v1/query -d '{"tenant":"tenant-0","query":"Q(x, y) :- R(x, y)."}'
//
// With -catalog, tenants are mounted from an external-source catalog
// config instead of (or in addition to) the built-in fixtures: each
// configured tenant's relations live behind SQL or HTTP adapters
// (sql://, http://, https:// backends) and batched pushdown applies
// automatically where the backend supports it.
//
// Endpoints: POST /v1/query, POST /v1/invalidate, GET /v1/stats,
// GET /v1/healthz.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	ucqn "repro"
	// Registers the in-repo "fakedb" database/sql driver so catalog
	// configs with sql://fakedb/... backends work out of the box (real
	// deployments link their own driver the same way).
	_ "repro/internal/adapter/fakedb"
	"repro/internal/server"
)

// Connection timeouts: a client that dribbles its headers or body, or
// parks an idle keep-alive connection, must not pin a goroutine and a
// file descriptor forever. Query execution time is bounded by the
// admission queue and quotas, not here, so there is no write timeout.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":8099", "listen address")
	tenants := flag.Int("tenants", 3, "number of fixture tenants to serve")
	concurrency := flag.Int("concurrency", 0, "max concurrent query executions (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth before shedding (0 = 4x concurrency)")
	queueWait := flag.Duration("queue-wait", 0, "max time a request waits for a slot (0 = 25ms)")
	quota := flag.Int("quota", 0, "per-request source-call quota per tenant (0 = unlimited)")
	delay := flag.Duration("delay", 0, "artificial per-call source latency (provokes shedding under load)")
	persist := flag.String("persist", "", "directory for the crash-safe answer-cache log (empty = memory only); restarts warm-load surviving entries")
	fleetDir := flag.String("fleet-dir", "", "shared answer-cache directory joining this replica to a cache fleet (mutually exclusive with -persist); siblings warm-start from answers this replica pays for and vice versa")
	fleetID := flag.String("fleet-id", "", "stable unique replica name within the fleet (default hostname-pid)")
	fleetTTL := flag.Duration("fleet-ttl", 0, "fleet writer-lease TTL (0 = 10s); a crashed writer is replaced within it")
	fleetPoll := flag.Duration("fleet-poll", 0, "fleet poll/renewal interval and staleness bound (0 = TTL/5)")
	catalog := flag.String("catalog", "", "external-source catalog config file (JSON); its tenants are mounted behind SQL/HTTP adapters")
	flag.Parse()

	if *fleetDir != "" && *fleetID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "ucqnd"
		}
		*fleetID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	s, err := server.Open(server.Config{
		MaxConcurrent: *concurrency,
		MaxQueue:      *queue,
		QueueWait:     *queueWait,
		DefaultQuota:  ucqn.Budget{MaxCalls: *quota},
		PersistDir:    *persist,
		FleetDir:      *fleetDir,
		FleetID:       *fleetID,
		FleetTTL:      *fleetTTL,
		FleetPoll:     *fleetPoll,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucqnd: %v\n", err)
		os.Exit(1)
	}
	if *catalog != "" {
		cfg, err := ucqn.LoadCatalogConfig(*catalog)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ucqnd: %v\n", err)
			os.Exit(1)
		}
		if err := server.MountCatalogConfig(s, cfg, ucqn.Budget{}); err != nil {
			fmt.Fprintf(os.Stderr, "ucqnd: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ucqnd: mounted %d external-source tenants from %s\n", len(cfg.Tenants), *catalog)
	}
	for _, f := range server.PaperTenants(*tenants) {
		cat := f.Catalog()
		if *delay > 0 {
			var err error
			cat, err = ucqn.DelayedCatalog(cat, *delay)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ucqnd: %v\n", err)
				os.Exit(1)
			}
		}
		if _, err := s.AddTenant(f.Name, f.Patterns, cat, ucqn.Budget{}); err != nil {
			fmt.Fprintf(os.Stderr, "ucqnd: %v\n", err)
			os.Exit(1)
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ucqnd: serving %d tenants on %s\n", *tenants, *addr)
	if n := s.Fleet(); n != nil {
		fmt.Fprintf(os.Stderr, "ucqnd: fleet replica %s joined %s as %s\n", *fleetID, *fleetDir, n.Role())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "ucqnd: %v\n", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "ucqnd: %s, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "ucqnd: shutdown: %v\n", err)
			os.Exit(1)
		}
		// Flush the persistence log after draining requests: everything
		// cached since the last fsync batch becomes durable for the next
		// start.
		if err := s.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ucqnd: close persistence: %v\n", err)
			os.Exit(1)
		}
	}
}
