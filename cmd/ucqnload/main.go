// Command ucqnload drives closed-loop load against a ucqnd server and
// prints a summary: p50/p99/QPS, shed/degraded counts, and a soundness
// verdict (every answer row checked against the fixture's naive ground
// truth).
//
// Point it at a running daemon:
//
//	$ ucqnload -addr http://127.0.0.1:8099 -users 16 -duration 10s
//
// or let it boot an in-process server over a real TCP listener for a
// self-contained smoke run (what `make serve-smoke` does):
//
//	$ ucqnload -boot -users 8 -duration 3s
//
// It writes no file. An unsound response, a transport error, a stale
// generation, zero completed requests or a dirty shutdown exits
// non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	ucqn "repro"
	"repro/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ucqnload: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "http://127.0.0.1:8099", "base URL of a running ucqnd")
	boot := flag.Bool("boot", false, "boot an in-process server on a loopback port instead of dialing -addr")
	tenants := flag.Int("tenants", 3, "number of fixture tenants (must match the server's)")
	users := flag.Int("users", 8, "closed-loop client goroutines")
	duration := flag.Duration("duration", 3*time.Second, "load duration")
	seed := flag.Int64("seed", 1, "query-mix seed")
	zipfS := flag.Float64("zipf", 1.2, "Zipf skew of the query mix (>1)")
	concurrency := flag.Int("concurrency", 0, "boot mode: max concurrent executions (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "boot mode: admission queue depth (0 = 4x concurrency)")
	queueWait := flag.Duration("queue-wait", 0, "boot mode: max slot wait (0 = 25ms)")
	quota := flag.Int("quota", 0, "boot mode: per-request call quota (0 = unlimited)")
	delay := flag.Duration("delay", 0, "boot mode: artificial per-call source latency")
	persist := flag.String("persist", "", "boot mode: crash-safe answer-cache directory (empty = memory only)")
	invalRate := flag.Float64("invalidate-rate", 0, "mid-run /v1/invalidate calls per second against random tenants (0 = off); the run fails if any post-invalidation response carries a pre-invalidation generation")
	flag.Parse()

	fixtures := server.PaperTenants(*tenants)
	base := *addr
	var httpSrv *http.Server
	var booted *server.Server
	if *boot {
		s, err := server.Open(server.Config{
			MaxConcurrent: *concurrency,
			MaxQueue:      *queue,
			QueueWait:     *queueWait,
			DefaultQuota:  ucqn.Budget{MaxCalls: *quota},
			PersistDir:    *persist,
		})
		if err != nil {
			return err
		}
		booted = s
		for _, f := range fixtures {
			cat := f.Catalog()
			if *delay > 0 {
				var err error
				cat, err = ucqn.DelayedCatalog(cat, *delay)
				if err != nil {
					return err
				}
			}
			if _, err := s.AddTenant(f.Name, f.Patterns, cat, ucqn.Budget{}); err != nil {
				return err
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv = &http.Server{Handler: s.Handler()}
		go httpSrv.Serve(ln)
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "ucqnload: booted in-process server at %s\n", base)
	}

	var invalEvery time.Duration
	if *invalRate > 0 {
		invalEvery = time.Duration(float64(time.Second) / *invalRate)
	}
	report, loadErr := runLoad(context.Background(), base, fixtures, loadConfig{
		Users: *users, Duration: *duration, Seed: *seed, ZipfS: *zipfS,
		InvalidateEvery: invalEvery,
	})

	// Shut the booted server down before judging the run: a dirty
	// shutdown fails the smoke even when the load itself was clean.
	if httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := booted.Close(); err != nil {
			return fmt.Errorf("close persistence: %w", err)
		}
		fmt.Fprintln(os.Stderr, "ucqnload: server shut down cleanly")
	}
	if loadErr != nil {
		return loadErr
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", data)

	if report.Requests == 0 {
		return fmt.Errorf("no requests completed")
	}
	if !report.Sound {
		return fmt.Errorf("unsound responses: %v", report.Unsound)
	}
	if report.Errors > 0 {
		return fmt.Errorf("%d transport errors", report.Errors)
	}
	if report.Stale > 0 {
		return fmt.Errorf("%d stale responses observed after invalidation acks", report.Stale)
	}
	return nil
}
