package ucqn

// Crash-recovery through the full Exec path: a cached workload runs
// over a persistence log doomed to die mid-write (FaultFS crash at a
// random byte offset, short writes, sync failures, disk-full), the
// process "restarts" by reopening the directory with a fresh cache and
// a fresh catalog under the same persistent label, and every answer
// after recovery must be byte-identical to a live evaluation. Torn
// tails and flipped bits may cost cache entries — never correctness,
// and never a failed startup.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/qcache"
	"repro/internal/qcache/persist"
)

// persistWorkload is a small fixture mix exercising scans, a bound
// join, negation, and a union — every answer-cache shape that spills.
func persistWorkload(t *testing.T) (*Instance, *PatternSet, []Query) {
	t.Helper()
	ps := MustParsePatterns(`R^oo S^io L^o`)
	in := NewInstance()
	for k := 0; k < 6; k++ {
		a, b := fmt.Sprintf("a%d", k), fmt.Sprintf("b%d", k%3)
		in.MustAdd("R", a, b)
		in.MustAdd("S", b, fmt.Sprintf("c%d", k%3))
	}
	in.MustAdd("L", "a0")
	in.MustAdd("L", "a3")
	queries := []Query{
		MustParseQuery(`Q(x, y) :- R(x, y).`),
		MustParseQuery(`Q(x, y) :- R(x, z), S(z, y).`),
		MustParseQuery(`Q(x, y) :- R(x, y), not L(x).`),
		MustParseQuery(`Q(x, y) :- R(x, y). Q(x, y) :- R(x, z), S(z, y).`),
	}
	return in, ps, queries
}

// persistGroundTruth evaluates every workload query without a cache.
func persistGroundTruth(t *testing.T, in *Instance, ps *PatternSet, queries []Query) []*Rel {
	t.Helper()
	want := make([]*Rel, len(queries))
	for i, q := range queries {
		res, err := Exec(context.Background(), q, ps, in.MustCatalog(ps))
		if err != nil {
			t.Fatalf("ground truth q%d: %v", i, err)
		}
		rel, err := res.Rel()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rel
	}
	return want
}

// execThrough runs one query through qc over cat and returns the rows.
func execThrough(t *testing.T, qc *QueryCache, q Query, ps *PatternSet, cat *Catalog) *Rel {
	t.Helper()
	res, err := Exec(context.Background(), q, ps, cat, WithQueryCache(qc))
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	rel, err := res.Rel()
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// A clean shutdown and restart over the same directory serves the whole
// workload from the log: the restarted cache's fresh catalog sees no
// source call, and every answer is byte-identical to a live evaluation.
func TestPersistWarmRestartMakesNoSourceCalls(t *testing.T) {
	in, ps, queries := persistWorkload(t)
	want := persistGroundTruth(t, in, ps, queries)
	dir := t.TempDir()
	qc, _, err := qcache.OpenPersistent(dir, qcache.Options{}, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat := in.MustCatalog(ps)
	cat.SetPersistentID("warm-restart")
	for _, q := range queries {
		execThrough(t, qc, q, ps, cat)
	}
	if err := qc.ClosePersist(); err != nil {
		t.Fatal(err)
	}

	qc2, _, err := qcache.OpenPersistent(dir, qcache.Options{}, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer qc2.ClosePersist()
	cat2 := in.MustCatalog(ps)
	cat2.SetPersistentID("warm-restart")
	for i, q := range queries {
		assertSameRows(t, fmt.Sprintf("q%d after the restart", i), execThrough(t, qc2, q, ps, cat2), want[i])
	}
	if n := cat2.TotalStats().Calls; n != 0 {
		t.Errorf("the warm restart made %d source calls, want 0", n)
	}
	if qc2.Stats().PersistLoads == 0 {
		t.Error("the warm restart loaded nothing from the log")
	}
}

// A dismissed rule's rows survive a restart like any other answer:
// Example 4's union stores the rows of its overestimate rule
// Q(x, null) :- R(x, z), not S(z) under that rule's null-headed
// canonical form, and after a
// restart the repeat makes no source call and reports as the live run
// did. InvalidateCatalog then costs the query its calls again.
func TestPersistAccessLimitedAnswers(t *testing.T) {
	q, ps, in := starFixture(t)
	dir := t.TempDir()
	run := func(qc *QueryCache, cat *Catalog) (string, int) {
		t.Helper()
		before := cat.TotalStats().Calls
		res, err := Exec(context.Background(), q, ps, cat, WithQueryCache(qc))
		if err != nil {
			t.Fatal(err)
		}
		rep, _ := res.Report()
		return rep.String(), cat.TotalStats().Calls - before
	}
	qc, _, err := qcache.OpenPersistent(dir, qcache.Options{}, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat := in.MustCatalog(ps)
	cat.SetPersistentID("example-4")
	want, calls := run(qc, cat)
	if calls != 3 {
		t.Fatalf("the first run made %d source calls, want 3", calls)
	}
	if err := qc.ClosePersist(); err != nil {
		t.Fatal(err)
	}

	qc2, _, err := qcache.OpenPersistent(dir, qcache.Options{}, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer qc2.ClosePersist()
	nullHeads := 0
	_, entries := qc2.Persist().Label("example-4")
	for _, pe := range entries {
		var core Rule
		if err := json.Unmarshal(pe.Core, &core); err != nil {
			t.Fatal(err)
		}
		if core.HasNullHead() {
			nullHeads++
		}
	}
	if nullHeads != 1 {
		t.Fatalf("%d persisted entries with a null head, want the overestimate rule's", nullHeads)
	}
	cat2 := in.MustCatalog(ps)
	cat2.SetPersistentID("example-4")
	if got, calls := run(qc2, cat2); calls != 0 || got != want {
		t.Errorf("after the restart: %d source calls, report\n%s\nwant none and\n%s", calls, got, want)
	}
	if n := qc2.Stats().PersistLoads; n != 2 {
		t.Errorf("%d entries loaded from the log, want both rules'", n)
	}
	qc2.InvalidateCatalog(cat2)
	if got, calls := run(qc2, cat2); calls != 3 || got != want {
		t.Errorf("after InvalidateCatalog: %d source calls, report\n%s\nwant 3 and\n%s", calls, got, want)
	}
}

// TestPersistCrashRecoveryExec is the end-to-end crash property test:
// populate through Exec over a doomed filesystem, kill the log at a
// random offset (optionally flipping bits in whatever survived),
// restart with a fresh cache and catalog, and require recovery to
// succeed with every post-restart answer byte-identical to the live
// evaluation.
func TestPersistCrashRecoveryExec(t *testing.T) {
	in, ps, queries := persistWorkload(t)
	want := persistGroundTruth(t, in, ps, queries)

	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()

			// Phase 1: populate through Exec over a filesystem that dies
			// mid-write. Writes are best-effort, so the workload itself
			// must stay correct even after the crash offset.
			ffs := &persist.FaultFS{
				Inner:       persist.OSFS{},
				CrashAtByte: int64(60 + rng.Intn(3000)),
			}
			qc, _, err := qcache.OpenPersistent(dir, qcache.Options{}, persist.Options{
				FS:        ffs,
				SyncEvery: 1 + rng.Intn(4),
			})
			if err != nil {
				t.Fatalf("open doomed cache: %v", err)
			}
			cat := in.MustCatalog(ps)
			cat.SetPersistentID("crash-prop")
			for round := 0; round < 3; round++ {
				for i, q := range queries {
					if got := execThrough(t, qc, q, ps, cat); !got.Equal(want[i]) {
						t.Fatalf("pre-crash round %d q%d: got %s, want %s", round, i, got, want[i])
					}
				}
			}
			if err := qc.ClosePersist(); err != nil && !ffs.Crashed() {
				t.Fatalf("close without crash: %v", err)
			}
			if n := ffs.OpenHandles(); n != 0 {
				t.Errorf("fd leak: %d handles open after close", n)
			}

			// Half the seeds additionally corrupt whatever the crash left
			// behind: flip 1–3 random bits across the surviving files.
			if seed%2 == 0 {
				for _, name := range []string{"answers.log", "answers.snap"} {
					path := filepath.Join(dir, name)
					data, err := os.ReadFile(path)
					if err != nil || len(data) == 0 {
						continue
					}
					for f := 0; f < 1+rng.Intn(3); f++ {
						pos := rng.Intn(len(data))
						data[pos] ^= 1 << uint(rng.Intn(8))
					}
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Phase 2: restart. Recovery must never fail, and answers —
			// whether served from restored entries or re-evaluated live —
			// must be byte-identical to ground truth.
			qc2, rs, err := qcache.OpenPersistent(dir, qcache.Options{}, persist.Options{})
			if err != nil {
				t.Fatalf("recovery must never fail: %v", err)
			}
			cat2 := in.MustCatalog(ps)
			cat2.SetPersistentID("crash-prop")
			for i, q := range queries {
				got := execThrough(t, qc2, q, ps, cat2)
				if !got.Equal(want[i]) {
					t.Fatalf("post-restart q%d: got %s, want %s", i, got, want[i])
				}
				gotRows, wantRows := got.Rows(), want[i].Rows()
				for j := range wantRows {
					if gotRows[j].Key() != wantRows[j].Key() {
						t.Fatalf("post-restart q%d row %d: %s != %s", i, j, gotRows[j], wantRows[j])
					}
				}
			}
			st := qc2.Stats()
			t.Logf("crash at %d: recovered %d entries (%d bytes), dropped %d (log: %d records, %d corrupt, %d truncated bytes)",
				ffs.CrashAtByte, st.PersistLoads, st.PersistBytes, st.PersistDrops,
				rs.LogRecords, rs.CorruptDrops, rs.TruncatedBytes)
			if err := qc2.ClosePersist(); err != nil {
				t.Fatalf("close recovered cache: %v", err)
			}
		})
	}
}

// TestChaosPersistCrashReopenCycles hammers one directory with
// repeated crash/reopen cycles mid-workload under rotating fault
// regimes (crash offsets, short writes, failing fsync, disk-full) with
// invalidations mixed in. Every cycle must open, serve only correct
// answers, and close without leaking goroutines or file handles.
func TestChaosPersistCrashReopenCycles(t *testing.T) {
	before := runtime.NumGoroutine()
	in, ps, queries := persistWorkload(t)
	want := persistGroundTruth(t, in, ps, queries)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))

	for cycle := 0; cycle < 8; cycle++ {
		ffs := &persist.FaultFS{Inner: persist.OSFS{}}
		switch cycle % 4 {
		case 0:
			ffs.CrashAtByte = int64(40 + rng.Intn(2000))
		case 1:
			ffs.ShortWriteEveryN = 2 + rng.Intn(3)
		case 2:
			ffs.FailSyncEveryN = 1 + rng.Intn(2)
		case 3:
			ffs.MaxBytes = int64(200 + rng.Intn(2000))
		}
		qc, rs, err := qcache.OpenPersistent(dir, qcache.Options{}, persist.Options{
			FS:           ffs,
			SyncEvery:    1 + rng.Intn(3),
			CompactBytes: int64(512 * (1 + rng.Intn(4))),
		})
		if err != nil {
			t.Fatalf("cycle %d: open: %v", cycle, err)
		}
		cat := in.MustCatalog(ps)
		cat.SetPersistentID("chaos-cycles")

		// A shuffled, repeated mix: hits, misses, and mid-cycle
		// invalidation; every answer must equal the ground truth (the
		// data never changes, so any drift is a resurrection or
		// corruption bug).
		for step := 0; step < 12; step++ {
			i := rng.Intn(len(queries))
			if got := execThrough(t, qc, queries[i], ps, cat); !got.Equal(want[i]) {
				t.Fatalf("cycle %d step %d q%d: got %s, want %s", cycle, step, i, got, want[i])
			}
			if step == 6 {
				qc.InvalidateCatalog(cat)
			}
		}
		if err := qc.ClosePersist(); err != nil && !ffs.Crashed() && ffs.ShortWriteEveryN == 0 &&
			ffs.FailSyncEveryN == 0 && ffs.MaxBytes == 0 {
			t.Fatalf("cycle %d: clean close failed: %v", cycle, err)
		}
		if n := ffs.OpenHandles(); n != 0 {
			t.Errorf("cycle %d: fd leak: %d handles open after close", cycle, n)
		}
		t.Logf("cycle %d: recovered %d, corrupt %d, stale %d, truncated %d bytes",
			cycle, rs.Entries, rs.CorruptDrops, rs.StaleDrops, rs.TruncatedBytes)
	}

	// Settle, then compare against the goroutine baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 || time.Now().After(deadline) {
			if n > before+2 {
				t.Errorf("goroutines leaked: %d before, %d after", before, n)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
