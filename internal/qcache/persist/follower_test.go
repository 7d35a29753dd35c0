package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFollowerLoadStateMirrorsTheLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SyncEvery: 1, CompactBytes: -1})
	defer l.Close()
	want := []Entry{
		entry("t", 0, "k1", row("a")),
		entry("t", 0, "k2", row("b", "c")),
	}
	for _, e := range want {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendTombstone("gone", 7); err != nil {
		t.Fatal(err)
	}

	st, err := LoadState(nil, dir)
	if err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if st.Seq%2 != 0 {
		t.Fatalf("Seq = %d, want even", st.Seq)
	}
	gen, got := st.Label("t")
	if gen != 0 {
		t.Fatalf("gen = %d", gen)
	}
	sortEntries(got)
	sortEntries(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("follower state differs:\n got %+v\nwant %+v", got, want)
	}
	if st.Gen("gone") != 7 {
		t.Fatalf("tombstoned gen = %d, want 7", st.Gen("gone"))
	}
	labels := st.Labels()
	if len(labels) != 2 {
		t.Fatalf("labels = %v", labels)
	}

	// After the writer compacts, a fresh load sees the same state under
	// a higher even sequence.
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	st2, err := LoadState(nil, dir)
	if err != nil {
		t.Fatalf("post-compaction LoadState: %v", err)
	}
	if st2.Seq <= st.Seq || st2.Seq%2 != 0 {
		t.Fatalf("Seq after compaction = %d (was %d), want higher even", st2.Seq, st.Seq)
	}
	_, got2 := st2.Label("t")
	sortEntries(got2)
	if !reflect.DeepEqual(got2, want) {
		t.Fatalf("compacted follower state differs: %+v", got2)
	}
}

func TestFollowerRejectsOddSeq(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SyncEvery: 1})
	l.Append(entry("t", 0, "k", row("v")))
	l.Close()
	// An odd sequence on disk means a compaction is (or died) in
	// flight: the pair may be mid-rewrite, so the load must bail.
	if err := os.WriteFile(filepath.Join(dir, verFile), []byte("3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadState(nil, dir); err != ErrConcurrentCompaction {
		t.Fatalf("odd seq load = %v, want ErrConcurrentCompaction", err)
	}
	// The owner's Open repairs the odd marker (crashed compaction) and
	// followers can read again.
	l2, _ := mustOpen(t, dir, Options{})
	defer l2.Close()
	if _, err := LoadState(nil, dir); err != nil {
		t.Fatalf("load after repair: %v", err)
	}
}

// The deterministic interleaving: a follower that read the snapshot
// stalls before reading the log; the writer compacts in that window.
// The seqlock close must reject the mixed-epoch read.
func TestFollowerLoadRacingCompactionIsRejected(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	l, _ := mustOpen(t, dir, Options{SyncEvery: 1, CompactBytes: -1})
	defer l.Close()
	for i := 0; i < 8; i++ {
		if err := l.Append(entry("t", 0, fmt.Sprintf("k%d", i), row("v"))); err != nil {
			t.Fatal(err)
		}
	}

	var once sync.Once
	ffs.OnReadFile = func(path string) {
		if filepath.Base(path) != logFile {
			return
		}
		once.Do(func() {
			if err := l.Compact(); err != nil {
				t.Errorf("in-window Compact: %v", err)
			}
		})
	}
	if _, err := LoadState(ffs, dir); err != ErrConcurrentCompaction {
		t.Fatalf("racing load = %v, want ErrConcurrentCompaction", err)
	}
	// The retry (no compaction in the window this time) sees the full
	// compacted state.
	ffs.OnReadFile = nil
	st, err := LoadState(ffs, dir)
	if err != nil {
		t.Fatalf("retry load: %v", err)
	}
	if st.Stats.Entries != 8 {
		t.Fatalf("retry entries = %d, want 8", st.Stats.Entries)
	}
}

// The property form of the race: a writer appends and compacts under
// real concurrency while followers load continuously. Every
// successful load must be internally consistent (adjacent keys within
// one write round of each other) and follower reads must be monotonic
// — a later successful load never observes earlier values.
func TestFollowerReadsAreMonotonicUnderCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SyncEvery: 1, CompactBytes: -1})

	var stop atomic.Bool
	var writerErr atomic.Value
	// loaded counts the follower's successful loads. The writer compacts
	// again only after one more of them, so an unthrottled writer cannot
	// reject every load of the loop.
	var loaded atomic.Int64
	done := make(chan struct{})
	first := make(chan struct{}) // closed once round 1 is on disk
	go func() {
		defer close(done)
		compactedAt := int64(-1)
		for i := 1; !stop.Load(); i++ {
			v := fmt.Sprintf("%08d", i)
			if err := l.Append(entry("t", 0, "hot", row(v))); err != nil {
				writerErr.Store(err)
				return
			}
			if err := l.Append(entry("t", 0, "ctr", row(v))); err != nil {
				writerErr.Store(err)
				return
			}
			if i == 1 {
				close(first)
			}
			if n := loaded.Load(); i%7 == 0 && n > compactedAt {
				if err := l.Compact(); err != nil {
					writerErr.Store(err)
					return
				}
				compactedAt = n
			}
		}
	}()

	parse := func(es []Entry, key string) int {
		for _, e := range es {
			if e.CoreKey == key {
				n := 0
				fmt.Sscanf(e.Rows[0][0].S, "%d", &n)
				return n
			}
		}
		return 0
	}
	// Reading before the writer's first round could end the loop having
	// seen nothing at all.
	select {
	case <-first:
	case <-done:
	}
	// A reject during a compaction is only a seq read, so 400 of them can
	// pass within one fsync: keep loading past 400 until one succeeds.
	deadline := time.Now().Add(10 * time.Second)
	lastHot, successes, rejects := 0, 0, 0
	for i := 0; (i < 400 || successes == 0) && time.Now().Before(deadline); i++ {
		st, err := LoadState(nil, dir)
		if err == ErrConcurrentCompaction {
			rejects++
			continue
		}
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		successes++
		loaded.Add(1)
		_, es := st.Label("t")
		hot, ctr := parse(es, "hot"), parse(es, "ctr")
		// Within one epoch the two keys were written back to back:
		// they can differ by at most the in-flight round.
		if d := hot - ctr; d < 0 || d > 1 {
			t.Fatalf("mixed-epoch state: hot=%d ctr=%d", hot, ctr)
		}
		if hot < lastHot {
			t.Fatalf("follower went back in time: %d after %d", hot, lastHot)
		}
		lastHot = hot
	}
	stop.Store(true)
	<-done
	if err, _ := writerErr.Load().(error); err != nil {
		t.Fatalf("writer: %v", err)
	}
	l.Close()
	if successes == 0 {
		t.Fatalf("no load succeeded (%d compaction rejects)", rejects)
	}
	if lastHot == 0 {
		t.Fatal("follower never observed a write")
	}
}
