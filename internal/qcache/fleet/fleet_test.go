package fleet

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/qcache/persist"
)

// vclock is the virtual wall clock every node of a test fleet shares.
// Tests advance it by hand and drive Tick explicitly, so lease expiry
// and takeover timing are exact, not sleep-based.
type vclock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *vclock { return &vclock{t: time.Unix(10000, 0)} }

func (c *vclock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *vclock) advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

func testEntry(key, val string) persist.Entry {
	return persist.Entry{
		Label:   "t",
		Created: 1,
		CoreKey: key,
		Core:    []byte(`{"head":"Q"}`),
		Arity:   1,
		Rows:    [][]persist.Value{{{S: val}}},
	}
}

// openNode joins dir as id with manual ticks, a shared virtual clock,
// and per-append durability (the chaos rounds reason about acked
// writes, so no batch window).
func openNode(t *testing.T, dir, id string, clk *vclock, fs persist.FS, ttl time.Duration) *Node {
	t.Helper()
	n, err := Open(dir, Options{
		ID:  id,
		TTL: ttl,
		FS:  fs,
		Now: clk.now,
		Log: persist.Options{SyncEvery: 1, CompactBytes: -1},
	})
	if err != nil {
		t.Fatalf("Open(%s): %v", id, err)
	}
	return n
}

func TestFirstReplicaIsWriterAndReadersFollow(t *testing.T) {
	dir := t.TempDir()
	clk := newClock()
	ttl := 10 * time.Second

	a := openNode(t, dir, "a", clk, nil, ttl)
	defer a.Close()
	if a.Role() != Writer {
		t.Fatalf("first replica role = %v, want writer", a.Role())
	}
	b := openNode(t, dir, "b", clk, nil, ttl)
	defer b.Close()
	if b.Role() != Reader {
		t.Fatalf("second replica role = %v, want reader", b.Role())
	}

	// B warm-reads what A pays for, within one poll tick.
	if err := a.Append(testEntry("k1", "v1")); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	v0 := b.Version()
	b.Tick(clk.advance(time.Second))
	if _, es := b.Label("t"); len(es) != 1 || es[0].CoreKey != "k1" {
		t.Fatalf("follower state = %+v, want A's entry", es)
	}
	if b.Version() == v0 {
		t.Fatal("follower refresh did not bump the store version")
	}

	// Stats reflect the roles; the reader reports its staleness and
	// the observed lease, the writer its own.
	as, bs := a.Stats(), b.Stats()
	if as.Role != "writer" || bs.Role != "reader" {
		t.Fatalf("stats roles = %s/%s", as.Role, bs.Role)
	}
	if as.LeaseID != "a" || bs.LeaseID != "a" {
		t.Fatalf("lease IDs = %q/%q, want a/a", as.LeaseID, bs.LeaseID)
	}
	if bs.StalenessBoundMS != (ttl / 5).Milliseconds() {
		t.Fatalf("staleness bound = %dms", bs.StalenessBoundMS)
	}
}

func TestWriterCrashReaderTakesOverWithinTTL(t *testing.T) {
	dir := t.TempDir()
	clk := newClock()
	ttl := 10 * time.Second
	poll := ttl / 5

	a := openNode(t, dir, "a", clk, nil, ttl)
	b := openNode(t, dir, "b", clk, nil, ttl)
	defer b.Close()
	if err := a.Append(testEntry("paid", "v")); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}

	// A crashes: it never ticks (renews) again. B keeps polling; it
	// must become the writer within TTL + one poll of the crash.
	crash := clk.now()
	var promoted time.Time
	for i := 0; i < 20 && b.Role() != Writer; i++ {
		promoted = clk.advance(poll)
		b.Tick(promoted)
	}
	if b.Role() != Writer {
		t.Fatal("reader never took over")
	}
	if max := ttl + poll; promoted.Sub(crash) > max {
		t.Fatalf("takeover took %v, bound is %v", promoted.Sub(crash), max)
	}
	if st := b.Stats(); st.Takeovers != 1 || st.LeaseID != "b" {
		t.Fatalf("post-takeover stats = %+v", st)
	}
	// The new writer owns everything the old one persisted.
	if _, es := b.Label("t"); len(es) != 1 || es[0].CoreKey != "paid" {
		t.Fatalf("takeover lost the acked entry: %+v", es)
	}

	// The crashed writer resumes: its first interaction past the lost
	// tenure fences it — its write is dropped, its role demoted.
	if err := a.Append(testEntry("zombie", "v")); err != nil {
		t.Fatalf("stale writer append must be a silent no-op, got %v", err)
	}
	if a.Role() != Reader {
		t.Fatalf("resumed stale writer role = %v, want reader", a.Role())
	}
	if st := a.Stats(); st.Fenced != 1 {
		t.Fatalf("fence not counted: %+v", st)
	}
	if _, es := b.Label("t"); len(es) != 1 {
		t.Fatalf("zombie write reached the shared state: %+v", es)
	}
	a.Close()
}

func TestInvalidationFansOutToEveryReplica(t *testing.T) {
	dir := t.TempDir()
	clk := newClock()
	ttl := 10 * time.Second
	poll := ttl / 5

	a := openNode(t, dir, "a", clk, nil, ttl) // writer
	b := openNode(t, dir, "b", clk, nil, ttl)
	c := openNode(t, dir, "c", clk, nil, ttl)
	defer a.Close()
	defer b.Close()
	defer c.Close()

	if err := a.Append(testEntry("k", "v")); err != nil {
		t.Fatal(err)
	}
	a.Sync()
	b.Tick(clk.advance(poll))
	c.Tick(clk.advance(poll))

	// B (a reader) accepts the invalidation: locally visible at once,
	// durable in B's inbox.
	if err := b.AppendTombstone("t", 5); err != nil {
		t.Fatal(err)
	}
	if gen, es := b.Label("t"); gen != 5 || len(es) != 0 {
		t.Fatalf("accepting replica still serves: gen=%d entries=%+v", gen, es)
	}

	// One tick later every replica has applied it — C straight from
	// the inbox scan, A by absorbing it into the log.
	now := clk.advance(poll)
	a.Tick(now)
	c.Tick(now)
	if gen, es := c.Label("t"); gen != 5 || len(es) != 0 {
		t.Fatalf("sibling reader after one tick: gen=%d entries=%+v", gen, es)
	}
	if gen, es := a.Label("t"); gen != 5 || len(es) != 0 {
		t.Fatalf("writer after one tick: gen=%d entries=%+v", gen, es)
	}

	// The absorbed tombstone is durable in the log, so B's inbox record
	// is covered and pruned once B sees the refreshed state.
	b.Tick(clk.advance(poll))
	if gens := persist.ReadInboxes(nil, dir); len(gens) != 0 {
		t.Fatalf("inboxes not pruned after absorption: %v", gens)
	}
	// And a brand-new replica recovers the generation from the log.
	d := openNode(t, dir, "d", clk, nil, ttl)
	defer d.Close()
	if gen, _ := d.Label("t"); gen != 5 {
		t.Fatalf("fresh replica gen = %d, want 5", gen)
	}
}

func TestBrokenStorageDegradesAndHandsOff(t *testing.T) {
	dir := t.TempDir()
	clk := newClock()
	ttl := 10 * time.Second

	// A starts healthy (the lease acquisition's fsync succeeds), then
	// the disk goes bad: an append's fsync fails, which turns the log
	// inert — durability is unknown from here on.
	ffs := &persist.FaultFS{FailSyncEveryN: 10}
	a := openNode(t, dir, "a", clk, ffs, ttl)
	defer a.Close()
	if a.Role() != Writer {
		t.Fatalf("role = %v, want writer", a.Role())
	}
	broke := false
	for i := 0; i < 200 && !broke; i++ {
		broke = a.Append(testEntry(fmt.Sprintf("k%d", i), "vvvvvvvvvvvvvvvv")) != nil
	}
	if !broke {
		t.Fatal("failed fsync never surfaced")
	}
	if a.Err() == nil {
		t.Fatal("broken log not surfaced through Err")
	}

	// The next tick hands the lease back and degrades A to its local
	// cache; queries are never blocked (Append stays a cheap no-op).
	a.Tick(clk.advance(time.Second))
	if a.Role() != Reader {
		t.Fatalf("broken-log writer did not fence: %v", a.Role())
	}
	if st := a.Stats(); st.Degraded == "" || st.Fenced != 1 {
		t.Fatalf("fenced without a degraded reason: %+v", st)
	}
	if err := a.Append(testEntry("k2", "v")); err != nil {
		t.Fatalf("degraded append must not fail the caller: %v", err)
	}

	// A healthy replica acquires the released lease without waiting
	// out the TTL.
	b := openNode(t, dir, "b", clk, nil, ttl)
	defer b.Close()
	if b.Role() != Writer {
		b.Tick(clk.advance(time.Second))
	}
	if b.Role() != Writer {
		t.Fatalf("healthy replica did not take over a released lease: %+v", b.Stats())
	}
}

// The kill-the-writer chaos suite (the `make fleet-smoke` payload):
// seeded rounds of crash, takeover, and resurrection across three
// replicas on one directory. Invariants checked every round: a
// survivor is promoted within TTL + one poll of virtual time, at most
// one live writer exists, and a resurrected writer's late write is
// fenced off. At the end, a fresh replica must recover exactly the
// acked entries — every synced write survives, no zombie write leaks.
func TestChaosKillTheWriter(t *testing.T) {
	dir := t.TempDir()
	clk := newClock()
	ttl := 10 * time.Second
	poll := ttl / 5
	ffs := &persist.FaultFS{}
	rng := rand.New(rand.NewSource(42))

	nodes := map[string]*Node{
		"a": openNode(t, dir, "a", clk, ffs, ttl),
		"b": openNode(t, dir, "b", clk, ffs, ttl),
		"c": openNode(t, dir, "c", clk, ffs, ttl),
	}
	ids := []string{"a", "b", "c"}
	live := map[string]bool{"a": true, "b": true, "c": true}

	writerOf := func() string {
		w := ""
		for id, n := range nodes {
			if live[id] && n.Role() == Writer {
				if w != "" {
					t.Fatalf("split brain: %s and %s are both live writers", w, id)
				}
				w = id
			}
		}
		return w
	}
	tickLive := func(now time.Time) {
		for _, id := range ids {
			if live[id] {
				nodes[id].Tick(now)
			}
		}
	}

	acked := map[string]bool{}
	zombies := map[string]bool{}
	for round := 0; round < 12; round++ {
		// Settle: everyone ticks until a writer exists.
		start := clk.now()
		for writerOf() == "" {
			tickLive(clk.advance(poll))
			if clk.now().Sub(start) > ttl+2*poll {
				t.Fatalf("round %d: no writer within %v", round, ttl+2*poll)
			}
		}
		w := writerOf()

		// The writer acks a few entries (synced, per-append
		// durability): these must survive everything below.
		for i := 0; i < 1+rng.Intn(3); i++ {
			key := fmt.Sprintf("r%d-%d", round, i)
			if err := nodes[w].Append(testEntry(key, "v")); err != nil {
				t.Fatalf("round %d append: %v", round, err)
			}
			if err := nodes[w].Sync(); err != nil {
				t.Fatalf("round %d sync: %v", round, err)
			}
			acked[key] = true
		}

		// Kill the writer: it stops ticking (renewing) mid-tenure.
		live[w] = false
		killed := clk.now()

		// Survivors poll until one takes over; the window is bounded.
		for writerOf() == "" {
			tickLive(clk.advance(poll))
			if clk.now().Sub(killed) > ttl+2*poll {
				t.Fatalf("round %d: takeover exceeded %v after the crash", round, ttl+2*poll)
			}
		}

		// The corpse resumes and tries to write past its tenure: the
		// fence must eat the write silently.
		zombie := fmt.Sprintf("zombie-%d", round)
		if err := nodes[w].Append(testEntry(zombie, "boo")); err != nil {
			t.Fatalf("round %d: fenced append errored: %v", round, err)
		}
		zombies[zombie] = true
		if nodes[w].Role() != Reader {
			t.Fatalf("round %d: resumed writer %s not demoted", round, w)
		}
		live[w] = true // rejoined as a reader
	}

	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	if h := ffs.OpenHandles(); h != 0 {
		t.Fatalf("leaked %d file handles across the chaos rounds", h)
	}

	// A fresh replica recovers the full acked history and nothing else.
	final := openNode(t, dir, "final", clk, ffs, ttl)
	_, es := final.Label("t")
	got := map[string]bool{}
	for _, e := range es {
		got[e.CoreKey] = true
	}
	for key := range acked {
		if !got[key] {
			t.Errorf("acked entry %s lost", key)
		}
	}
	for key := range zombies {
		if got[key] {
			t.Errorf("zombie write %s leaked into the shared state", key)
		}
	}
	if err := final.Close(); err != nil {
		t.Fatal(err)
	}
	if h := ffs.OpenHandles(); h != 0 {
		t.Fatalf("final replica leaked %d handles", h)
	}
}

func TestBackgroundTickerStopsOnClose(t *testing.T) {
	before := runtime.NumGoroutine()
	n, err := Open(t.TempDir(), Options{ID: "bg", TTL: 400 * time.Millisecond, Background: true})
	if err != nil {
		t.Fatal(err)
	}
	if n.Role() != Writer {
		t.Fatalf("role = %v", n.Role())
	}
	// Let the real ticker fire at least once before closing.
	time.Sleep(120 * time.Millisecond)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	// Close must reap the runner: no goroutine may outlive the node.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Closing twice is fine, and a closed node's store surface is inert.
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

// A node opened without an ID is named hostname-pid.
func TestOpenDefaultsIDToHostnamePid(t *testing.T) {
	n, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "ucqn"
	}
	if got, want := n.Stats().ID, fmt.Sprintf("%s-%d", host, os.Getpid()); got != want {
		t.Errorf("ID = %q, want %q", got, want)
	}
}
