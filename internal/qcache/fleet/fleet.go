// Package fleet implements shared-directory mode for the persistent
// answer cache: N server replicas cooperate over one storage root. At
// most one replica — the holder of a TTL'd, fsynced lease file — is
// the writer: it owns the append log and compaction exactly as a
// single-process persist.Log does. Every other replica is a reader:
// it follows the published snapshot + log suffix at a poll interval
// (persist.LoadState, seqlock-validated), applies fleet-wide
// invalidations from the per-replica inbox files, and never writes
// the shared log.
//
// Robustness contract, in order of importance:
//
//   - No split brain. A writer tracks its lease expiry by its own
//     clock and self-fences — turns its log inert and demotes to
//     reader — the moment a renewal has not landed by expiry. Fencing
//     is checked on every append, not just on ticks, so a paused and
//     resumed writer cannot slip a write past its lost tenure.
//   - Bounded takeover. A reader that observes an expired (or
//     missing, or corrupt) lease attempts takeover on its next tick;
//     the lease steal is atomic (see persist/lease.go), so concurrent
//     candidates elect exactly one.
//   - Never block a query. Storage trouble — unreadable directory,
//     ENOSPC, a broken log — degrades the replica to its local
//     in-memory cache (the persist best-effort contract); queries are
//     answered from memory and the node keeps retrying on ticks.
//   - At-least-once invalidation. An invalidation accepted by any
//     replica is durable in that replica's inbox before it is acked;
//     every replica applies all inboxes every tick (idempotently, via
//     forward-only generation CAS), so no replica serves a killed
//     answer past its next refresh. The poll interval is therefore
//     the staleness bound, and Stats surfaces both.
package fleet

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/qcache/persist"
)

// Role is a node's current fleet role.
type Role int

// The two roles. A node moves Reader -> Writer on takeover and
// Writer -> Reader on fencing; both transitions bump Version.
const (
	Reader Role = iota
	Writer
)

// String returns "reader" or "writer".
func (r Role) String() string {
	if r == Writer {
		return "writer"
	}
	return "reader"
}

// Options configures a fleet node.
type Options struct {
	// ID names this replica; it must be unique across the fleet and
	// stable across restarts (it keys the replica's inbox file). Empty
	// means hostname-pid, unique across a fleet of machines and across
	// restarts on one (a stale inbox file from an earlier pid is still
	// read by everyone: at-least-once holds either way).
	ID string
	// TTL is the lease duration (default 10s). A writer must renew
	// within it or self-fence; takeover happens within one poll
	// interval after expiry.
	TTL time.Duration
	// Poll is the tick interval: follower refresh, lease renewal,
	// inbox scan (default TTL/5, clamped to at most TTL/3 so two
	// renewals fit in every tenure). It is the fleet's staleness
	// bound.
	Poll time.Duration
	// FS is the filesystem (nil = the real one). Tests inject a
	// FaultFS.
	FS persist.FS
	// Now is the clock (nil = time.Now). Tests inject a virtual
	// clock and drive Tick by hand.
	Now func() time.Time
	// Log configures the writer-role persist.Log (FS and Now are
	// overridden by the fields above).
	Log persist.Options
	// Background starts a goroutine ticking every Poll. Leave false
	// to drive Tick manually (tests).
	Background bool
}

func (o Options) withDefaults() Options {
	if o.ID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "ucqn"
		}
		o.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if o.TTL <= 0 {
		o.TTL = 10 * time.Second
	}
	if o.Poll <= 0 {
		o.Poll = o.TTL / 5
	}
	if o.Poll > o.TTL/3 {
		o.Poll = o.TTL / 3
	}
	if o.FS == nil {
		o.FS = persist.OSFS{}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	o.Log.FS = o.FS
	o.Log.Now = o.Now
	return o
}

// Stats is a snapshot of a node's fleet health for /v1/stats.
type Stats struct {
	// ID and Role identify the replica and its current role.
	ID   string `json:"id"`
	Role string `json:"role"`
	// Version is the store version (bumps when the visible state
	// changed behind the cache's back).
	Version uint64 `json:"version"`
	// LeaseID is the observed lease holder ("" when none).
	LeaseID string `json:"lease_id,omitempty"`
	// LeaseAgeMS and LeaseRemainingMS describe the current lease (a
	// writer's own; a reader's last observation). Remaining < 0 means
	// expired.
	LeaseAgeMS       int64 `json:"lease_age_ms"`
	LeaseRemainingMS int64 `json:"lease_remaining_ms"`
	// StalenessMS is how far behind the shared state this replica may
	// be (time since its last successful refresh; 0 for the writer).
	// StalenessBoundMS is the configured worst case (the poll
	// interval).
	StalenessMS      int64 `json:"staleness_ms"`
	StalenessBoundMS int64 `json:"staleness_bound_ms"`
	// Takeovers counts Reader -> Writer promotions; Fenced counts
	// Writer -> Reader self-fences.
	Takeovers int64 `json:"takeovers"`
	Fenced    int64 `json:"fenced"`
	// Degraded carries the storage error currently keeping this
	// replica on its local cache ("" while healthy).
	Degraded string `json:"degraded,omitempty"`
}

// Node is one replica's handle on the shared directory. It implements
// persist.Store, so a qcache.Cache uses it exactly like a private
// Log. Safe for concurrent use.
type Node struct {
	dir string
	opt Options

	// tickMu serializes ticks; mu guards the fields below and is
	// never held across IO.
	tickMu sync.Mutex
	mu     sync.Mutex

	role         Role
	lease        persist.Lease // writer: the held lease
	leaseExpires time.Time     // writer: expiry by own clock (fence deadline)
	obsLease     persist.Lease // reader: last observed lease
	obsLeaseOK   bool
	nonceCtr     uint64

	log       *persist.Log   // writer role only
	state     *persist.State // reader role: last good follower state
	inbox     *persist.Inbox // always owned, role-independent
	inboxGens map[string]int64

	version     uint64
	degraded    error
	lastRefresh time.Time
	takeovers   int64
	fenced      int64
	closed      bool

	stop chan struct{}
	done chan struct{}
}

// Open joins the fleet under dir as replica opt.ID, creating the
// directory on first use. The node immediately runs one tick, so the
// first replica into an empty directory comes up as the writer. The
// only errors are real filesystem failures on the node's own inbox —
// shared-state trouble degrades, never fails.
func Open(dir string, opt Options) (*Node, error) {
	opt = opt.withDefaults()
	if err := opt.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	ib, err := persist.OpenInbox(opt.FS, dir, opt.ID)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	n := &Node{
		dir:       dir,
		opt:       opt,
		role:      Reader,
		inbox:     ib,
		inboxGens: map[string]int64{},
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	n.Tick(opt.Now())
	if opt.Background {
		go n.run()
	} else {
		close(n.done)
	}
	return n, nil
}

func (n *Node) run() {
	defer close(n.done)
	t := time.NewTicker(n.opt.Poll)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.Tick(n.opt.Now())
		}
	}
}

// Tick advances the node's fleet protocol once at the given time:
// writer — renew or self-fence, absorb inboxes, prune; reader —
// observe the lease, take over if expired, refresh follower state,
// scan inboxes. Production nodes tick from the background runner;
// tests call it directly with a virtual clock.
func (n *Node) Tick(now time.Time) {
	n.tickMu.Lock()
	defer n.tickMu.Unlock()

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	// Self-fence before anything else: a tick arriving past the fence
	// deadline means renewals stopped landing — tenure is over no
	// matter what the lease file says now.
	if n.role == Writer && !now.Before(n.leaseExpires) {
		n.fenceLocked(fmt.Errorf("fleet: lease expired without renewal"))
	}
	role := n.role
	n.mu.Unlock()

	if role == Writer {
		n.tickWriter(now)
	} else {
		n.tickReader(now)
	}
}

// fenceLocked ends the writer tenure: the log is turned inert (so a
// concurrent spill goroutine cannot write after the fence) and
// closed, and the node demotes to a stateless reader that will
// refresh on its next tick. n.mu must be held.
func (n *Node) fenceLocked(reason error) {
	if n.role != Writer {
		return
	}
	if n.log != nil {
		n.log.Fence(reason)
		_ = n.log.Close()
		n.log = nil
	}
	n.role = Reader
	n.state = nil
	n.fenced++
	n.version++
	n.degraded = reason
}

// tickWriter renews the lease (or fences), absorbs fleet-wide inbox
// invalidations into the log, and prunes the node's own inbox.
func (n *Node) tickWriter(now time.Time) {
	n.mu.Lock()
	lease := n.lease
	lg := n.inboxFenceCheckLocked(now)
	n.mu.Unlock()
	if lg == nil {
		return
	}

	// Renew first: everything else this tick writes under the tenure
	// the renewal extends.
	lease.ExpiresUnixNano = now.Add(n.opt.TTL).UnixNano()
	err := persist.Renew(n.opt.FS, n.dir, lease)
	n.mu.Lock()
	switch {
	case err == nil && n.role == Writer:
		n.lease = lease
		n.leaseExpires = lease.Expires()
		n.degraded = nil
	case err == persist.ErrLeaseLost:
		// Someone else's lease is published: they observed ours
		// expired, so our tenure is over *now*, not at the deadline.
		n.fenceLocked(fmt.Errorf("fleet: lease lost to another writer"))
		n.mu.Unlock()
		return
	default:
		// IO trouble renewing: keep writing until the fence deadline
		// (the lease file still names us), but surface the degradation.
		n.degraded = err
	}
	n.mu.Unlock()

	// A broken log cannot serve the fleet: hand the lease back so a
	// replica with healthy storage can take over, and degrade local.
	if lerr := lg.Err(); lerr != nil {
		_ = persist.Release(n.opt.FS, n.dir, lease)
		n.mu.Lock()
		n.fenceLocked(fmt.Errorf("fleet: writer log broken: %w", lerr))
		n.mu.Unlock()
		return
	}

	n.absorbInboxes(lg)
	_ = n.inbox.PruneIfCovered(func(label string, gen int64) bool {
		return lg.Gen(label) >= gen
	})

	n.mu.Lock()
	n.lastRefresh = now
	n.mu.Unlock()
}

// inboxFenceCheckLocked returns the writer log, or nil after fencing
// if the deadline passed while waiting for the lock.
func (n *Node) inboxFenceCheckLocked(now time.Time) *persist.Log {
	if n.role != Writer {
		return nil
	}
	if !now.Before(n.leaseExpires) {
		n.fenceLocked(fmt.Errorf("fleet: lease expired without renewal"))
		return nil
	}
	return n.log
}

// absorbInboxes folds every replica's published invalidations into
// the log as ordinary tombstones (idempotent: only generations ahead
// of the log are appended) and syncs them durable.
func (n *Node) absorbInboxes(lg *persist.Log) {
	gens := persist.ReadInboxes(n.opt.FS, n.dir)
	absorbed := false
	for label, gen := range gens {
		if gen > lg.Gen(label) {
			if lg.AppendTombstone(label, gen) == nil {
				absorbed = true
			}
		}
	}
	if !absorbed {
		return
	}
	_ = lg.Sync()
	n.mu.Lock()
	n.version++ // generations moved behind the owning cache's back
	n.mu.Unlock()
}

// tickReader observes the lease (taking over if it is dead), then
// refreshes the follower state and scans the inboxes.
func (n *Node) tickReader(now time.Time) {
	lease, lerr := persist.ReadLease(n.opt.FS, n.dir)
	n.mu.Lock()
	n.obsLease, n.obsLeaseOK = lease, lerr == nil
	n.mu.Unlock()

	if lerr != nil || !now.Before(lease.Expires()) {
		if n.takeover(now) {
			return
		}
	}

	st, err := persist.LoadState(n.opt.FS, n.dir)
	n.mu.Lock()
	switch {
	case n.closed:
	case err == nil:
		changed := n.state == nil ||
			st.Seq != n.state.Seq ||
			st.Stats.SnapshotRecords != n.state.Stats.SnapshotRecords ||
			st.Stats.LogRecords != n.state.Stats.LogRecords ||
			st.Stats.Entries != n.state.Stats.Entries
		n.state = st
		n.lastRefresh = now
		n.degraded = nil
		if changed {
			n.version++
		}
	case err == persist.ErrConcurrentCompaction:
		// Raced the writer's compaction: keep the last good state and
		// try again next tick. Not a degradation.
	default:
		n.degraded = err
	}
	n.mu.Unlock()

	n.scanInboxes()
	if st := n.followerState(); st != nil {
		_ = n.inbox.PruneIfCovered(func(label string, gen int64) bool {
			return st.Gen(label) >= gen
		})
	}
}

func (n *Node) followerState() *persist.State {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state
}

// scanInboxes merges every replica's published invalidation
// generations into the node's overlay, so a killed answer stops
// being served at most one poll interval after any replica acked it.
func (n *Node) scanInboxes() {
	gens := persist.ReadInboxes(n.opt.FS, n.dir)
	n.mu.Lock()
	for label, gen := range gens {
		if gen > n.inboxGens[label] {
			n.inboxGens[label] = gen
			n.version++
		}
	}
	n.mu.Unlock()
}

// takeover attempts to claim an expired or missing lease and, on
// success, promote to writer. Returns true when the node is the
// writer afterwards.
func (n *Node) takeover(now time.Time) bool {
	n.mu.Lock()
	n.nonceCtr++
	lease := persist.Lease{
		ID:              n.opt.ID,
		Nonce:           fmt.Sprintf("%s-%d-%d", n.opt.ID, now.UnixNano(), n.nonceCtr),
		ExpiresUnixNano: now.Add(n.opt.TTL).UnixNano(),
	}
	n.mu.Unlock()

	ok, err := persist.TryAcquire(n.opt.FS, n.dir, lease, now)
	if err != nil {
		n.mu.Lock()
		n.degraded = err
		n.mu.Unlock()
		return false
	}
	if !ok {
		return false // contention: someone live holds it, or we lost the race
	}

	// We hold the lease; open the log. The previous writer either
	// closed it, crashed (Open repairs torn tails and odd seq), or is
	// fenced — in every case single-writer ownership is ours now.
	lg, _, err := persist.Open(n.dir, n.opt.Log)
	if err != nil {
		_ = persist.Release(n.opt.FS, n.dir, lease)
		n.mu.Lock()
		n.degraded = fmt.Errorf("fleet: promote: %w", err)
		n.mu.Unlock()
		return false
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		_ = lg.Close()
		_ = persist.Release(n.opt.FS, n.dir, lease)
		return false
	}
	n.role = Writer
	n.lease = lease
	n.leaseExpires = lease.Expires()
	n.log = lg
	n.state = nil
	n.takeovers++
	n.version++ // the visible state moved from follower view to log view
	n.lastRefresh = now
	n.degraded = nil
	n.mu.Unlock()

	// Absorb straight away so invalidations parked in inboxes during
	// the writerless window land without waiting another tick.
	n.absorbInboxes(lg)
	return true
}

// writerLog returns the log while the node is an unfenced writer,
// enforcing the fence deadline on the query path itself: a stalled
// node that resumes past expiry fences here, before any write.
func (n *Node) writerLog() *persist.Log {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inboxFenceCheckLocked(n.opt.Now())
}

// Label implements persist.Store: the writer answers from its log, a
// reader from its last good follower state, and both overlay the
// fleet-wide invalidation generations — a killed label reports the
// killed generation (with no entries) even before the writer absorbs
// the tombstone into the log.
func (n *Node) Label(label string) (int64, []persist.Entry) {
	n.mu.Lock()
	lg, st, ig := n.log, n.state, n.inboxGens[label]
	n.mu.Unlock()
	var gen int64
	var entries []persist.Entry
	switch {
	case lg != nil:
		gen, entries = lg.Label(label)
	case st != nil:
		gen, entries = st.Label(label)
	}
	if ig > gen {
		return ig, nil
	}
	return gen, entries
}

// Append implements persist.Store. Only the writer persists; a reader
// absorbs the call — its freshly computed answers stay in its memory
// tier (best-effort durability, exactly the persist contract).
func (n *Node) Append(e persist.Entry) error {
	lg := n.writerLog()
	if lg == nil {
		return nil
	}
	return lg.Append(e)
}

// AppendTombstone implements persist.Store: the fleet invalidation
// path. The generation becomes visible locally at once, durable in
// the writer's log (synced — an invalidation never sits in a batch
// window) or, from a reader, in this replica's inbox, from where
// every replica applies it within one poll interval.
func (n *Node) AppendTombstone(label string, gen int64) error {
	n.mu.Lock()
	if gen > n.inboxGens[label] {
		n.inboxGens[label] = gen
	}
	lg := n.inboxFenceCheckLocked(n.opt.Now())
	n.mu.Unlock()
	if lg != nil {
		if err := lg.AppendTombstone(label, gen); err == nil {
			return lg.Sync()
		}
		// Broken log: fall through to the inbox so the invalidation
		// still reaches the fleet when a healthy writer takes over.
	}
	return n.inbox.Append(label, gen)
}

// Version implements persist.Store: it advances whenever the visible
// state may have changed behind the owning cache's back (follower
// refresh, absorbed or scanned invalidation, role change), telling
// the cache to re-restore labels.
func (n *Node) Version() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.version
}

// Err implements persist.Store: the storage error currently degrading
// this replica to its local cache, nil while healthy.
func (n *Node) Err() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.degraded != nil {
		return n.degraded
	}
	if n.log != nil {
		return n.log.Err()
	}
	return nil
}

// Sync implements persist.Store (writer: flush the log; reader:
// nothing to flush).
func (n *Node) Sync() error {
	n.mu.Lock()
	lg := n.log
	n.mu.Unlock()
	if lg == nil {
		return nil
	}
	return lg.Sync()
}

// Dir implements persist.Store.
func (n *Node) Dir() string { return n.dir }

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Stats snapshots the node's fleet health.
func (n *Node) Stats() Stats {
	now := n.opt.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	st := Stats{
		ID:               n.opt.ID,
		Role:             n.role.String(),
		Version:          n.version,
		StalenessBoundMS: n.opt.Poll.Milliseconds(),
		Takeovers:        n.takeovers,
		Fenced:           n.fenced,
	}
	lease, ok := n.obsLease, n.obsLeaseOK
	if n.role == Writer {
		lease, ok = n.lease, true
		// The writer is never stale: it reads its own log.
	} else if !n.lastRefresh.IsZero() {
		st.StalenessMS = now.Sub(n.lastRefresh).Milliseconds()
	}
	if ok {
		st.LeaseID = lease.ID
		issued := lease.Expires().Add(-n.opt.TTL)
		st.LeaseAgeMS = now.Sub(issued).Milliseconds()
		st.LeaseRemainingMS = lease.Expires().Sub(now).Milliseconds()
	}
	if n.degraded != nil {
		st.Degraded = n.degraded.Error()
	}
	return st
}

// Close leaves the fleet: stop ticking, release the lease (writer),
// close the log and inbox. Never blocks on shared-storage health.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		<-n.done
		return nil
	}
	n.closed = true
	role, lease := n.role, n.lease
	lg, ib := n.log, n.inbox
	n.log = nil
	n.mu.Unlock()

	close(n.stop)
	<-n.done

	var err error
	if lg != nil {
		err = lg.Close()
	}
	if role == Writer {
		_ = persist.Release(n.opt.FS, n.dir, lease)
	}
	if cerr := ib.Close(); err == nil {
		err = cerr
	}
	return err
}
