package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// entry builds a deterministic test entry.
func entry(label string, gen int64, key string, rows ...[]Value) Entry {
	return Entry{
		Label:   label,
		Gen:     gen,
		Created: 1000 + gen,
		CoreKey: key,
		Core:    []byte(`{"head":"Q"}`),
		Arity:   2,
		Rows:    rows,
	}
}

func row(vals ...string) []Value {
	out := make([]Value, len(vals))
	for i, s := range vals {
		out[i] = Value{S: s}
	}
	return out
}

// sortEntries orders entries for comparison.
func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool { return es[i].CoreKey < es[j].CoreKey })
}

func mustOpen(t testing.TB, dir string, opt Options) (*Log, RecoveryStats) {
	t.Helper()
	l, rs, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rs
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rs := mustOpen(t, dir, Options{SyncEvery: 1})
	if rs.Entries != 0 || rs.CorruptDrops != 0 {
		t.Fatalf("fresh dir recovered %+v", rs)
	}
	want := []Entry{
		entry("tenant-0", 0, "k1", row("a", "b"), row("c", "d")),
		entry("tenant-0", 0, "k2", row("x", "y")),
		entry("tenant-0", 0, "k3"), // empty answer: zero rows is a valid, cacheable answer
	}
	// A null value must round-trip distinguishably from the string "null".
	want = append(want, Entry{
		Label: "tenant-0", Gen: 0, Created: 7, CoreKey: "k4",
		Core: []byte("{}"), Arity: 1,
		Rows: [][]Value{{{Null: true}}, {{S: "null"}}},
	})
	for _, e := range want {
		if err := l.Append(e); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rs2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if rs2.Entries != len(want) || rs2.CorruptDrops != 0 || rs2.StaleDrops != 0 {
		t.Fatalf("recovery %+v, want %d clean entries", rs2, len(want))
	}
	gen, got := l2.Label("tenant-0")
	if gen != 0 {
		t.Fatalf("gen = %d", gen)
	}
	sortEntries(got)
	sortEntries(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered entries differ:\n got %+v\nwant %+v", got, want)
	}
	if g, e := l2.Label("nobody"); g != 0 || e != nil {
		t.Fatalf("unknown label returned %d, %v", g, e)
	}
}

func TestGenerationsAndTombstones(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SyncEvery: 1})
	if err := l.Append(entry("t", 0, "k1", row("old"))); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(entry("t", 0, "k2", row("old2"))); err != nil {
		t.Fatal(err)
	}
	// The tenant invalidates: generation bumps, a tombstone is logged.
	if err := l.AppendTombstone("t", 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(entry("t", 1, "k1", row("new"))); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, rs := mustOpen(t, dir, Options{})
	defer l2.Close()
	gen, got := l2.Label("t")
	if gen != 1 {
		t.Fatalf("gen = %d, want 1", gen)
	}
	if len(got) != 1 || got[0].CoreKey != "k1" || got[0].Rows[0][0].S != "new" {
		t.Fatalf("recovered %+v, want only the gen-1 entry", got)
	}
	if rs.StaleDrops != 2 {
		t.Fatalf("StaleDrops = %d, want 2 (the gen-0 entries)", rs.StaleDrops)
	}
	// An entry arriving below the tombstoned generation is ignored even
	// at runtime.
	if err := l2.Append(entry("t", 0, "k9", row("zombie"))); err != nil {
		t.Fatal(err)
	}
	if _, es := l2.Label("t"); len(es) != 1 {
		t.Fatalf("stale runtime append resurfaced: %+v", es)
	}
}

func TestTornTailDropsExactlyTheSuffix(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SyncEvery: 1})
	for i := 0; i < 5; i++ {
		if err := l.Append(entry("t", 0, fmt.Sprintf("k%d", i), row("v"))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	path := filepath.Join(dir, logFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail mid-record.
	torn := data[:len(data)-7]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rs := mustOpen(t, dir, Options{})
	if rs.Entries != 4 || rs.CorruptDrops != 1 {
		t.Fatalf("recovery %+v, want 4 entries and 1 corrupt drop", rs)
	}
	if rs.TruncatedBytes == 0 {
		t.Fatal("torn tail not accounted")
	}
	// Appending after recovery lands on a clean frame boundary: the new
	// record must survive the next reopen.
	if err := l2.Append(entry("t", 0, "k-after", row("w"))); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, rs3 := mustOpen(t, dir, Options{})
	defer l3.Close()
	if rs3.Entries != 5 || rs3.CorruptDrops != 0 {
		t.Fatalf("post-truncate recovery %+v, want 5 clean entries", rs3)
	}
	if _, es := l3.Label("t"); len(es) != 5 {
		t.Fatalf("entries = %d", len(es))
	}
}

func TestBitFlipDropsOnlyThatSuffix(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SyncEvery: 1})
	for i := 0; i < 6; i++ {
		if err := l.Append(entry("t", 0, fmt.Sprintf("k%d", i), row(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := filepath.Join(dir, logFile)
	data, _ := os.ReadFile(path)
	// Flip one bit roughly in the middle of the file.
	data[len(data)/2] ^= 0x10
	os.WriteFile(path, data, 0o644)

	l2, rs := mustOpen(t, dir, Options{})
	defer l2.Close()
	if rs.CorruptDrops == 0 {
		t.Fatalf("bit flip not detected: %+v", rs)
	}
	// Whatever survived must be a verbatim prefix subset of what was
	// written — never an altered row.
	_, got := l2.Label("t")
	for _, e := range got {
		i := -1
		fmt.Sscanf(e.CoreKey, "k%d", &i)
		if i < 0 || e.Rows[0][0].S != fmt.Sprintf("v%d", i) {
			t.Fatalf("corrupt row served: %+v", e)
		}
	}
	if len(got) >= 6 {
		t.Fatalf("flip dropped nothing (%d entries)", len(got))
	}
}

func TestMissingAndGarbageFiles(t *testing.T) {
	// Entirely missing directory contents: clean empty recovery.
	l, rs := mustOpen(t, t.TempDir(), Options{})
	if rs.Entries != 0 || rs.CorruptDrops != 0 {
		t.Fatalf("empty dir: %+v", rs)
	}
	l.Close()

	// Garbage in both files: everything dropped, open still succeeds,
	// and the log is writable again.
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, logFile), []byte("not a log at all"), 0o644)
	os.WriteFile(filepath.Join(dir, snapFile), []byte("junk"), 0o644)
	l2, rs2 := mustOpen(t, dir, Options{SyncEvery: 1})
	if rs2.Entries != 0 || rs2.CorruptDrops != 2 {
		t.Fatalf("garbage files: %+v, want 2 corrupt drops", rs2)
	}
	if err := l2.Append(entry("t", 0, "k", row("v"))); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, rs3 := mustOpen(t, dir, Options{})
	defer l3.Close()
	if rs3.Entries != 1 {
		t.Fatalf("rewritten log did not recover: %+v", rs3)
	}
}

func TestCompactionSnapshotAndReset(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SyncEvery: 1, CompactBytes: -1})
	for i := 0; i < 10; i++ {
		// Overwrite the same key: the log holds 10 records, the state 1.
		if err := l.Append(entry("t", 0, "hot", row(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendTombstone("gone", 3); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	l.Close()

	// The log is just a header now; the snapshot carries the state.
	if st, err := os.Stat(filepath.Join(dir, logFile)); err != nil || st.Size() != int64(len(logMagic)) {
		t.Fatalf("log not reset after compaction: %v, size=%d", err, st.Size())
	}
	l2, rs := mustOpen(t, dir, Options{})
	defer l2.Close()
	if rs.SnapshotRecords == 0 || rs.Entries != 1 {
		t.Fatalf("snapshot recovery: %+v", rs)
	}
	if _, es := l2.Label("t"); len(es) != 1 || es[0].Rows[0][0].S != "v9" {
		t.Fatalf("compacted state lost the last write: %+v", es)
	}
	// The entry-less label's generation survives via its tombstone: a
	// stale writer cannot resurrect pre-invalidation data.
	if err := l2.Append(entry("gone", 1, "zombie", row("x"))); err != nil {
		t.Fatal(err)
	}
	if gen, es := l2.Label("gone"); gen != 3 || len(es) != 0 {
		t.Fatalf("tombstoned generation lost in snapshot: gen=%d entries=%+v", gen, es)
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SyncEvery: 1, CompactBytes: 512})
	for i := 0; i < 100; i++ {
		if err := l.Append(entry("t", 0, "hot", row("vvvvvvvvvvvvvvvv"))); err != nil {
			t.Fatal(err)
		}
	}
	st, err := os.Stat(filepath.Join(dir, logFile))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 1024 {
		t.Fatalf("log never compacted: %d bytes", st.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, snapFile)); err != nil {
		t.Fatalf("no snapshot after auto-compaction: %v", err)
	}
	l.Close()
	l2, rs := mustOpen(t, dir, Options{})
	defer l2.Close()
	if rs.Entries != 1 {
		t.Fatalf("recovery after auto-compaction: %+v", rs)
	}
}

func TestTruncatedSnapshotKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SyncEvery: 1, CompactBytes: -1})
	for i := 0; i < 8; i++ {
		l.Append(entry("t", 0, fmt.Sprintf("k%d", i), row("v")))
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := filepath.Join(dir, snapFile)
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:2*len(data)/3], 0o644)

	l2, rs := mustOpen(t, dir, Options{})
	defer l2.Close()
	if rs.CorruptDrops == 0 {
		t.Fatalf("truncated snapshot not detected: %+v", rs)
	}
	if rs.Entries == 0 || rs.Entries >= 8 {
		t.Fatalf("want a strict prefix of 8 entries, got %d", rs.Entries)
	}
}

func TestENOSPCAndSyncFailureGoInertNotFatal(t *testing.T) {
	ffs := &FaultFS{MaxBytes: 600}
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{FS: ffs, SyncEvery: 1, CompactBytes: -1})
	var firstErr error
	for i := 0; i < 50; i++ {
		if err := l.Append(entry("t", 0, fmt.Sprintf("k%d", i), row("value"))); err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		t.Fatal("disk-full never surfaced")
	}
	// The in-memory mirror keeps working; appends keep failing without
	// panics; Close is clean.
	_ = l.Append(entry("t", 0, "more", row("v")))
	l.Close()
	if ffs.OpenHandles() != 0 {
		t.Fatalf("leaked %d handles", ffs.OpenHandles())
	}

	// Whatever made it to disk before ENOSPC recovers cleanly.
	l2, rs := mustOpen(t, dir, Options{})
	defer l2.Close()
	if rs.CorruptDrops > 1 {
		t.Fatalf("ENOSPC must leave at most one torn record: %+v", rs)
	}

	// Failed fsync: the log goes inert (durability unknown), the caller
	// survives.
	ffs2 := &FaultFS{FailSyncEveryN: 1}
	l3, _ := mustOpen(t, t.TempDir(), Options{FS: ffs2, SyncEvery: 1})
	if err := l3.Append(entry("t", 0, "k", row("v"))); err == nil {
		t.Fatal("failed fsync not surfaced")
	}
	if l3.Err() == nil {
		t.Fatal("log did not mark itself broken after fsync failure")
	}
	l3.Close()
	if ffs2.OpenHandles() != 0 {
		t.Fatalf("leaked %d handles", ffs2.OpenHandles())
	}
}

func TestShortWritesTruncateAndContinue(t *testing.T) {
	ffs := &FaultFS{ShortWriteEveryN: 5}
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{FS: ffs, SyncEvery: -1, CompactBytes: -1})
	ok := 0
	for i := 0; i < 40; i++ {
		if err := l.Append(entry("t", 0, fmt.Sprintf("k%d", i), row("v"))); err == nil {
			ok++
		}
	}
	l.Close()
	if ok == 0 || ok == 40 {
		t.Fatalf("short-write injection did not bite: %d/40 ok", ok)
	}
	l2, rs := mustOpen(t, dir, Options{})
	defer l2.Close()
	// Every record that reported success and survived the torn-tail
	// truncations must read back verbatim; no corruption may surface.
	if rs.CorruptDrops != 0 {
		t.Fatalf("short-write survivors corrupt: %+v", rs)
	}
	_, es := l2.Label("t")
	if len(es) == 0 {
		t.Fatal("nothing survived the short writes")
	}
	for _, e := range es {
		if len(e.Rows) != 1 || e.Rows[0][0].S != "v" {
			t.Fatalf("corrupt survivor: %+v", e)
		}
	}
}
