package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestInternRoundTrip pins the edge cases the evaluator relies on:
// interning is total over arbitrary byte strings — empty, NUL-bearing,
// non-UTF-8 — and str(id(s)) == s for every one of them.
func TestInternRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"a",
		"a\x00b",
		"\x00",
		"\xff\xfe\xfd", // not valid UTF-8
		"\x1f",         // the map path's old dedup separator
		"x\x1fy",       // value containing the separator
		strings.Repeat("v", 4096),
		"héllo wörld",
	}
	interned := newValueInterner()
	for _, s := range cases {
		id, _ := interned.id(s)
		if got := interned.str(id); got != s {
			t.Errorf("str(id(%q)) = %q", s, got)
		}
		id2, fresh := interned.id(s)
		if fresh || id2 != id {
			t.Errorf("re-interning %q: id %d→%d fresh=%v, want stable", s, id, id2, fresh)
		}
	}
}

// TestInternChunkBoundaries crosses several reverse-table chunk
// boundaries and re-reads every value afterwards: chunk growth must
// never invalidate earlier IDs.
func TestInternChunkBoundaries(t *testing.T) {
	n := 3*internChunkSize + 17
	ids := make([]uint32, n)
	vals := make([]string, n)
	interned := newValueInterner()
	for i := 0; i < n; i++ {
		vals[i] = fmt.Sprintf("chunk-test-%d", i)
		ids[i], _ = interned.id(vals[i])
	}
	for i := 0; i < n; i++ {
		if got := interned.str(ids[i]); got != vals[i] {
			t.Fatalf("str(ids[%d]) = %q, want %q", i, got, vals[i])
		}
	}
}

// TestInternConcurrent hammers the interner from many goroutines over
// an overlapping value set: every goroutine must observe the same ID
// for the same string, and every ID must read back to its string. Run
// under -race this exercises the publish-last chunk handoff.
func TestInternConcurrent(t *testing.T) {
	const workers = 8
	const values = 500
	got := make([][]uint32, workers)
	interned := newValueInterner()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]uint32, values)
			for i := 0; i < values; i++ {
				id, _ := interned.id(fmt.Sprintf("conc-%d", i))
				if s := interned.str(id); s != fmt.Sprintf("conc-%d", i) {
					t.Errorf("worker %d: str(%d) = %q", w, id, s)
					return
				}
				got[w][i] = id
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := 0; i < values; i++ {
			if got[w][i] != got[0][i] {
				t.Fatalf("worker %d saw id %d for value %d, worker 0 saw %d", w, got[w][i], i, got[0][i])
			}
		}
	}
}

// FuzzInternRoundTrip fuzzes the round-trip over arbitrary byte
// strings. Without -fuzz the seed corpus runs as a regular test.
func FuzzInternRoundTrip(f *testing.F) {
	f.Add("")
	f.Add("plain")
	f.Add("a\x00b")
	f.Add("\xff\xfe")
	f.Add("\x1f\x1f")
	f.Add(strings.Repeat("long", 1024))
	interned := newValueInterner()
	f.Fuzz(func(t *testing.T, s string) {
		id, _ := interned.id(s)
		if got := interned.str(id); got != s {
			t.Fatalf("str(id(%q)) = %q", s, got)
		}
		id2, fresh := interned.id(s)
		if fresh || id2 != id {
			t.Fatalf("re-interning %q: id %d→%d fresh=%v", s, id, id2, fresh)
		}
	})
}
