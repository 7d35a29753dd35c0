package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// tupleOf is the i-th test tuple of width w: every position varies,
// position 0 alone tells two tuples apart, and a third of the values
// have the high bit set.
func tupleOf(i, w int) []uint32 {
	key := make([]uint32, w)
	for j := range key {
		key[j] = uint32(i * (j + 1))
		if (i+j)%3 == 0 {
			key[j] |= 1 << 31
		}
	}
	return key
}

// Every width the evaluator uses and then some: dense indices in
// insertion order, fresh exactly on first sight, find agreeing with
// insert, across several doublings of the slot array.
func TestIDTableWidths(t *testing.T) {
	for w := 0; w <= 5; w++ {
		var tab idTable
		if got := tab.find(tupleOf(1, w)); got != -1 {
			t.Fatalf("w=%d: find on the empty table = %d, want -1", w, got)
		}
		n := 5000 // 8 slots → 16384: eleven doublings
		if w == 0 {
			n = 1 // there is one empty tuple
		}
		for round := 0; round < 2; round++ {
			for i := 0; i < n; i++ {
				idx, fresh := tab.insert(tupleOf(i, w))
				if int(idx) != i || fresh != (round == 0) {
					t.Fatalf("w=%d round %d: insert #%d = (%d, %v)", w, round, i, idx, fresh)
				}
			}
		}
		if tab.len() != n {
			t.Fatalf("w=%d: len = %d, want %d", w, tab.len(), n)
		}
		for i := 0; i < n; i++ {
			if got := tab.find(tupleOf(i, w)); int(got) != i {
				t.Fatalf("w=%d: find #%d = %d", w, i, got)
			}
		}
		if w > 0 {
			if got := tab.find(tupleOf(n, w)); got != -1 {
				t.Fatalf("w=%d: find of a tuple never inserted = %d, want -1", w, got)
			}
			if len(tab.keys) != n*w || len(tab.slots) < 2*n {
				t.Fatalf("w=%d: %d key words, %d slots for %d tuples", w, len(tab.keys), len(tab.slots), n)
			}
		} else if tab.keys != nil || tab.slots != nil {
			t.Fatal("a width-0 table allocated")
		}
	}
}

// The high bit of an ID is just another bit: tuples differing only across
// 1<<31 are different tuples.
func TestIDTableSpillBoundary(t *testing.T) {
	var tab idTable
	ids := []uint32{0, 1, 1<<31 - 1, 1 << 31, 1<<31 + 1, ^uint32(0)}
	for i, a := range ids {
		for j, b := range ids {
			idx, fresh := tab.insert([]uint32{a, b})
			if want := int32(i*len(ids) + j); idx != want || !fresh {
				t.Fatalf("insert (%d,%d) = (%d, %v), want (%d, true)", a, b, idx, fresh, want)
			}
		}
	}
	for i, a := range ids {
		for j, b := range ids {
			if got := tab.find([]uint32{a, b}); got != int32(i*len(ids)+j) {
				t.Fatalf("find (%d,%d) = %d", a, b, got)
			}
		}
	}
}

// The zero table allocates nothing until its first insert, and the
// shared empty join side answers every probe with no group.
func TestIDTableZeroValue(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		var tab idTable
		if tab.find([]uint32{1, 2}) != -1 || tab.len() != 0 {
			t.Fatal("zero table is not empty")
		}
		var unit idTable
		if _, fresh := unit.insert(nil); !fresh || unit.find(nil) != 0 {
			t.Fatal("width-0 insert")
		}
	})
	if allocs != 0 {
		t.Errorf("empty and width-0 tables allocated %.0f times", allocs)
	}
	if g := emptyJoin.group([]uint32{7}); g != nil {
		t.Errorf("emptyJoin.group = %v", g)
	}
}

// FuzzIDTable drives a table and a map[string]int through the same
// insert/find sequence: dense indices in insertion order, fresh exactly
// on first sight, find never inventing a tuple, keys kept verbatim.
// ops is read as records of one opcode byte and w value bytes; a small
// value alphabet forces repeats and probe chains, the high bit lifts a
// value past 1<<31.
func FuzzIDTable(f *testing.F) {
	// More seeds, one per width class, are in testdata/fuzz/FuzzIDTable.
	f.Add(uint8(2), []byte{0, 1, 2, 0, 2, 1, 1, 1, 2, 0, 1, 2})
	long := make([]byte, 0, 3*400)
	for i := 0; i < 400; i++ {
		long = append(long, byte(i%3), byte(i), byte(i>>4))
	}
	f.Add(uint8(2), long)
	f.Fuzz(func(t *testing.T, width uint8, ops []byte) {
		w := int(width % 6)
		var tab idTable
		ref := map[string]int{}
		var order [][]uint32
		for len(ops) >= 1+w {
			key := make([]uint32, w)
			for j := range key {
				b := ops[1+j]
				key[j] = uint32(b & 0x0f)
				if b&0x80 != 0 {
					key[j] += 1 << 31
				}
			}
			name := fmt.Sprint(key)
			want, known := ref[name]
			if ops[0]%2 == 0 {
				idx, fresh := tab.insert(key)
				if !known {
					want = len(order)
					ref[name] = want
					order = append(order, key)
				}
				if int(idx) != want || fresh == known {
					t.Fatalf("insert %v = (%d, %v), want (%d, %v)", key, idx, fresh, want, !known)
				}
			} else {
				if !known {
					want = -1
				}
				if got := tab.find(key); int(got) != want {
					t.Fatalf("find %v = %d, want %d", key, got, want)
				}
			}
			ops = ops[1+w:]
		}
		if tab.len() != len(order) {
			t.Fatalf("len = %d, want %d", tab.len(), len(order))
		}
		for i, key := range order {
			for j, v := range key {
				if tab.keys[i*w+j] != v {
					t.Fatalf("stored key %d = %v, want %v", i, tab.keys[i*w:(i+1)*w], key)
				}
			}
		}
	})
}

func BenchmarkIDTable(b *testing.B) {
	const n = 4096
	for _, w := range []int{1, 2, 4} {
		rng := rand.New(rand.NewSource(int64(w)))
		keys := make([][]uint32, n)
		for i := range keys {
			keys[i] = make([]uint32, w)
			for j := range keys[i] {
				keys[i][j] = uint32(rng.Intn(n)) // interned IDs are small and dense
			}
		}
		b.Run(fmt.Sprintf("insert/w=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var tab idTable
				for _, k := range keys {
					tab.insert(k)
				}
			}
		})
		b.Run(fmt.Sprintf("find/w=%d", w), func(b *testing.B) {
			var tab idTable
			for _, k := range keys {
				tab.insert(k)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, k := range keys {
					if tab.find(k) < 0 {
						b.Fatal("lost a key")
					}
				}
			}
		})
	}
}
