package engine

import "math/bits"

// idTable is the evaluator's one hash table: an insert-only set of
// fixed-width tuples of interned value IDs, each given a dense index in
// insertion order. It backs an execution's call table ((relation,
// pattern) ordinal and input tuple → call), a call's join side
// (probe-key tuple → group), a slot-dropping step's seen set and a
// rule's distinct head rows, so no site builds a key string per row.
//
// The zero value is an empty table that has allocated nothing; the
// width is the length of the first tuple inserted. Keys live in one flat
// array (index i at keys[i*w:(i+1)*w]) and slots holds index+1 under
// open addressing with linear probing, so no key is ever allocated on
// its own, at any width. A width-0 table — a scan's join key, a boolean
// head — can hold only the empty tuple and is a counter with no slots at
// all.
//
// Indices are int32, the bound tuple indices within a call already had.
// A table is not safe for concurrent insertion; find on a table nobody
// inserts into is read-only.
type idTable struct {
	w     int
	n     int32
	keys  []uint32
	slots []int32 // index+1; 0 is empty; len is a power of two ≥ 2n
	shift uint    // 64 − log2(len(slots))
}

const idTableMinSlots = 8

// hashIDs mixes a tuple into 64 bits whose high bits index the slots
// (Fibonacci hashing: interned IDs are small dense integers, and the
// multiply spreads them over the top of the word).
func hashIDs(key []uint32) uint64 {
	h := uint64(len(key))
	for _, v := range key {
		h = (h ^ uint64(v)) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	return h * 0x9E3779B97F4A7C15
}

// len returns the number of distinct tuples inserted.
func (t *idTable) len() int { return int(t.n) }

// find returns the index of key, or -1 when it was never inserted.
func (t *idTable) find(key []uint32) int32 {
	if t.n == 0 {
		return -1
	}
	if t.w == 0 {
		return 0
	}
	mask := uint64(len(t.slots) - 1)
	for p := hashIDs(key) >> t.shift; ; p = (p + 1) & mask {
		s := t.slots[p]
		if s == 0 {
			return -1
		}
		if t.equal(s-1, key) {
			return s - 1
		}
	}
}

// insert returns key's index, adding it — at index len() — on first
// sight; fresh reports whether it was added. key is copied.
func (t *idTable) insert(key []uint32) (idx int32, fresh bool) {
	if t.n == 0 {
		t.w = len(key)
	}
	if t.w == 0 {
		fresh = t.n == 0
		t.n = 1
		return 0, fresh
	}
	if 2*(int(t.n)+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	p := hashIDs(key) >> t.shift
	for ; t.slots[p] != 0; p = (p + 1) & mask {
		if i := t.slots[p] - 1; t.equal(i, key) {
			return i, false
		}
	}
	idx = t.n
	t.keys = append(t.keys, key...)
	t.n++
	t.slots[p] = idx + 1
	return idx, true
}

// reset empties the table, keeping its buffers.
func (t *idTable) reset() {
	clear(t.slots)
	t.keys, t.n = t.keys[:0], 0
}

// recycle empties the table for another execution, charging its
// buffers to k.
func (t *idTable) recycle(k *keeper) {
	t.keys, t.n = keep(k, t.keys), 0
	t.slots = keep(k, t.slots)[:len(t.slots)]
}

func (t *idTable) equal(i int32, key []uint32) bool {
	stored := t.keys[int(i)*t.w:]
	for j, v := range key {
		if stored[j] != v {
			return false
		}
	}
	return true
}

// grow doubles the slot array (or makes the first one) and re-seats
// every index; the keys do not move.
func (t *idTable) grow() {
	size := 2 * len(t.slots)
	if size < idTableMinSlots {
		size = idTableMinSlots
	}
	shift := uint(64 - bits.TrailingZeros(uint(size)))
	slots := make([]int32, size)
	mask := uint64(size - 1)
	for i := int32(0); i < t.n; i++ {
		p := hashIDs(t.keys[int(i)*t.w:int(i+1)*t.w]) >> shift
		for slots[p] != 0 {
			p = (p + 1) & mask
		}
		slots[p] = i + 1
	}
	t.slots, t.shift = slots, shift
}
