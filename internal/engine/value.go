// Package engine evaluates executable query plans against catalogs of
// limited-access sources, implementing the runtime side of the paper:
// plan execution with negation-as-filter, null-valued overestimate
// tuples, the ANSWER* algorithm (Figure 4), ground-truth evaluation for
// experiments, and DL97-style domain enumeration for improving
// underestimates (Example 8).
package engine

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"repro/internal/sources"
)

// Value is a constant answer value or the distinguished null that
// overestimate plans emit for head variables they cannot bind
// (Section 4.2 of the paper discusses how such tuples must be read).
type Value struct {
	S    string
	Null bool
}

// V returns a constant value.
func V(s string) Value { return Value{S: s} }

// NullValue is the null answer value.
var NullValue = Value{Null: true}

// String renders the value; nulls print as null, constants quoted.
func (v Value) String() string {
	if v.Null {
		return "null"
	}
	return fmt.Sprintf("%q", v.S)
}

// Row is one answer tuple.
type Row []Value

// nullKey is how a null encodes in a row key: KeyEsc followed by a byte
// no escaped constant puts there (sources.Key).
const nullKey = sources.KeyEsc + "null"

// KeyLen returns len(r.Key()) without building the key.
func (r Row) KeyLen() int {
	n, _ := r.keyLen()
	return n
}

// keyLen returns len(r.Key()) and whether a constant of r needs an
// escape.
func (r Row) keyLen() (n int, escape bool) {
	if len(r) == 0 {
		return 0, false
	}
	n = len(r) - 1
	for _, v := range r {
		if v.Null {
			n += len(nullKey)
			continue
		}
		l := sources.KeyValueLen(v.S)
		escape = escape || l != len(v.S)
		n += l
	}
	return n, escape
}

// Key encodes the row for set membership: the constants encoded and
// joined as sources.Key does, a null as "\x00null". It allocates once —
// not at all for a row of one constant that needs no escape, whose key
// is the constant itself.
func (r Row) Key() string {
	n, escape := r.keyLen()
	if len(r) == 1 && !r[0].Null && !escape {
		return r[0].S
	}
	var b strings.Builder
	b.Grow(n)
	for i, v := range r {
		if i > 0 {
			b.WriteString(sources.KeySep)
		}
		switch {
		case v.Null:
			b.WriteString(nullKey)
		case escape:
			sources.WriteKeyValue(&b, v.S)
		default:
			b.WriteString(v.S)
		}
	}
	return b.String()
}

// HasNull reports whether any value in the row is null.
func (r Row) HasNull() bool {
	for _, v := range r {
		if v.Null {
			return true
		}
	}
	return false
}

// String renders the row as (v1, ..., vn).
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// RowOf builds a row of constant values; for tests.
func RowOf(vals ...string) Row {
	r := make(Row, len(vals))
	for i, s := range vals {
		r[i] = V(s)
	}
	return r
}

// Rel is a set of answer rows with deterministic iteration order
// (insertion order; Sorted gives a canonical order).
//
// Membership is a value hash, not a key string: a hash index over the
// rows' positions, each row hashed value by value (hash/maphash, a null
// by a tag of its own) and compared value by value, so Add, Contains,
// Union and Minus build no Row.Key.
//
// A Rel is a handle: Frozen and View make handles that share one
// immutable row slice and one lazily computed canonical order, so a
// cached answer is deduplicated and sorted once however many callers it
// is handed to. Every handle is copy-on-write — Add never touches what
// another handle can see — so a caller may treat the Rel it is given as
// its own. One handle is for one goroutine at a time (on a frozen handle
// Contains builds the membership index); distinct handles over the same
// rows may be used concurrently.
type Rel struct {
	rows []Row
	// idx is the membership index. It is built on the first Contains or
	// Add: rows known to be distinct — a frozen handle's, a rule's rows
	// taken over from the executor — need none to be served.
	idx rowIndex
	// order is non-nil while rows is a frozen, possibly shared slice (its
	// capacity clipped, so an append reallocates): the canonical order
	// every handle over those rows shares.
	order *sortedOnce
}

// sortedOnce is the canonical order of one frozen row slice, computed
// by the first handle that asks.
type sortedOnce struct {
	once sync.Once
	rows []Row
}

// NewRel returns an empty relation.
func NewRel() *Rel { return &Rel{} }

// Frozen returns a relation over rows without copying or hashing them:
// the caller vouches that the rows are distinct and that neither the
// slice nor the rows are written again. The membership index is built
// on the first Contains or Add, the canonical order on the first Sorted
// (and then shared with every View).
func Frozen(rows []Row) *Rel {
	return &Rel{rows: rows[:len(rows):len(rows)], order: &sortedOnce{}}
}

// View returns another handle over r's current rows in one allocation:
// same rows, same insertion order and — when r is frozen — the same
// shared canonical order. Later Adds to r or to the view are invisible
// to the other (the first new row copies the slice of row headers).
// The view of a nil *Rel is a fresh empty relation.
func (r *Rel) View() *Rel {
	if r == nil {
		return NewRel()
	}
	if r.order == nil {
		return Frozen(r.rows)
	}
	return &Rel{rows: r.rows, order: r.order}
}

// Union returns the union of the parts in order, first occurrence
// first — the relation a sequential evaluation of the rules that
// produced the parts inserts. The union of a single non-empty part is
// that part's View; anything else is a fresh relation that borrows the
// parts' rows (hashed once each, none copied). Nil parts are skipped.
func Union(parts []*Rel) *Rel {
	var only *Rel
	nonEmpty, total := 0, 0
	for _, p := range parts {
		if p != nil && p.Len() > 0 {
			only = p
			nonEmpty++
			total += p.Len()
		}
	}
	if nonEmpty == 1 {
		return only.View()
	}
	out := &Rel{rows: make([]Row, 0, total)}
	out.idx.reset(total)
	for _, p := range parts {
		if p != nil {
			for _, row := range p.rows {
				out.insert(row)
			}
		}
	}
	return out
}

// Add inserts a copy of the row, reporting whether it was new.
func (r *Rel) Add(row Row) bool {
	r.index(1)
	if !r.insert(row) {
		return false
	}
	r.rows[len(r.rows)-1] = slices.Clone(row)
	return true
}

// AddRows inserts copies of the rows, reporting how many were new.
func (r *Rel) AddRows(rows []Row) int {
	added := 0
	for _, row := range rows {
		if r.Add(row) {
			added++
		}
	}
	return added
}

// AddAll inserts every row of other (none when other is nil).
func (r *Rel) AddAll(other *Rel) { r.AddRows(other.Rows()) }

// adopt inserts rows handed over by their owner — distinct among
// themselves and never written again — without copying them, reporting
// how many were new. An empty relation takes them as its rows, with no
// membership index: a union whose answer comes from one rule never
// hashes a row.
func (r *Rel) adopt(rows []Row) int {
	if len(r.rows) == 0 {
		r.rows, r.idx, r.order = rows[:len(rows):len(rows)], rowIndex{}, nil
		return len(rows)
	}
	r.index(len(rows))
	r.rows = slices.Grow(r.rows, len(rows))
	added := 0
	for _, row := range rows {
		if r.insert(row) {
			added++
		}
	}
	return added
}

// index builds the membership index if r has none, with room for extra
// more rows.
func (r *Rel) index(extra int) {
	if r.idx.slots != nil {
		return
	}
	r.idx.reset(len(r.rows) + extra)
	for i, row := range r.rows {
		r.idx.place(hashRow(row), i)
	}
}

// insert appends row itself, uncopied, unless r holds it, and reports
// whether it did. The index must be built.
func (r *Rel) insert(row Row) bool {
	if 2*(len(r.rows)+1) > len(r.idx.slots) {
		r.idx.grow()
	}
	h := hashRow(row)
	p, found := r.idx.lookup(r.rows, row, h)
	if found {
		return false
	}
	r.idx.slots[p] = uint64(h)<<32 | uint64(len(r.rows)+1)
	// On a frozen handle the append reallocates (capacity is clipped):
	// the handle now owns its headers and its order is no longer shared.
	r.rows = append(r.rows, row)
	r.order = nil
	return true
}

// Contains reports membership.
func (r *Rel) Contains(row Row) bool {
	if r.Len() == 0 {
		return false
	}
	r.index(0)
	_, found := r.idx.lookup(r.rows, row, hashRow(row))
	return found
}

// Len returns the number of rows.
func (r *Rel) Len() int { return len(r.Rows()) }

// Rows returns the rows in insertion order (shared backing; do not
// mutate). A nil *Rel is the empty relation to Rows and to every other
// method that only reads it — View, Contains, Len, Sorted, Minus, Equal,
// HasNull, String — and to AddAll as its argument.
func (r *Rel) Rows() []Row {
	if r == nil {
		return nil
	}
	return r.rows
}

// Sorted returns the rows in canonical order: the order of their keys
// (Row.Key), with no key built (compareRows). On a frozen relation or a
// view the order is computed by the first call and the slice is shared
// by every handle over the same rows: like Rows, do not mutate it.
func (r *Rel) Sorted() []Row {
	if r == nil {
		return nil
	}
	if o := r.order; o != nil {
		o.once.Do(func() { o.rows = sortedRows(r.rows) })
		return o.rows
	}
	return sortedRows(r.rows)
}

// sortedRows returns a copy of rows in key order.
func sortedRows(rows []Row) []Row {
	out := make([]Row, len(rows))
	copy(out, rows)
	slices.SortFunc(out, compareRows)
	return out
}

// Minus returns the rows of r not in other (Δ of Figure 4). The result
// shares r's rows; it needs no index of its own, since r's rows are
// distinct.
func (r *Rel) Minus(other *Rel) *Rel {
	out := NewRel()
	for _, row := range r.Rows() {
		if !other.Contains(row) {
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// rowIndex is a Rel's membership index: open addressing with linear
// probing over the positions of the relation's rows. A slot holds the
// row's 32-bit hash above its position+1 (0 is empty), so growing never
// rehashes a row and a probe compares values only when the hashes agree.
type rowIndex struct {
	slots []uint64 // len is a power of two ≥ 2 × rows
	shift uint     // 32 − log2(len(slots)): a hash's top bits pick its slot
}

const rowIndexMinSlots = 8

// rowSeed keys the value hash; it is per process, like every maphash.
var rowSeed = maphash.MakeSeed()

// nullHash is a null's hash: a tag no constant's hash is tied to, so a
// null and "" or "\x00null" land apart (equality tells them apart in
// any case).
const nullHash = 0x6e756c6c5f746167

// hashRow hashes a row value by value: each constant by maphash, a null
// by its tag, mixed in order with the arity.
func hashRow(r Row) uint32 {
	h := uint64(len(r))
	for _, v := range r {
		x := uint64(nullHash)
		if !v.Null {
			x = maphash.String(rowSeed, v.S)
		}
		h = (h ^ x) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	return uint32(h >> 32)
}

// sameRow reports whether two rows hold the same values: same arity,
// nulls at the same positions, equal constants elsewhere.
func sameRow(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Null != b[i].Null || (!a[i].Null && a[i].S != b[i].S) {
			return false
		}
	}
	return true
}

// reset makes an empty index with room for n rows.
func (x *rowIndex) reset(n int) {
	size := rowIndexMinSlots
	for size < 2*n {
		size *= 2
	}
	x.slots = make([]uint64, size)
	x.shift = uint(32 - bits.TrailingZeros(uint(size)))
}

// lookup returns the slot holding row, found, or the empty slot where it
// would go.
func (x *rowIndex) lookup(rows []Row, row Row, h uint32) (p int, found bool) {
	mask := len(x.slots) - 1
	for p = int(h >> x.shift); ; p = (p + 1) & mask {
		e := x.slots[p]
		if e == 0 {
			return p, false
		}
		if uint32(e>>32) == h && sameRow(rows[uint32(e)-1], row) {
			return p, true
		}
	}
}

// place records the row at pos, known to be absent, under hash h.
func (x *rowIndex) place(h uint32, pos int) {
	mask := len(x.slots) - 1
	p := int(h >> x.shift)
	for x.slots[p] != 0 {
		p = (p + 1) & mask
	}
	x.slots[p] = uint64(h)<<32 | uint64(pos+1)
}

// grow doubles the slot array, re-seating every entry by its stored
// hash.
func (x *rowIndex) grow() {
	old := x.slots
	x.reset(len(old))
	for _, e := range old {
		if e != 0 {
			x.place(uint32(e>>32), int(uint32(e))-1)
		}
	}
}

// compareRows orders two rows as strings.Compare orders their keys
// (Row.Key), building neither. A key is the values' encodings joined by
// the separator \x1f, so the rows compare value by value; where one
// value's encoding is a proper prefix of the other's, the shorter one is
// followed by the separator, or by the end of its key if it is the row's
// last value, and that decides against the longer one's next encoded
// byte, which is never the separator.
func compareRows(a, b Row) int {
	if len(a) == 0 || len(b) == 0 {
		// The empty row's key is "", and so is that of the row of one "".
		switch ea, eb := keyIsEmpty(a), keyIsEmpty(b); {
		case ea && eb:
			return 0
		case ea:
			return -1
		default:
			return 1
		}
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		c, next := compareValues(a[i], b[i])
		switch c {
		case 0:
			continue
		case -2: // a[i]'s encoding is a proper prefix of b[i]'s
			if i == len(a)-1 || next > sources.KeySep[0] {
				return -1
			}
			return 1
		case 2:
			if i == len(b)-1 || next > sources.KeySep[0] {
				return 1
			}
			return -1
		}
		return c
	}
	return cmp.Compare(len(a), len(b))
}

// keyIsEmpty reports whether r's key is "".
func keyIsEmpty(r Row) bool {
	return len(r) == 0 || (len(r) == 1 && !r[0].Null && r[0].S == "")
}

// compareValues compares the key encodings of two values: -1, 0 or 1,
// or -2 (2) when x's (y's) encoding is a proper prefix of the other's,
// whose next byte is then next. A common prefix of two constants is a
// common prefix of their encodings, so only the first byte after it is
// looked at, in its encoded rank.
func compareValues(x, y Value) (c int, next byte) {
	switch {
	case x.Null && y.Null:
		return 0, 0
	case x.Null:
		c, next = compareValues(y, x)
		return -c, next
	case y.Null:
		// A null encodes as nullKey, "\x00null": above "" (its prefix)
		// and every encoding that starts with an escape, below the rest.
		switch {
		case x.S == "":
			return -2, nullKey[0]
		case keyRank(x.S[0]) < keyRank(0x01):
			return -1, 0
		}
		return 1, 0
	}
	n := 0
	for n < len(x.S) && n < len(y.S) && x.S[n] == y.S[n] {
		n++
	}
	switch {
	case n == len(x.S) && n == len(y.S):
		return 0, 0
	case n == len(x.S):
		return -2, keyByte(y.S[n])
	case n == len(y.S):
		return 2, keyByte(x.S[n])
	}
	return cmp.Compare(keyRank(x.S[n]), keyRank(y.S[n])), 0
}

// keyByte is the first byte of c's encoding within a key.
func keyByte(c byte) byte {
	if c == sources.KeySep[0] {
		return sources.KeyEsc[0]
	}
	return c
}

// keyRank orders bytes as their encodings order: \x00 (escaped
// \x00\x01) below \x1f (\x00\x02) below every other byte, those in
// byte order.
func keyRank(c byte) int {
	switch c {
	case sources.KeyEsc[0]:
		return 0
	case sources.KeySep[0]:
		return 1
	}
	return int(c) + 1
}

// Equal reports set equality.
func (r *Rel) Equal(other *Rel) bool {
	if r.Len() != other.Len() {
		return false
	}
	for _, row := range r.Rows() {
		if !other.Contains(row) {
			return false
		}
	}
	return true
}

// HasNull reports whether any row contains a null.
func (r *Rel) HasNull() bool {
	for _, row := range r.Rows() {
		if row.HasNull() {
			return true
		}
	}
	return false
}

// String renders the relation, one sorted row per line.
func (r *Rel) String() string {
	rows := r.Sorted()
	parts := make([]string, len(rows))
	for i, row := range rows {
		parts[i] = row.String()
	}
	return strings.Join(parts, "\n")
}
