// Package engine evaluates executable query plans against catalogs of
// limited-access sources, implementing the runtime side of the paper:
// plan execution with negation-as-filter, null-valued overestimate
// tuples, the ANSWER* algorithm (Figure 4), ground-truth evaluation for
// experiments, and DL97-style domain enumeration for improving
// underestimates (Example 8).
package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync"
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

// nullKey is how a null encodes in a row key; keySep joins the values.
const (
	nullKey = "\x00null"
	keySep  = "\x1f"
)

// KeyLen returns len(r.Key()) without building the key.
func (r Row) KeyLen() int {
	if len(r) == 0 {
		return 0
	}
	n := len(r) - 1
	for _, v := range r {
		if v.Null {
			n += len(nullKey)
		} else {
			n += len(v.S)
		}
	}
	return n
}

// Key encodes the row for set membership: the values joined by \x1f,
// a null as "\x00null". It allocates once — not at all for a row of one
// constant, whose key is the constant itself.
func (r Row) Key() string {
	if len(r) == 1 && !r[0].Null {
		return r[0].S
	}
	var b strings.Builder
	b.Grow(r.KeyLen())
	for i, v := range r {
		if i > 0 {
			b.WriteString(keySep)
		}
		if v.Null {
			b.WriteString(nullKey)
		} else {
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
// A Rel is a handle: Frozen and View make handles that share one
// immutable row slice and one lazily computed canonical order, so a
// cached answer is keyed, deduplicated and sorted once however many
// callers it is handed to. Every handle is copy-on-write — Add never
// touches what another handle can see — so a caller may treat the Rel it
// is given as its own. One handle is for one goroutine at a time (on a
// frozen handle Contains builds the membership set); distinct handles
// over the same rows may be used concurrently.
type Rel struct {
	rows []Row
	// seen is the membership set by Row.Key. A frozen handle leaves it
	// nil until the first Contains or Add: rows known to be distinct
	// need no keys to be served.
	seen map[string]struct{}
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
func NewRel() *Rel { return &Rel{seen: map[string]struct{}{}} }

// Frozen returns a relation over rows without copying them or computing
// a key: the caller vouches that the rows are distinct and that neither
// the slice nor the rows are written again. The membership set is built
// on the first Contains or Add, the canonical order on the first Sorted
// (and then shared with every View).
func Frozen(rows []Row) *Rel {
	return &Rel{rows: rows[:len(rows):len(rows)], order: &sortedOnce{}}
}

// View returns another handle over r's current rows in one allocation:
// same rows, same insertion order and — when r is frozen — the same
// shared canonical order. Later Adds to r or to the view are invisible
// to the other (the first new row copies the slice of row headers).
func (r *Rel) View() *Rel {
	if r.order == nil {
		return Frozen(r.rows)
	}
	return &Rel{rows: r.rows, order: r.order}
}

// Union returns the union of the parts in order, first occurrence
// first — the relation a sequential evaluation of the rules that
// produced the parts inserts. The union of a single non-empty part is
// that part's View; anything else is a fresh relation that borrows the
// parts' rows (one key per row, no row copied). Nil parts are skipped.
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
	out := &Rel{rows: make([]Row, 0, total), seen: make(map[string]struct{}, total)}
	for _, p := range parts {
		if p == nil {
			continue
		}
		for _, row := range p.rows {
			k := row.Key()
			if _, dup := out.seen[k]; !dup {
				out.seen[k] = struct{}{}
				out.rows = append(out.rows, row)
			}
		}
	}
	return out
}

// members returns the membership set, building it on a frozen handle's
// first use.
func (r *Rel) members() map[string]struct{} {
	if r.seen == nil {
		r.seen = make(map[string]struct{}, len(r.rows))
		for _, row := range r.rows {
			r.seen[row.Key()] = struct{}{}
		}
	}
	return r.seen
}

// Add inserts a copy of the row, reporting whether it was new.
func (r *Rel) Add(row Row) bool {
	seen := r.members()
	k := row.Key()
	if _, dup := seen[k]; dup {
		return false
	}
	seen[k] = struct{}{}
	// On a frozen handle the append reallocates (capacity is clipped):
	// the handle now owns its headers and its order is no longer shared.
	r.rows = append(r.rows, append(Row(nil), row...))
	r.order = nil
	return true
}

// AddRows inserts the rows, reporting how many were new.
func (r *Rel) AddRows(rows []Row) int {
	added := 0
	for _, row := range rows {
		if r.Add(row) {
			added++
		}
	}
	return added
}

// AddAll inserts every row of other.
func (r *Rel) AddAll(other *Rel) { r.AddRows(other.rows) }

// Contains reports membership.
func (r *Rel) Contains(row Row) bool {
	_, ok := r.members()[row.Key()]
	return ok
}

// Len returns the number of rows.
func (r *Rel) Len() int { return len(r.rows) }

// Rows returns the rows in insertion order (shared backing; do not
// mutate).
func (r *Rel) Rows() []Row { return r.rows }

// Sorted returns the rows in canonical (key) order, keying each row
// once. On a frozen relation or a view the order is computed by the
// first call and the slice is shared by every handle over the same
// rows: like Rows, do not mutate it.
func (r *Rel) Sorted() []Row {
	if o := r.order; o != nil {
		o.once.Do(func() { o.rows = sortedByKey(r.rows) })
		return o.rows
	}
	return sortedByKey(r.rows)
}

// sortedByKey returns a copy of rows in key order.
func sortedByKey(rows []Row) []Row {
	type keyed struct {
		key string
		row Row
	}
	ks := make([]keyed, len(rows))
	for i, row := range rows {
		ks[i] = keyed{row.Key(), row}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	out := make([]Row, len(rows))
	for i := range ks {
		out[i] = ks[i].row
	}
	return out
}

// Minus returns the rows of r not in other (Δ of Figure 4).
func (r *Rel) Minus(other *Rel) *Rel {
	out := NewRel()
	for _, row := range r.rows {
		if !other.Contains(row) {
			out.Add(row)
		}
	}
	return out
}

// Equal reports set equality.
func (r *Rel) Equal(other *Rel) bool {
	if r.Len() != other.Len() {
		return false
	}
	for _, row := range r.rows {
		if !other.Contains(row) {
			return false
		}
	}
	return true
}

// HasNull reports whether any row contains a null.
func (r *Rel) HasNull() bool {
	for _, row := range r.rows {
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
