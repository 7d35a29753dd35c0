// Package engine evaluates executable query plans against catalogs of
// limited-access sources, implementing the runtime side of the paper:
// plan execution with negation-as-filter, null-valued overestimate
// tuples, the ANSWER* algorithm (Figure 4), ground-truth evaluation for
// experiments, and DL97-style domain enumeration for improving
// underestimates (Example 8).
package engine

import (
	"fmt"
	"sort"
	"strings"
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

// Key encodes the row for set membership.
func (r Row) Key() string {
	parts := make([]string, len(r))
	for i, v := range r {
		if v.Null {
			parts[i] = "\x00null"
		} else {
			parts[i] = v.S
		}
	}
	return strings.Join(parts, "\x1f")
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
type Rel struct {
	rows []Row
	seen map[string]bool
}

// NewRel returns an empty relation.
func NewRel() *Rel { return &Rel{seen: map[string]bool{}} }

// Add inserts the row, reporting whether it was new.
func (r *Rel) Add(row Row) bool {
	k := row.Key()
	if r.seen[k] {
		return false
	}
	r.seen[k] = true
	r.rows = append(r.rows, append(Row(nil), row...))
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
func (r *Rel) Contains(row Row) bool { return r.seen[row.Key()] }

// Len returns the number of rows.
func (r *Rel) Len() int { return len(r.rows) }

// Rows returns the rows in insertion order (shared backing; do not
// mutate).
func (r *Rel) Rows() []Row { return r.rows }

// Sorted returns the rows in canonical (key) order.
func (r *Rel) Sorted() []Row {
	out := make([]Row, len(r.rows))
	copy(out, r.rows)
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
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
