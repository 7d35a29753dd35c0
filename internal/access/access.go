// Package access implements access patterns and adornments for relations
// with limited query capabilities, per Section 3 of Nash & Ludäscher
// (EDBT 2004). An access pattern for a k-ary relation R is a word α over
// {i, o} of length k, written R^α: position j is an input slot when
// α(j) = 'i' (a value must be supplied to call the source) and an output
// slot when α(j) = 'o'.
package access

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/logic"
)

// Pattern is a word over the alphabet {i, o}; e.g. "oio" for B^oio.
type Pattern string

// ParsePattern validates s as a pattern word.
func ParsePattern(s string) (Pattern, error) {
	for i := 0; i < len(s); i++ {
		if s[i] != 'i' && s[i] != 'o' {
			return "", fmt.Errorf("access: invalid pattern %q: position %d is %q, want 'i' or 'o'", s, i+1, s[i])
		}
	}
	return Pattern(s), nil
}

// MustPattern is ParsePattern that panics on error; for tests and literals.
func MustPattern(s string) Pattern {
	p, err := ParsePattern(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Arity returns the length of the pattern word.
func (p Pattern) Arity() int { return len(p) }

// Input reports whether slot j (0-based) is an input slot.
func (p Pattern) Input(j int) bool { return p[j] == 'i' }

// Output reports whether slot j (0-based) is an output slot.
func (p Pattern) Output(j int) bool { return p[j] == 'o' }

// InputCount returns the number of input slots.
func (p Pattern) InputCount() int {
	n := 0
	for j := 0; j < len(p); j++ {
		if p[j] == 'i' {
			n++
		}
	}
	return n
}

// AllOutput reports whether every slot is an output slot (the pattern of
// an unrestricted relation).
func (p Pattern) AllOutput() bool { return p.InputCount() == 0 }

// AllOutputPattern returns the all-output pattern of the given arity.
func AllOutputPattern(arity int) Pattern {
	return Pattern(strings.Repeat("o", arity))
}

// AllInputPattern returns the all-input pattern of the given arity.
func AllInputPattern(arity int) Pattern {
	return Pattern(strings.Repeat("i", arity))
}

// Subsumes reports whether p is at least as permissive as q: every input
// slot of p is also an input slot of q. ("Bound is easier", [Ull88]: any
// call that satisfies q also satisfies p when p has fewer input slots.)
func (p Pattern) Subsumes(q Pattern) bool {
	if len(p) != len(q) {
		return false
	}
	for j := 0; j < len(p); j++ {
		if p[j] == 'i' && q[j] == 'o' {
			return false
		}
	}
	return true
}

// Set maps relation names to the access patterns available for them.
// A relation absent from the set has no access pattern and cannot be
// called at all. A Set is used through its pointer and never copied.
type Set struct {
	patterns map[string][]Pattern
	// fingerprint memoizes String: a plan cache keys every lookup on
	// it. Add clears it.
	fingerprint atomic.Pointer[string]
}

// NewSet returns an empty pattern set.
func NewSet() *Set { return &Set{patterns: map[string][]Pattern{}} }

// Add registers a pattern for relation name. Duplicate registrations are
// ignored. It returns an error if a pattern of different arity was
// already registered for the relation.
func (s *Set) Add(name string, p Pattern) error {
	for _, q := range s.patterns[name] {
		if q == p {
			return nil
		}
		if len(q) != len(p) {
			return fmt.Errorf("access: relation %s has patterns of conflicting arities %d and %d", name, len(q), len(p))
		}
	}
	s.patterns[name] = append(s.patterns[name], p)
	s.fingerprint.Store(nil)
	return nil
}

// MustAdd is Add that panics on error; for tests and literals.
func (s *Set) MustAdd(name string, pat string) *Set {
	if err := s.Add(name, MustPattern(pat)); err != nil {
		panic(err)
	}
	return s
}

// Patterns returns the patterns registered for the relation.
func (s *Set) Patterns(name string) []Pattern { return s.patterns[name] }

// Has reports whether any pattern is registered for the relation.
func (s *Set) Has(name string) bool { return len(s.patterns[name]) > 0 }

// Relations returns the relation names with at least one pattern, sorted.
func (s *Set) Relations() []string {
	out := make([]string, 0, len(s.patterns))
	for name := range s.patterns {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Arity returns the arity of the relation's patterns, or -1 if none.
func (s *Set) Arity(name string) int {
	ps := s.patterns[name]
	if len(ps) == 0 {
		return -1
	}
	return len(ps[0])
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	out := NewSet()
	for name, ps := range s.patterns {
		out.patterns[name] = append([]Pattern(nil), ps...)
	}
	return out
}

// String renders the set as "B^ioo B^oio C^oo L^o" in sorted order.
// The rendering is computed once and kept until the next Add.
func (s *Set) String() string {
	if fp := s.fingerprint.Load(); fp != nil {
		return *fp
	}
	var b strings.Builder
	for _, name := range s.Relations() {
		for _, p := range s.patterns[name] {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(name)
			b.WriteByte('^')
			b.WriteString(string(p))
		}
	}
	fp := b.String()
	s.fingerprint.Store(&fp)
	return fp
}

// Minimize returns a copy of the set with subsumed patterns removed: a
// pattern q is dropped when another pattern p of the same relation
// subsumes it (p's input slots are a subset of q's), since any call that
// satisfies q can be made through p with the extra bindings post-joined
// ("bound is easier", [Ull88]). Planning over the minimized set accepts
// exactly the same queries.
func (s *Set) Minimize() *Set {
	out := NewSet()
	for name, ps := range s.patterns {
		for i, q := range ps {
			subsumed := false
			for j, p := range ps {
				if i == j {
					continue
				}
				if p.Subsumes(q) && (!q.Subsumes(p) || j < i) {
					// Strictly more permissive, or an identical twin that
					// appears earlier (keep one representative).
					subsumed = true
					break
				}
			}
			if !subsumed {
				out.patterns[name] = append(out.patterns[name], q)
			}
		}
	}
	return out
}

// Callable reports whether a positive literal over atom a can be called
// when the variables in bound are already bound: some registered pattern
// has all its input-slot arguments bound (constants are always bound).
// It returns one such pattern (the one with the most input slots among
// the usable ones, to push selections into the source) and true, or
// ("", false) if none is usable.
func (s *Set) Callable(a logic.Atom, bound map[string]bool) (Pattern, bool) {
	var best Pattern
	found := false
	for _, p := range s.patterns[a.Pred] {
		if len(p) != len(a.Args) {
			continue
		}
		ok := true
		for j, t := range a.Args {
			if p.Input(j) && t.IsVar() && !bound[t.Name] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if !found || p.InputCount() > best.InputCount() {
			best = p
			found = true
		}
	}
	return best, found
}

// InVars returns the variables of atom a that sit in input slots of
// pattern p, in order of first occurrence. This is invars(L) of Figure 1
// in the paper once an adornment is fixed.
func InVars(a logic.Atom, p Pattern) []logic.Term {
	var out []logic.Term
	seen := map[string]bool{}
	for j, t := range a.Args {
		if p.Input(j) && t.IsVar() && !seen[t.Name] {
			seen[t.Name] = true
			out = append(out, t)
		}
	}
	return out
}

// OutVars returns the variables of atom a in output slots of pattern p.
func OutVars(a logic.Atom, p Pattern) []logic.Term {
	var out []logic.Term
	seen := map[string]bool{}
	for j, t := range a.Args {
		if p.Output(j) && t.IsVar() && !seen[t.Name] {
			seen[t.Name] = true
			out = append(out, t)
		}
	}
	return out
}
