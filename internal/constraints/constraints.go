// Package constraints implements inclusion dependencies (foreign keys)
// and the semantic optimization of Example 6 of the paper: when
// R[z] ⊆ S[z] holds, a rule containing R(x, z) and ¬S(z) is
// unsatisfiable on every instance satisfying the constraint, so a
// semantic optimizer can discard it at compile time — turning some
// infeasible plans into feasible ones and sharpening PLAN* estimates.
// The paper lists reasoning with integrity constraints as the natural
// extension of its framework (Section 6).
package constraints

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/sources"
)

// IND is an inclusion dependency From[FromCols] ⊆ To[ToCols]: for every
// tuple of From, the values at FromCols appear as the values at ToCols
// of some tuple of To. When ToCols covers every column of To, the
// dependency pins the full To-tuple (the case needed to refute a negated
// To literal).
type IND struct {
	From     string
	FromCols []int
	To       string
	ToCols   []int
}

// Validate checks structural sanity.
func (d IND) Validate() error {
	if len(d.FromCols) == 0 || len(d.FromCols) != len(d.ToCols) {
		return fmt.Errorf("constraints: %s: column lists must be nonempty and equal length", d)
	}
	seen := map[int]bool{}
	for _, c := range d.ToCols {
		if seen[c] {
			return fmt.Errorf("constraints: %s: repeated target column %d", d, c)
		}
		seen[c] = true
	}
	return nil
}

// String renders the dependency, e.g. R[1] ⊆ S[0].
func (d IND) String() string {
	return fmt.Sprintf("%s%v ⊆ %s%v", d.From, d.FromCols, d.To, d.ToCols)
}

// Set is a collection of inclusion dependencies.
type Set []IND

// Parse reads dependencies in the form "R[1] < S[0]; T[0,1] < U[1,0]".
func Parse(src string) (Set, error) {
	var out Set
	for _, part := range strings.Split(src, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var d IND
		halves := strings.SplitN(part, "<", 2)
		if len(halves) != 2 {
			return nil, fmt.Errorf("constraints: %q: want R[cols] < S[cols]", part)
		}
		var err error
		d.From, d.FromCols, err = parseSide(halves[0])
		if err != nil {
			return nil, err
		}
		d.To, d.ToCols, err = parseSide(halves[1])
		if err != nil {
			return nil, err
		}
		if err := d.Validate(); err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

func parseSide(s string) (string, []int, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '[')
	if open < 0 || !strings.HasSuffix(s, "]") {
		return "", nil, fmt.Errorf("constraints: %q: want Name[col,...]", s)
	}
	name := strings.TrimSpace(s[:open])
	var cols []int
	for _, c := range strings.Split(s[open+1:len(s)-1], ",") {
		c = strings.TrimSpace(c)
		var n int
		if _, err := fmt.Sscanf(c, "%d", &n); err != nil || n < 0 {
			return "", nil, fmt.Errorf("constraints: %q: bad column %q", s, c)
		}
		cols = append(cols, n)
	}
	return name, cols, nil
}

// MustParse is Parse that panics on error.
func MustParse(src string) Set {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

// Holds reports whether the instance satisfies every dependency.
func (s Set) Holds(in *engine.Instance) bool {
	return s.Violations(in) == 0
}

// Violations counts From-tuples whose projection is missing from To.
func (s Set) Violations(in *engine.Instance) int {
	bad := 0
	for _, d := range s {
		// Index To's projections.
		proj := map[string]bool{}
		for _, row := range in.Rows(d.To) {
			proj[projectKey(row, d.ToCols)] = true
		}
		for _, row := range in.Rows(d.From) {
			if !proj[projectKey(row, d.FromCols)] {
				bad++
			}
		}
	}
	return bad
}

func projectKey(row []string, cols []int) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = row[c]
	}
	return sources.Key(parts)
}

// RefutesRule reports whether the rule body is unsatisfiable on every
// instance satisfying the dependencies: it contains a positive literal
// From(ā) and a negated literal ¬To(b̄) such that some dependency maps
// ā's FromCols exactly onto b̄'s ToCols, and ToCols covers all of To's
// columns (so the dependency pins the whole negated tuple). Example 6 of
// the paper is the one-column case R[1] ⊆ S[0] against
// R(x, z), ¬S(z).
func (s Set) RefutesRule(r logic.CQ) bool {
	if r.False {
		return true
	}
	for _, d := range s {
		for _, pos := range r.Body {
			if pos.Negated || pos.Atom.Pred != d.From {
				continue
			}
			if maxCol(d.FromCols) >= pos.Atom.Arity() {
				continue
			}
			for _, neg := range r.Body {
				if !neg.Negated || neg.Atom.Pred != d.To {
					continue
				}
				if len(d.ToCols) != neg.Atom.Arity() || maxCol(d.ToCols) >= neg.Atom.Arity() {
					continue // dependency does not pin the whole tuple
				}
				match := true
				for i := range d.FromCols {
					if pos.Atom.Args[d.FromCols[i]] != neg.Atom.Args[d.ToCols[i]] {
						match = false
						break
					}
				}
				if match {
					return true
				}
			}
		}
	}
	return false
}

func maxCol(cols []int) int {
	m := -1
	for _, c := range cols {
		if c > m {
			m = c
		}
	}
	return m
}

// Optimize drops rules refuted by the dependencies (the compile-time
// semantic optimization of Example 6). The result is equivalent to the
// input on every instance satisfying the dependencies.
func (s Set) Optimize(u logic.UCQ) logic.UCQ {
	var rules []logic.CQ
	for _, r := range u.Rules {
		if s.RefutesRule(r) {
			continue
		}
		rules = append(rules, r.Clone())
	}
	return logic.UCQ{Rules: rules}
}
