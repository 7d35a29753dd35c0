package engine

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/sources"
)

// binding maps variable names to constant values during naive
// evaluation.
type binding map[string]string

func (b binding) clone() binding {
	out := make(binding, len(b)+2)
	for k, v := range b {
		out[k] = v
	}
	return out
}

// AnswerNaive evaluates a UCQ¬ query directly over the instance, ignoring
// access patterns. It is the ground truth ANSWER(Q, D) used by tests and
// experiments to judge the completeness of limited-access plans.
//
// Negated literals whose variables are all bound are absence checks.
// Variables occurring only in negated literals (the paper's Example 3
// admits them) are read existentially over the active domain.
func AnswerNaive(u logic.UCQ, in *Instance) (*Rel, error) {
	out := NewRel()
	for _, rule := range u.Rules {
		if rule.False {
			continue
		}
		if err := naiveRule(rule, in, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func naiveRule(q logic.CQ, in *Instance, out *Rel) error {
	// Join all positive literals first (full scans), then apply negations.
	bindings := []binding{{}}
	for _, l := range q.Positive() {
		var next []binding
		rows := in.Rows(l.Atom.Pred)
		if got := in.Arity(l.Atom.Pred); got >= 0 && got != l.Atom.Arity() {
			return fmt.Errorf("engine: relation %s has arity %d, query uses %d", l.Atom.Pred, got, l.Atom.Arity())
		}
		for _, b := range bindings {
			for _, t := range rows {
				if nb := tupleMatches(l.Atom, t, b); nb != nil {
					next = append(next, nb)
				}
			}
		}
		bindings = next
		if len(bindings) == 0 {
			return nil
		}
	}
	adom := in.ActiveDomain()
	negs := q.Negative()
	for _, b := range bindings {
		ok, err := negsSatisfied(negs, b, in, adom)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		row, err := headRow(q, b)
		if err != nil {
			return err
		}
		out.Add(row)
	}
	return nil
}

// negsSatisfied decides the conjunction of negated literals under b.
// Variables unbound after the positive join are existentially quantified
// over the active domain, jointly across all negated literals (so a
// variable shared by two negations gets a single witness value).
func negsSatisfied(negs []logic.Literal, b binding, in *Instance, adom []string) (bool, error) {
	var names []string
	seen := map[string]bool{}
	for _, l := range negs {
		for _, t := range l.Atom.Args {
			if t.IsNull() {
				return false, fmt.Errorf("engine: null in body atom %s", l.Atom)
			}
			if t.IsVar() && !seen[t.Name] {
				if _, bound := b[t.Name]; !bound {
					seen[t.Name] = true
					names = append(names, t.Name)
				}
			}
		}
	}
	check := func(bb binding) bool {
		for _, l := range negs {
			vals := make([]string, len(l.Atom.Args))
			for j, t := range l.Atom.Args {
				if t.IsConst() {
					vals[j] = t.Name
				} else {
					vals[j] = bb[t.Name]
				}
			}
			if in.Has(l.Atom.Pred, vals...) {
				return false
			}
		}
		return true
	}
	if len(names) == 0 {
		return check(b), nil
	}
	if len(adom) == 0 {
		return false, nil
	}
	ext := b.clone()
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(names) {
			return check(ext)
		}
		for _, v := range adom {
			ext[names[k]] = v
			if rec(k + 1) {
				return true
			}
		}
		return false
	}
	return rec(0), nil
}

// tupleMatches unifies the atom's arguments with a returned tuple under
// binding b, returning the extended binding or nil on mismatch. (Sources
// may return tuples that disagree with already-bound output slots; the
// join filters them, per footnote 4 of the paper.)
func tupleMatches(a logic.Atom, t sources.Tuple, b binding) binding {
	nb := b
	copied := false
	for j, arg := range a.Args {
		switch {
		case arg.IsConst():
			if t[j] != arg.Name {
				return nil
			}
		case arg.IsVar():
			if v, ok := nb[arg.Name]; ok {
				if v != t[j] {
					return nil
				}
				continue
			}
			if !copied {
				nb = nb.clone()
				copied = true
			}
			nb[arg.Name] = t[j]
		default:
			return nil // null in a body atom never matches stored data
		}
	}
	if !copied && len(a.Args) > 0 {
		// All arguments were already bound or constants; reuse b.
		return b
	}
	return nb
}

// headRow builds the answer row for a binding. Null head arguments (from
// overestimate rules) become null values; unbound head variables are an
// error (the plan was unsafe).
func headRow(q logic.CQ, b binding) (Row, error) {
	row := make(Row, len(q.HeadArgs))
	for i, t := range q.HeadArgs {
		switch {
		case t.IsNull():
			row[i] = NullValue
		case t.IsConst():
			row[i] = V(t.Name)
		default:
			v, ok := b[t.Name]
			if !ok {
				return nil, fmt.Errorf("engine: head variable %s is unbound; plan for %s is unsafe", t.Name, q.HeadPred)
			}
			row[i] = V(v)
		}
	}
	return row, nil
}
