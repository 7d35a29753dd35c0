package logic

import "fmt"

// UCQ is a union of conjunctive queries with negation (UCQ¬) in rule form:
// a set of CQ¬ rules with identical heads. A UCQ with no rules is the
// query "false" (it returns no tuples and is vacuously executable).
type UCQ struct {
	Rules []CQ
}

// Union constructs a UCQ from rules.
func Union(rules ...CQ) UCQ {
	out := make([]CQ, len(rules))
	for i, r := range rules {
		out[i] = r.Clone()
	}
	return UCQ{Rules: out}
}

// Clone returns a deep copy in three allocations: the rules, every
// body literal and every term are each cut from one exactly sized
// slice, every cut capped at its own end, so that an append to one
// rule's Body or one atom's Args copies it out rather than writing
// into its neighbour's.
func (u UCQ) Clone() UCQ {
	lits, terms := 0, 0
	for _, r := range u.Rules {
		lits += len(r.Body)
		terms += len(r.HeadArgs)
		for _, l := range r.Body {
			terms += len(l.Atom.Args)
		}
	}
	rules := make([]CQ, len(u.Rules))
	litArena := make([]Literal, 0, lits)
	termArena := make([]Term, 0, terms)
	cutTerms := func(ts []Term) []Term {
		start := len(termArena)
		termArena = append(termArena, ts...)
		return termArena[start:len(termArena):len(termArena)]
	}
	for i, r := range u.Rules {
		start := len(litArena)
		for _, l := range r.Body {
			litArena = append(litArena, Literal{Atom: Atom{Pred: l.Atom.Pred, Args: cutTerms(l.Atom.Args)}, Negated: l.Negated})
		}
		rules[i] = CQ{HeadPred: r.HeadPred, HeadArgs: cutTerms(r.HeadArgs), Body: litArena[start:len(litArena):len(litArena)], False: r.False}
	}
	return UCQ{Rules: rules}
}

// IsFalse reports whether the union has no satisfiable rule bodies
// syntactically present (i.e. no rules at all, or all rules are "false").
func (u UCQ) IsFalse() bool {
	for _, r := range u.Rules {
		if !r.False {
			return false
		}
	}
	return true
}

// HeadPred returns the head predicate (empty for an empty union).
func (u UCQ) HeadPred() string {
	if len(u.Rules) == 0 {
		return ""
	}
	return u.Rules[0].HeadPred
}

// HeadArity returns the arity of the head (0 for an empty union).
func (u UCQ) HeadArity() int {
	if len(u.Rules) == 0 {
		return 0
	}
	return len(u.Rules[0].HeadArgs)
}

// Safe reports whether every rule is safe and all rules have the same
// head predicate, arity, and free variables, per Section 2 of the paper.
func (u UCQ) Safe() bool { return u.Validate() == nil }

// Validate returns an error describing why the union is malformed, or nil.
func (u UCQ) Validate() error {
	if len(u.Rules) == 0 {
		return nil
	}
	first := u.Rules[0]
	for i, r := range u.Rules {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("rule %d: %w", i+1, err)
		}
		if r.HeadPred != first.HeadPred || len(r.HeadArgs) != len(first.HeadArgs) {
			return fmt.Errorf("rule %d: head %s/%d differs from %s/%d",
				i+1, r.HeadPred, len(r.HeadArgs), first.HeadPred, len(first.HeadArgs))
		}
		for j := range r.HeadArgs {
			if r.HeadArgs[j] != first.HeadArgs[j] {
				return fmt.Errorf("rule %d: head argument %d (%s) differs from rule 1 (%s); all rules of a union must share the same head",
					i+1, j+1, r.HeadArgs[j], first.HeadArgs[j])
			}
		}
	}
	return nil
}

// Equal reports syntactic equality (same rules in the same order).
func (u UCQ) Equal(v UCQ) bool {
	if len(u.Rules) != len(v.Rules) {
		return false
	}
	for i := range u.Rules {
		if !u.Rules[i].Equal(v.Rules[i]) {
			return false
		}
	}
	return true
}

// EqualAsSet reports equality where both rule order and body literal order
// are ignored.
func (u UCQ) EqualAsSet(v UCQ) bool {
	if len(u.Rules) != len(v.Rules) {
		return false
	}
	used := make([]bool, len(v.Rules))
outer:
	for _, r := range u.Rules {
		for j, s := range v.Rules {
			if !used[j] && r.EqualAsSet(s) {
				used[j] = true
				continue outer
			}
		}
		return false
	}
	return true
}

// Relations returns relation name → arity over all rules.
func (u UCQ) Relations() map[string]int {
	out := map[string]int{}
	for _, r := range u.Rules {
		for name, ar := range r.Relations() {
			out[name] = ar
		}
	}
	return out
}

// HasNull reports whether any rule has a null head argument. FEASIBLE
// (Figure 3 of the paper) uses this to conclude infeasibility.
func (u UCQ) HasNull() bool {
	for _, r := range u.Rules {
		if r.HasNullHead() {
			return true
		}
	}
	return false
}

// DropFalseRules returns the union without rules marked false.
func (u UCQ) DropFalseRules() UCQ {
	var rules []CQ
	for _, r := range u.Rules {
		if !r.False {
			rules = append(rules, r.Clone())
		}
	}
	return UCQ{Rules: rules}
}

// String renders the union one rule per line.
func (u UCQ) String() string {
	if len(u.Rules) == 0 {
		return "<empty union (false)>"
	}
	n := len(u.Rules) - 1
	for _, r := range u.Rules {
		n += r.renderLen()
	}
	return render(n, func(b []byte) []byte { return u.appendTo(b) })
}

// appendTo appends the union's rendering, one rule per line, to b.
func (u UCQ) appendTo(b []byte) []byte {
	for i, r := range u.Rules {
		if i > 0 {
			b = append(b, '\n')
		}
		b = r.appendTo(b)
	}
	return b
}

// AsUnion wraps a single CQ¬ as a UCQ¬.
func AsUnion(q CQ) UCQ { return UCQ{Rules: []CQ{q.Clone()}} }
