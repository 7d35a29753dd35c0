// Package mediator implements global-as-view (GAV) query unfolding: the
// front half of the database mediator the paper was built for
// (Section 6: "The current prototype takes a query against a
// global-as-view definition and unfolds it into a UCQ¬ plan"). Each
// global relation is defined as a union of conjunctive queries over the
// source relations; a client query over the global schema unfolds into a
// UCQ¬ over the sources, which internal/core then plans under the
// sources' access patterns.
package mediator

import (
	"fmt"
	"sort"

	"repro/internal/logic"
)

// MaxUnfoldedRules caps the rules one unfolding may produce. Unfolding
// multiplies: each positive literal over a k-rule view multiplies the
// rules built so far by k, so a handful of views nest into billions of
// rules. The cap is checked before a product is built.
const MaxUnfoldedRules = 4096

// ErrUnfoldLimit is the error, wrapped, of an unfolding that would pass
// MaxUnfoldedRules.
var ErrUnfoldLimit = fmt.Errorf("mediator: unfolding exceeds %d rules", MaxUnfoldedRules)

// Views is a set of GAV view definitions, one per global relation.
type Views struct {
	defs map[string]logic.UCQ
}

// NewViews returns an empty view set.
func NewViews() *Views { return &Views{defs: map[string]logic.UCQ{}} }

// Add registers the definition of one global relation; def's head names
// the global relation. Definitions are unions of safe CQ¬ rules; a
// definition that uses negation can be referenced positively (its body
// is spliced in), but not under negation (see Unfold). Head arguments
// must be distinct variables.
func (v *Views) Add(def logic.UCQ) error {
	if len(def.Rules) == 0 {
		return fmt.Errorf("mediator: empty view definition")
	}
	if err := def.Validate(); err != nil {
		return fmt.Errorf("mediator: invalid view: %w", err)
	}
	name := def.HeadPred()
	if _, dup := v.defs[name]; dup {
		return fmt.Errorf("mediator: duplicate view definition for %s", name)
	}
	seen := map[string]bool{}
	for _, t := range def.Rules[0].HeadArgs {
		if !t.IsVar() || seen[t.Name] {
			return fmt.Errorf("mediator: view %s head arguments must be distinct variables", name)
		}
		seen[t.Name] = true
	}
	for _, r := range def.Rules {
		if !r.Safe() {
			return fmt.Errorf("mediator: view %s has an unsafe rule", name)
		}
	}
	v.defs[name] = def.Clone()
	return nil
}

// MustAdd is Add that panics on error.
func (v *Views) MustAdd(def logic.UCQ) *Views {
	if err := v.Add(def); err != nil {
		panic(err)
	}
	return v
}

// ParseAdd parses rules and registers them as one view definition.
func (v *Views) ParseAdd(src string, parse func(string) (logic.UCQ, error)) error {
	def, err := parse(src)
	if err != nil {
		return err
	}
	return v.Add(def)
}

// Defined reports whether the relation has a view definition.
func (v *Views) Defined(name string) bool {
	_, ok := v.defs[name]
	return ok
}

// Globals returns the defined global relation names, sorted.
func (v *Views) Globals() []string {
	out := make([]string, 0, len(v.defs))
	for n := range v.defs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Unfold rewrites a UCQ¬ query over the global schema into a UCQ¬ over
// the source relations:
//
//   - a positive global literal G(x̄) is replaced by the body of each
//     disjunct of G's definition (one output rule per combination of
//     choices), with the definition's variables renamed apart and its
//     head unified with x̄;
//   - a negated global literal ¬G(x̄) is expressible in UCQ¬ only when
//     every disjunct of G's definition is a single atom without
//     existential variables; it then becomes the conjunction of the
//     negated source atoms (¬(A ∨ B) = ¬A ∧ ¬B). Otherwise Unfold
//     returns an error, because ¬∃ȳ φ(ȳ) has no UCQ¬ equivalent;
//   - literals over undefined (source) relations pass through unchanged.
//
// It fails with ErrUnfoldLimit once the result would pass
// MaxUnfoldedRules rules.
func (v *Views) Unfold(q logic.UCQ) (logic.UCQ, error) {
	var out []logic.CQ
	for _, r := range q.Rules {
		rules, err := v.unfoldRule(r, MaxUnfoldedRules-len(out))
		if err != nil {
			return logic.UCQ{}, err
		}
		out = append(out, rules...)
	}
	u := logic.UCQ{Rules: out}
	if err := u.Validate(); err != nil {
		return logic.UCQ{}, fmt.Errorf("mediator: unfolding produced an invalid query: %w", err)
	}
	return u, nil
}

// unfoldRule expands one rule into the cross product of its positive
// global literals' definitions, of at most limit rules.
func (v *Views) unfoldRule(r logic.CQ, limit int) ([]logic.CQ, error) {
	if limit < 1 {
		return nil, ErrUnfoldLimit
	}
	if r.False {
		return []logic.CQ{r.Clone()}, nil
	}
	partial := []logic.CQ{{HeadPred: r.HeadPred, HeadArgs: append([]logic.Term(nil), r.HeadArgs...)}}
	for _, l := range r.Body {
		def, isGlobal := v.defs[l.Atom.Pred]
		if !isGlobal {
			for i := range partial {
				partial[i].Body = append(partial[i].Body, l.Clone())
			}
			continue
		}
		if l.Negated {
			lits, err := negatedExpansion(l.Atom, def)
			if err != nil {
				return nil, err
			}
			for i := range partial {
				partial[i].Body = append(partial[i].Body, lits...)
			}
			continue
		}
		if len(partial)*len(def.Rules) > limit {
			return nil, fmt.Errorf("%w: %s", ErrUnfoldLimit, r)
		}
		next := make([]logic.CQ, 0, len(partial)*len(def.Rules))
		for _, p := range partial {
			for _, d := range def.Rules {
				expanded, err := inline(p, l.Atom, d, r)
				if err != nil {
					return nil, err
				}
				next = append(next, expanded)
			}
		}
		partial = next
	}
	return partial, nil
}

// inline appends definition rule d's body to partial rule p, renaming
// d's variables apart from everything used so far and unifying d's head
// with the call atom.
func inline(p logic.CQ, call logic.Atom, d logic.CQ, orig logic.CQ) (logic.CQ, error) {
	if len(d.HeadArgs) != len(call.Args) {
		return logic.CQ{}, fmt.Errorf("mediator: %s called with arity %d, defined with %d",
			call.Pred, len(call.Args), len(d.HeadArgs))
	}
	taken := logic.VarNames(orig)
	for k, v := range logic.VarNames(p) {
		taken[k] = v
	}
	fresh, _ := logic.RenameApart(d, taken)
	// Substitute the (renamed) head variables by the call arguments.
	sub := logic.NewSubst()
	for j, hv := range fresh.HeadArgs {
		sub[hv.Name] = call.Args[j]
	}
	out := p.Clone()
	for _, l := range fresh.Body {
		out.Body = append(out.Body, sub.Literal(l))
	}
	return out, nil
}

// negatedExpansion turns ¬G(x̄) into negated source atoms when G's
// definition permits it.
func negatedExpansion(call logic.Atom, def logic.UCQ) ([]logic.Literal, error) {
	var out []logic.Literal
	for _, d := range def.Rules {
		if len(d.Body) != 1 || d.Body[0].Negated {
			return nil, fmt.Errorf("mediator: cannot unfold negated %s: definition disjunct must be a single positive atom",
				call.Pred)
		}
		atom := d.Body[0].Atom
		// Every variable of the disjunct body must be a head variable
		// (no existentials under the negation).
		headVar := map[string]int{}
		for j, t := range d.HeadArgs {
			headVar[t.Name] = j
		}
		args := make([]logic.Term, len(atom.Args))
		for j, t := range atom.Args {
			if t.IsConst() {
				args[j] = t
				continue
			}
			hj, ok := headVar[t.Name]
			if !ok {
				return nil, fmt.Errorf("mediator: cannot unfold negated %s: definition has existential variable %s under the negation",
					call.Pred, t.Name)
			}
			args[j] = call.Args[hj]
		}
		out = append(out, logic.Neg(logic.NewAtom(atom.Pred, args...)))
	}
	return out, nil
}
