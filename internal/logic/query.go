package logic

import (
	"fmt"
	"slices"
)

// CQ is a conjunctive query with negation (CQ¬) in Datalog rule form:
//
//	Head(HeadArgs) ← Body[0], …, Body[n-1]
//
// The free (distinguished) variables are the variables of the head; all
// other body variables are existentially quantified. A CQ with the False
// flag set is the query written "false" in the paper: it returns no tuples
// and is vacuously executable. A CQ with an empty body and False unset is
// the query "true", which is non-executable.
type CQ struct {
	HeadPred string
	HeadArgs []Term
	Body     []Literal
	False    bool
}

// FalseQuery returns the query "false" with the given head.
func FalseQuery(headPred string, headArgs []Term) CQ {
	return CQ{HeadPred: headPred, HeadArgs: cloneTerms(headArgs), False: true}
}

func cloneTerms(ts []Term) []Term {
	out := make([]Term, len(ts))
	copy(out, ts)
	return out
}

// Clone returns a deep copy of the query.
func (q CQ) Clone() CQ {
	body := make([]Literal, len(q.Body))
	for i, l := range q.Body {
		body[i] = l.Clone()
	}
	return CQ{HeadPred: q.HeadPred, HeadArgs: cloneTerms(q.HeadArgs), Body: body, False: q.False}
}

// Head returns the head as an atom.
func (q CQ) Head() Atom { return Atom{Pred: q.HeadPred, Args: q.HeadArgs} }

// FreeVars returns the distinguished variables of the query — the
// variables of the head — in order of first occurrence.
func (q CQ) FreeVars() []Term { return q.Head().Vars() }

// Vars returns all variables of the query (head and body) in order of
// first occurrence.
func (q CQ) Vars() []Term {
	var out []Term
	seen := map[string]bool{}
	add := func(ts []Term) {
		for _, t := range ts {
			if t.IsVar() && !seen[t.Name] {
				seen[t.Name] = true
				out = append(out, t)
			}
		}
	}
	add(q.HeadArgs)
	for _, l := range q.Body {
		add(l.Atom.Args)
	}
	return out
}

// BodyVars returns all variables appearing in the body.
func (q CQ) BodyVars() []Term {
	var out []Term
	seen := map[string]bool{}
	for _, l := range q.Body {
		for _, t := range l.Atom.Args {
			if t.IsVar() && !seen[t.Name] {
				seen[t.Name] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// Positive returns the positive literals of the body, in order. This is
// the query Q⁺ of the paper (viewed as a list of literals).
func (q CQ) Positive() []Literal {
	var out []Literal
	for _, l := range q.Body {
		if !l.Negated {
			out = append(out, l)
		}
	}
	return out
}

// Negative returns the negative literals of the body, in order. This is
// the query Q⁻ of the paper.
func (q CQ) Negative() []Literal {
	var out []Literal
	for _, l := range q.Body {
		if l.Negated {
			out = append(out, l)
		}
	}
	return out
}

// PositivePart returns the CQ whose body is Q⁺ with the same head.
func (q CQ) PositivePart() CQ {
	return CQ{HeadPred: q.HeadPred, HeadArgs: cloneTerms(q.HeadArgs), Body: q.Positive(), False: q.False}
}

// HasLiteral reports whether the body contains a literal syntactically
// equal to l.
func (q CQ) HasLiteral(l Literal) bool {
	for _, m := range q.Body {
		if m.Equal(l) {
			return true
		}
	}
	return false
}

// HasAtom reports whether the body contains the atom a with the given sign.
func (q CQ) HasAtom(a Atom, negated bool) bool {
	return q.HasLiteral(Literal{Atom: a, Negated: negated})
}

// Safe reports whether the query is safe: every variable of the query
// (including head variables) appears in a positive body literal. The
// query "false" is considered safe.
func (q CQ) Safe() bool {
	if q.False {
		return true
	}
	pos := map[string]bool{}
	for _, l := range q.Body {
		if l.Negated {
			continue
		}
		for _, t := range l.Atom.Args {
			if t.IsVar() {
				pos[t.Name] = true
			}
		}
	}
	for _, v := range q.Vars() {
		if !pos[v.Name] {
			return false
		}
	}
	return true
}

// HeadSafe reports whether every head variable appears in a positive body
// literal (range restriction). This is weaker than Safe: variables that
// occur only in negated literals are tolerated, because the paper itself
// uses such queries (Example 3); their semantics is existential over the
// active domain. The strict notion required by the theory is Safe.
func (q CQ) HeadSafe() bool {
	if q.False {
		return true
	}
	for _, t := range q.HeadArgs {
		if t.IsVar() && !q.positiveVar(t) {
			return false
		}
	}
	return true
}

// positiveVar reports whether variable v occurs in a positive body
// literal.
func (q CQ) positiveVar(v Term) bool {
	for _, l := range q.Body {
		if !l.Negated && slices.Contains(l.Atom.Args, v) {
			return true
		}
	}
	return false
}

// Validate returns an error describing why the query is malformed, or nil.
// It checks range restriction of the head (HeadSafe); use Safe for the
// paper's strict safety notion.
func (q CQ) Validate() error {
	if q.HeadPred == "" {
		return fmt.Errorf("logic: query has empty head predicate")
	}
	if q.False {
		if len(q.Body) != 0 {
			return fmt.Errorf("logic: false query %s must have empty body", q.HeadPred)
		}
		return nil
	}
	if !q.HeadSafe() {
		return fmt.Errorf("logic: query %s is not range-restricted: some head variable does not appear in a positive body literal", q.HeadPred)
	}
	return nil
}

// Equal reports syntactic equality (same head, same body in the same order).
func (q CQ) Equal(r CQ) bool {
	if q.False != r.False || q.HeadPred != r.HeadPred || len(q.HeadArgs) != len(r.HeadArgs) || len(q.Body) != len(r.Body) {
		return false
	}
	for i := range q.HeadArgs {
		if q.HeadArgs[i] != r.HeadArgs[i] {
			return false
		}
	}
	for i := range q.Body {
		if !q.Body[i].Equal(r.Body[i]) {
			return false
		}
	}
	return true
}

// EqualAsSet reports equality of head and body where body literal order is
// ignored (but multiplicity beyond set membership is not significant).
func (q CQ) EqualAsSet(r CQ) bool {
	if q.False != r.False || q.HeadPred != r.HeadPred || len(q.HeadArgs) != len(r.HeadArgs) {
		return false
	}
	for i := range q.HeadArgs {
		if q.HeadArgs[i] != r.HeadArgs[i] {
			return false
		}
	}
	qs := map[string]bool{}
	for _, l := range q.Body {
		qs[l.Key()] = true
	}
	rs := map[string]bool{}
	for _, l := range r.Body {
		rs[l.Key()] = true
	}
	if len(qs) != len(rs) {
		return false
	}
	for k := range qs {
		if !rs[k] {
			return false
		}
	}
	return true
}

// HasNullHead reports whether any head argument is null.
func (q CQ) HasNullHead() bool {
	for _, t := range q.HeadArgs {
		if t.IsNull() {
			return true
		}
	}
	return false
}

// String renders the query in rule form, e.g.
//
//	Q(x, y) :- R(x, z), not S(z), B(x, y)
func (q CQ) String() string {
	return render(q.renderLen(), func(b []byte) []byte { return q.appendTo(b) })
}

// renderLen returns the length of the query's rendering.
func (q CQ) renderLen() int {
	n := q.Head().renderLen() + len(" :- ")
	switch {
	case q.False:
		return n + len("false")
	case len(q.Body) == 0:
		return n + len("true")
	}
	n += 2 * (len(q.Body) - 1)
	for _, l := range q.Body {
		n += l.renderLen()
	}
	return n
}

// appendTo appends the query's rendering to b.
func (q CQ) appendTo(b []byte) []byte {
	b = q.Head().AppendTo(b)
	b = append(b, " :- "...)
	switch {
	case q.False:
		return append(b, "false"...)
	case len(q.Body) == 0:
		return append(b, "true"...)
	}
	for i, l := range q.Body {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = l.AppendTo(b)
	}
	return b
}

// Key returns a canonical string usable as a map key for the query.
func (q CQ) Key() string { return q.String() }

// Relations returns the set of relation names used in the body.
func (q CQ) Relations() map[string]int {
	out := map[string]int{}
	for _, l := range q.Body {
		out[l.Atom.Pred] = l.Atom.Arity()
	}
	return out
}
