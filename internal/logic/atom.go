package logic

// Atom is a predicate applied to a sequence of terms, R(x̄).
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom constructs an atom.
func NewAtom(pred string, args ...Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return Atom{Pred: a.Pred, Args: args}
}

// Equal reports syntactic equality of two atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// Vars returns the variables of the atom in order of first occurrence.
func (a Atom) Vars() []Term {
	var out []Term
	seen := map[string]bool{}
	for _, t := range a.Args {
		if t.IsVar() && !seen[t.Name] {
			seen[t.Name] = true
			out = append(out, t)
		}
	}
	return out
}

// String renders the atom, e.g. R(x, "c").
func (a Atom) String() string {
	return render(a.renderLen(), func(b []byte) []byte { return a.AppendTo(b) })
}

// renderLen returns the length of the atom's rendering.
func (a Atom) renderLen() int {
	n := len(a.Pred) + 2 + 2*max(len(a.Args)-1, 0)
	for _, t := range a.Args {
		n += t.renderLen()
	}
	return n
}

// AppendTo appends the atom's rendering, String's bytes, to b.
func (a Atom) AppendTo(b []byte) []byte {
	b = append(b, a.Pred...)
	b = append(b, '(')
	for i, t := range a.Args {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = t.appendTo(b)
	}
	return append(b, ')')
}

// Key returns a canonical string usable as a map key for the atom.
func (a Atom) Key() string { return a.String() }

// Literal is an atom or its negation.
type Literal struct {
	Atom    Atom
	Negated bool
}

// Pos returns a positive literal over the atom.
func Pos(a Atom) Literal { return Literal{Atom: a} }

// Neg returns a negated literal over the atom.
func Neg(a Atom) Literal { return Literal{Atom: a, Negated: true} }

// Clone returns a deep copy of the literal.
func (l Literal) Clone() Literal {
	return Literal{Atom: l.Atom.Clone(), Negated: l.Negated}
}

// Equal reports syntactic equality of two literals.
func (l Literal) Equal(m Literal) bool {
	return l.Negated == m.Negated && l.Atom.Equal(m.Atom)
}

// Complement returns the literal with opposite sign.
func (l Literal) Complement() Literal {
	return Literal{Atom: l.Atom, Negated: !l.Negated}
}

// Vars returns the variables of the literal in order of first occurrence.
func (l Literal) Vars() []Term { return l.Atom.Vars() }

// String renders the literal, e.g. not S(z).
func (l Literal) String() string {
	return render(l.renderLen(), func(b []byte) []byte { return l.AppendTo(b) })
}

// renderLen returns the length of the literal's rendering.
func (l Literal) renderLen() int {
	if l.Negated {
		return len("not ") + l.Atom.renderLen()
	}
	return l.Atom.renderLen()
}

// AppendTo appends the literal's rendering, String's bytes, to b.
func (l Literal) AppendTo(b []byte) []byte {
	if l.Negated {
		b = append(b, "not "...)
	}
	return l.Atom.AppendTo(b)
}

// Key returns a canonical string usable as a map key for the literal.
func (l Literal) Key() string { return l.String() }
