// Package logic defines the logical core used throughout the library:
// terms, atoms, literals, conjunctive queries with negation (CQ¬) and
// unions of conjunctive queries with negation (UCQ¬) in Datalog rule form,
// together with substitutions, safety checking, and canonical printing.
//
// The representation follows Section 2 of Nash & Ludäscher, "Processing
// Unions of Conjunctive Queries with Negation under Limited Access
// Patterns" (EDBT 2004). Queries are treated as immutable values: every
// algorithm that needs to change a query clones it first.
package logic

import "unsafe"

// Kind classifies a Term.
type Kind uint8

const (
	// KindVar is a variable. Variables are written in lowercase in the
	// paper; here any name is allowed and the Kind field is authoritative.
	KindVar Kind = iota
	// KindConst is a constant.
	KindConst
	// KindNull is the distinguished null value used in overestimate plans
	// (Section 4.1 of the paper) for head variables whose value cannot be
	// retrieved under the given access patterns.
	KindNull
)

// Term is a variable, a constant, or the distinguished null.
// The zero value is the variable with the empty name, which is invalid;
// use Var, Const, or Null to construct terms.
type Term struct {
	Name string
	Kind Kind
}

// Var returns a variable term with the given name.
func Var(name string) Term { return Term{Name: name, Kind: KindVar} }

// Const returns a constant term with the given name.
func Const(name string) Term { return Term{Name: name, Kind: KindConst} }

// Null is the distinguished null term.
var Null = Term{Name: "null", Kind: KindNull}

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return t.Kind == KindVar }

// IsConst reports whether t is a constant.
func (t Term) IsConst() bool { return t.Kind == KindConst }

// IsNull reports whether t is the null term.
func (t Term) IsNull() bool { return t.Kind == KindNull }

// String renders the term. Constants are double-quoted with the minimal
// escaping the parser's lexer understands (backslash, quote, newline,
// carriage return, tab); all other bytes are printed raw, so printing
// and parsing round-trip arbitrary constant values.
func (t Term) String() string {
	switch t.Kind {
	case KindNull:
		return "null"
	case KindConst:
		return render(t.renderLen(), func(b []byte) []byte { return t.appendTo(b) })
	default:
		return t.Name
	}
}

// stackRender is the longest rendering render builds on the stack.
const stackRender = 512

// render returns the n-byte rendering that app appends, in one
// allocation: up to stackRender bytes are appended on the stack and
// copied out; a longer rendering is appended into a heap buffer of its
// exact length, which becomes the string without a copy. Callers pass
// a function literal: render is inlined and the literal's call with it,
// which keeps the stack buffer on the stack (a method value would not).
func render(n int, app func([]byte) []byte) string {
	if n > stackRender {
		b := app(make([]byte, 0, n))
		return unsafe.String(unsafe.SliceData(b), len(b))
	}
	var buf [stackRender]byte
	return string(app(buf[:0]))
}

// renderLen returns the length of the term's rendering, so that a
// renderer can size its buffer once.
func (t Term) renderLen() int {
	switch t.Kind {
	case KindNull:
		return len("null")
	case KindConst:
		n := len(t.Name) + 2
		for i := 0; i < len(t.Name); i++ {
			switch t.Name[i] {
			case '\\', '"', '\n', '\r', '\t':
				n++
			}
		}
		return n
	default:
		return len(t.Name)
	}
}

// appendTo appends the term's rendering to b.
func (t Term) appendTo(b []byte) []byte {
	switch t.Kind {
	case KindNull:
		return append(b, "null"...)
	case KindConst:
		b = append(b, '"')
		s := t.Name
		for i := 0; i < len(s); i++ {
			switch c := s[i]; c {
			case '\\':
				b = append(b, `\\`...)
			case '"':
				b = append(b, `\"`...)
			case '\n':
				b = append(b, `\n`...)
			case '\r':
				b = append(b, `\r`...)
			case '\t':
				b = append(b, `\t`...)
			default:
				b = append(b, c)
			}
		}
		return append(b, '"')
	default:
		return append(b, t.Name...)
	}
}
