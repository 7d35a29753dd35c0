// Package parser implements the textual surface syntax of the library:
// Datalog-style rules for CQ¬/UCQ¬ queries, access-pattern declarations
// (B^ioo), and database instances as lists of ground facts.
//
// Syntax summary:
//
//	Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).   # a rule; "<-" also works
//	Q(x)       :- false.                            # the empty query
//	B^ioo  B^oio  C^oo  L^o                         # access patterns
//	B("0471", "knuth", "taocp").                    # a fact
//
// In argument position, bare identifiers are variables, quoted strings and
// numbers are constants, and the keyword null is the distinguished null.
// Comments run from '#' or '%' to end of line.
package parser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString // quoted constant
	tokNumber
	tokLParen
	tokRParen
	tokComma
	tokCaret
	tokArrow // :- or <-
	tokPeriod
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string"
	case tokNumber:
		return "number"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokCaret:
		return "'^'"
	case tokArrow:
		return "':-'"
	case tokPeriod:
		return "'.'"
	}
	return "unknown token"
}

type token struct {
	text string
	line int32
	kind tokenKind
}

type lexer struct {
	src  string
	off  int
	line int32
}

// lex tokenizes src into one slice, sized by tokenBound so that it never
// grows, returning an error with line information on the first
// malformed token.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1}
	toks := make([]token, 0, tokenBound(src))
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// tokenBound bounds the tokens lex returns for src, its end-of-input
// token included: one for every byte of ()^,.:<-"' and one for every
// other run of bytes without space or one of those. A token starts at
// such a byte or run, and a run holds two tokens only where a number is
// followed straight by a letter, which no text that parses has.
func tokenBound(src string) int {
	n, inRun := 1, false
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case ' ', '\t', '\r', '\n':
			inRun = false
		case '(', ')', ',', '^', '.', ':', '<', '-', '"', '\'':
			n++
			inRun = false
		default:
			if !inRun {
				n++
				inRun = true
			}
		}
	}
	return n
}

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("parser: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	// Skip whitespace and comments.
	for l.off < len(l.src) {
		c := l.src[l.off]
		switch {
		case c == '\n':
			l.line++
			l.off++
		case c == ' ' || c == '\t' || c == '\r':
			l.off++
		case c == '#' || c == '%':
			for l.off < len(l.src) && l.src[l.off] != '\n' {
				l.off++
			}
		default:
			goto scan
		}
	}
scan:
	if l.off >= len(l.src) {
		return token{kind: tokEOF, line: l.line}, nil
	}
	line := l.line
	c := l.src[l.off]
	switch {
	case c == '(':
		l.off++
		return token{"(", line, tokLParen}, nil
	case c == ')':
		l.off++
		return token{")", line, tokRParen}, nil
	case c == ',':
		l.off++
		return token{",", line, tokComma}, nil
	case c == '^':
		l.off++
		return token{"^", line, tokCaret}, nil
	case c == '.':
		l.off++
		return token{".", line, tokPeriod}, nil
	case c == ':':
		if strings.HasPrefix(l.src[l.off:], ":-") {
			l.off += 2
			return token{":-", line, tokArrow}, nil
		}
		return token{}, l.errf("unexpected ':'; did you mean ':-'?")
	case c == '<':
		if strings.HasPrefix(l.src[l.off:], "<-") {
			l.off += 2
			return token{"<-", line, tokArrow}, nil
		}
		return token{}, l.errf("unexpected '<'; did you mean '<-'?")
	case c == '"' || c == '\'':
		quote := c
		l.off++
		start, escaped := l.off, false
		for l.off < len(l.src) {
			switch d := l.src[l.off]; {
			case d == '\n':
				return token{}, l.errf("newline in string literal")
			case d == '\\' && l.off+1 < len(l.src):
				escaped = true
				l.off += 2
				continue
			case d == quote:
				raw := l.src[start:l.off]
				l.off++
				if escaped {
					return token{unescape(raw), line, tokString}, nil
				}
				// A copy, not a window of src: a constant can outlive the
				// text by far (the engine interns values verbatim), and a
				// window would keep all of the text alive with it.
				return token{strings.Clone(raw), line, tokString}, nil
			}
			l.off++
		}
		return token{}, l.errf("unterminated string literal")
	case c >= '0' && c <= '9' || c == '-' && l.off+1 < len(l.src) && l.src[l.off+1] >= '0' && l.src[l.off+1] <= '9':
		end := l.off + 1
		for end < len(l.src) && (l.src[end] >= '0' && l.src[end] <= '9' || l.src[end] == '.') {
			// Don't swallow a rule-terminating period: only accept '.'
			// when followed by a digit.
			if l.src[end] == '.' && (end+1 >= len(l.src) || l.src[end+1] < '0' || l.src[end+1] > '9') {
				break
			}
			end++
		}
		text := strings.Clone(l.src[l.off:end]) // a constant, copied as a quoted one is
		l.off = end
		return token{text, line, tokNumber}, nil
	default:
		r, size := utf8.DecodeRuneInString(l.src[l.off:])
		if !isIdentStart(r) {
			return token{}, l.errf("unexpected character %q", r)
		}
		end := l.off + size
		for end < len(l.src) {
			r, size := utf8.DecodeRuneInString(l.src[end:])
			if !isIdentPart(r) {
				break
			}
			end += size
		}
		text := l.src[l.off:end]
		l.off = end
		return token{text, line, tokIdent}, nil
	}
}

// unescape decodes the escapes of a quoted constant's text, in which a
// backslash is never the last byte.
func unescape(raw string) string {
	var b strings.Builder
	b.Grow(len(raw))
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c == '\\' {
			i++
			switch c = raw[i]; c {
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			}
		}
		b.WriteByte(c)
	}
	return b.String()
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '\'' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
