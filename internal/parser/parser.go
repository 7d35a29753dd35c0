package parser

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/logic"
)

type parser struct {
	toks []token
	pos  int
	// terms, lits and rules are the arenas a parse cuts its atoms'
	// arguments, its rules' bodies and its rules from, sized by
	// newParser. Every cut is capped at its own end, so that an append
	// to one atom's Args or one rule's Body copies it out rather than
	// writing into its neighbour's.
	terms []logic.Term
	lits  []logic.Literal
	rules []logic.CQ
}

// newParser returns a parser over toks with arenas sized by one count
// over them: a rule per arrow, an atom per '(' — a literal unless it is
// a rule's head — and a term per identifier, string or number inside
// parentheses. A text that parses fills them exactly.
func newParser(toks []token) parser {
	arrows, atoms, terms, depth := 0, 0, 0, 0
	for _, t := range toks {
		switch t.kind {
		case tokArrow:
			arrows++
		case tokLParen:
			atoms++
			depth++
		case tokRParen:
			depth--
		case tokIdent, tokString, tokNumber:
			if depth > 0 {
				terms++
			}
		}
	}
	return parser{
		toks:  toks,
		terms: make([]logic.Term, 0, terms),
		lits:  make([]logic.Literal, 0, max(atoms-arrows, 0)),
		rules: make([]logic.CQ, 0, arrows),
	}
}

// cut returns buf[start:], capped at its end, or nil when it is empty.
func cut[T any](buf []T, start int) []T {
	if len(buf) == start {
		return nil
	}
	return buf[start:len(buf):len(buf)]
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) advance()   { p.pos++ }
func (p *parser) at(k tokenKind) bool {
	return p.cur().kind == k
}

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.cur()
	if t.kind != k {
		return t, fmt.Errorf("parser: line %d: expected %s, found %s %q", t.line, k, t.kind, t.text)
	}
	p.advance()
	return t, nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("parser: line %d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

// ParseUCQ parses one or more rules into a UCQ¬. All rules must share the
// same head; the result is validated for safety.
func ParseUCQ(src string) (logic.UCQ, error) {
	toks, err := lex(src)
	if err != nil {
		return logic.UCQ{}, err
	}
	p := newParser(toks)
	for !p.at(tokEOF) {
		r, err := p.rule()
		if err != nil {
			return logic.UCQ{}, err
		}
		p.rules = append(p.rules, r)
	}
	if len(p.rules) == 0 {
		return logic.UCQ{}, fmt.Errorf("parser: no rules found")
	}
	u := logic.UCQ{Rules: cut(p.rules, 0)}
	if err := u.Validate(); err != nil {
		return logic.UCQ{}, fmt.Errorf("parser: %w", err)
	}
	return u, nil
}

// ParseRules parses a list of rules that may define several different
// head predicates (a nonrecursive Datalog¬ program), validating each
// rule individually but not the common-head property of ParseUCQ.
func ParseRules(src string) ([]logic.CQ, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := newParser(toks)
	for !p.at(tokEOF) {
		r, err := p.rule()
		if err != nil {
			return nil, err
		}
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("parser: %w", err)
		}
		p.rules = append(p.rules, r)
	}
	if len(p.rules) == 0 {
		return nil, fmt.Errorf("parser: no rules found")
	}
	return cut(p.rules, 0), nil
}

// MustRules is ParseRules that panics on error.
func MustRules(src string) []logic.CQ {
	rs, err := ParseRules(src)
	if err != nil {
		panic(err)
	}
	return rs
}

// ParseCQ parses exactly one rule into a CQ¬.
func ParseCQ(src string) (logic.CQ, error) {
	u, err := ParseUCQ(src)
	if err != nil {
		return logic.CQ{}, err
	}
	if len(u.Rules) != 1 {
		return logic.CQ{}, fmt.Errorf("parser: expected a single rule, found %d", len(u.Rules))
	}
	return u.Rules[0], nil
}

// MustUCQ is ParseUCQ that panics on error; for tests and fixtures.
func MustUCQ(src string) logic.UCQ {
	u, err := ParseUCQ(src)
	if err != nil {
		panic(err)
	}
	return u
}

// MustCQ is ParseCQ that panics on error; for tests and fixtures.
func MustCQ(src string) logic.CQ {
	q, err := ParseCQ(src)
	if err != nil {
		panic(err)
	}
	return q
}

// rule parses Head(args) :- body . where body is a comma-separated list of
// possibly negated atoms, or the keyword false or true.
func (p *parser) rule() (logic.CQ, error) {
	head, err := p.atom()
	if err != nil {
		return logic.CQ{}, err
	}
	if _, err := p.expect(tokArrow); err != nil {
		return logic.CQ{}, err
	}
	q := logic.CQ{HeadPred: head.Pred, HeadArgs: head.Args}
	// Special bodies.
	if p.at(tokIdent) && p.cur().text == "false" {
		p.advance()
		q.False = true
		return q, p.endOfRule()
	}
	if p.at(tokIdent) && p.cur().text == "true" {
		p.advance()
		return q, p.endOfRule()
	}
	start := len(p.lits)
	for {
		l, err := p.literal()
		if err != nil {
			return logic.CQ{}, err
		}
		p.lits = append(p.lits, l)
		if p.at(tokComma) {
			p.advance()
			continue
		}
		break
	}
	q.Body = cut(p.lits, start)
	return q, p.endOfRule()
}

// endOfRule consumes an optional terminating period.
func (p *parser) endOfRule() error {
	if p.at(tokPeriod) {
		p.advance()
	}
	return nil
}

func (p *parser) literal() (logic.Literal, error) {
	neg := false
	if p.at(tokIdent) && (p.cur().text == "not" || p.cur().text == "NOT") {
		p.advance()
		neg = true
	}
	a, err := p.atom()
	if err != nil {
		return logic.Literal{}, err
	}
	return logic.Literal{Atom: a, Negated: neg}, nil
}

func (p *parser) atom() (logic.Atom, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return logic.Atom{}, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return logic.Atom{}, err
	}
	start := len(p.terms)
	if !p.at(tokRParen) {
		for {
			t, err := p.term()
			if err != nil {
				return logic.Atom{}, err
			}
			p.terms = append(p.terms, t)
			if p.at(tokComma) {
				p.advance()
				continue
			}
			break
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return logic.Atom{}, err
	}
	return logic.Atom{Pred: name.text, Args: cut(p.terms, start)}, nil
}

func (p *parser) term() (logic.Term, error) {
	t := p.cur()
	switch t.kind {
	case tokIdent:
		p.advance()
		if t.text == "null" {
			return logic.Null, nil
		}
		return logic.Var(t.text), nil
	case tokString, tokNumber:
		p.advance()
		return logic.Const(t.text), nil
	default:
		return logic.Term{}, p.errf("expected a term, found %s %q", t.kind, t.text)
	}
}

// ParsePatterns parses access-pattern declarations like
//
//	B^ioo B^oio C^oo L^o
//
// separated by whitespace, commas, or periods.
func ParsePatterns(src string) (*access.Set, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	set := access.NewSet()
	for !p.at(tokEOF) {
		if p.at(tokComma) || p.at(tokPeriod) {
			p.advance()
			continue
		}
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokCaret); err != nil {
			return nil, err
		}
		word, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		pat, err := access.ParsePattern(word.text)
		if err != nil {
			return nil, fmt.Errorf("parser: line %d: %w", word.line, err)
		}
		if err := set.Add(name.text, pat); err != nil {
			return nil, fmt.Errorf("parser: line %d: %w", name.line, err)
		}
	}
	return set, nil
}

// MustPatterns is ParsePatterns that panics on error.
func MustPatterns(src string) *access.Set {
	s, err := ParsePatterns(src)
	if err != nil {
		panic(err)
	}
	return s
}

// Fact is a ground atom of a database instance.
type Fact struct {
	Pred string
	Args []string
}

// ParseFacts parses a database instance given as ground facts, e.g.
//
//	B("0471", "knuth", "taocp").
//	C("0471", "knuth").
//
// Arguments must be constants (quoted strings or numbers).
func ParseFacts(src string) ([]Fact, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := newParser(toks)
	var facts []Fact
	for !p.at(tokEOF) {
		a, err := p.atom()
		if err != nil {
			return nil, err
		}
		f := Fact{Pred: a.Pred, Args: make([]string, len(a.Args))}
		for i, t := range a.Args {
			if !t.IsConst() {
				return nil, fmt.Errorf("parser: fact %s has non-constant argument %s; quote constants", a.Pred, t)
			}
			f.Args[i] = t.Name
		}
		facts = append(facts, f)
		if err := p.endOfRule(); err != nil {
			return nil, err
		}
	}
	return facts, nil
}

// MustFacts is ParseFacts that panics on error.
func MustFacts(src string) []Fact {
	fs, err := ParseFacts(src)
	if err != nil {
		panic(err)
	}
	return fs
}
