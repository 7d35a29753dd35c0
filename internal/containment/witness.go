package containment

import (
	"fmt"
	"strings"

	"repro/internal/logic"
)

// Witness is a checkable certificate for P ⊑ Q: either P is
// unsatisfiable, or a containment mapping σ into some disjunct Qᵢ
// together with one child witness per negative literal of Qᵢ (for
// P ∧ R(σȳ) ⊑ Q), exactly the tree of Theorem 13. Witnesses make the
// Π₂ᴾ decision auditable: Verify re-checks one in polynomial time
// (relative to the witness size).
type Witness struct {
	// Unsat is set when P itself is unsatisfiable (base case).
	Unsat bool
	// Disjunct is the index of the disjunct of Q that σ maps into.
	Disjunct int
	// Mapping is the containment mapping σ: vars(Qᵢ) → terms(P).
	Mapping logic.Subst
	// Children holds one entry per negative literal of Qᵢ, in order.
	Children []ChildWitness
}

// ChildWitness justifies one negative literal of the chosen disjunct.
type ChildWitness struct {
	// Negative is the literal ¬R(ȳ) of Qᵢ.
	Negative logic.Literal
	// Added is R(σȳ), the atom conjoined to P.
	Added logic.Atom
	// Sub is the witness for P ∧ R(σȳ) ⊑ Q.
	Sub *Witness
}

// String renders the witness tree.
func (w *Witness) String() string {
	var b strings.Builder
	w.render(&b, 0)
	return strings.TrimRight(b.String(), "\n")
}

func (w *Witness) render(b *strings.Builder, depth int) {
	pad := strings.Repeat("  ", depth)
	if w.Unsat {
		fmt.Fprintf(b, "%sunsatisfiable (trivially contained)\n", pad)
		return
	}
	fmt.Fprintf(b, "%svia disjunct %d with σ = %s\n", pad, w.Disjunct+1, w.Mapping)
	for _, c := range w.Children {
		fmt.Fprintf(b, "%s  %s: conjoin %s\n", pad, c.Negative, c.Added)
		c.Sub.render(b, depth+2)
	}
}

// Explain returns a witness for p ⊑ q (the checker's query), or nil and
// false when the containment does not hold. It mirrors Contains but
// records the successful branch; its memo only caches failures, since
// successes must be rebuilt per branch to capture their subtrees.
func (c *Checker) Explain(p logic.CQ) (*Witness, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.begin(p)
	defer c.end()
	return c.explain()
}

// explain is the recursive body of Explain, on the loaded P; c.mu must
// be held.
func (c *Checker) explain() (*Witness, bool) {
	c.Nodes++
	if !c.p.sat {
		return &Witness{Unsat: true}, true
	}
	k := c.memoKey()
	if v, ok := c.memo[string(k)]; ok && !v {
		c.MemoHits++
		return nil, false
	}
	key := string(k)
	f := c.frame()
	c.depth++
	var w *Witness
	for i := range c.rules {
		if c.rules[i].live {
			if w = c.explainDisjunct(&c.rules[i], i, f); w != nil {
				break
			}
		}
	}
	c.depth--
	c.memo[key] = w != nil
	return w, w != nil
}

// explainDisjunct runs the mapping search of viaDisjunct without its
// shortcuts (the tried image sets, skipping an unsatisfiable child),
// so every child problem yields a witness. It returns nil when no
// mapping into d leads to one.
func (c *Checker) explainDisjunct(d *disjunct, index int, f *frame) *Witness {
	var found *Witness
	c.findMapping(d, f, func() bool {
		var subs []*Witness
		for _, i := range d.negs {
			nl := &d.body[i]
			f.images = f.apply(f.images[:0], nl.args)
			if c.p.has(nl.pred, false, f.images) {
				return false
			}
			undo := c.push(nl.pred, f.images)
			sub, ok := c.explain()
			c.pop(undo)
			if !ok {
				return false
			}
			subs = append(subs, sub)
		}
		found = c.witness(d, index, f, subs)
		return true
	})
	return found
}

// witness builds the witness of a successful mapping: σ as a logic
// substitution, and one child per negative literal of d.
func (c *Checker) witness(d *disjunct, index int, f *frame, subs []*Witness) *Witness {
	w := &Witness{Disjunct: index, Mapping: make(logic.Subst, len(d.vars))}
	for v, id := range d.vars {
		w.Mapping[c.sym.terms[id].Name] = c.sym.terms[f.sigma[v]]
	}
	for k, i := range d.negs {
		nl := &d.body[i]
		added := logic.Atom{Pred: c.sym.preds[nl.pred].name, Args: make([]logic.Term, len(nl.args))}
		for j, t := range f.apply(f.images[:0], nl.args) {
			added.Args[j] = c.sym.terms[t]
		}
		w.Children = append(w.Children, ChildWitness{Negative: logic.Neg(d.atom(&c.sym, nl)), Added: added, Sub: subs[k]})
	}
	return w
}

// Verify checks a witness against p and the checker's query q,
// re-validating every mapping and every unsatisfiability claim. It
// returns an error describing the first defect found.
func (c *Checker) Verify(p logic.CQ, w *Witness) error {
	c.mu.Lock()
	rules := make([]logic.CQ, len(c.rules))
	for i := range c.rules {
		rules[i] = c.rules[i].rule(&c.sym)
	}
	c.mu.Unlock()
	return verify(p, w, rules)
}

func verify(p logic.CQ, w *Witness, rules []logic.CQ) error {
	if w == nil {
		return fmt.Errorf("containment: nil witness")
	}
	if w.Unsat {
		if Satisfiable(p) {
			return fmt.Errorf("containment: witness claims %s unsatisfiable, but it is satisfiable", p)
		}
		return nil
	}
	if w.Disjunct < 0 || w.Disjunct >= len(rules) {
		return fmt.Errorf("containment: witness names disjunct %d of %d", w.Disjunct+1, len(rules))
	}
	qi := rules[w.Disjunct]
	if err := checkMapping(p, qi, w.Mapping); err != nil {
		return err
	}
	negs := qi.Negative()
	if len(negs) != len(w.Children) {
		return fmt.Errorf("containment: witness has %d children for %d negative literals", len(w.Children), len(negs))
	}
	for i, nl := range negs {
		cw := w.Children[i]
		if !cw.Negative.Equal(nl) {
			return fmt.Errorf("containment: child %d is for %s, want %s", i+1, cw.Negative, nl)
		}
		want := w.Mapping.Atom(nl.Atom)
		if !cw.Added.Equal(want) {
			return fmt.Errorf("containment: child %d conjoins %s, want %s", i+1, cw.Added, want)
		}
		if p.HasAtom(cw.Added, false) {
			return fmt.Errorf("containment: %s already occurs positively in P; σ is invalid", cw.Added)
		}
		ext := p.Clone()
		ext.Body = append(ext.Body, logic.Pos(cw.Added))
		if err := verify(ext, cw.Sub, rules); err != nil {
			return err
		}
	}
	return nil
}

// checkMapping validates that sigma is a containment mapping from qi's
// positive part into p's positive part with aligned heads.
func checkMapping(p, qi logic.CQ, sigma logic.Subst) error {
	if p.HeadPred != qi.HeadPred || len(p.HeadArgs) != len(qi.HeadArgs) {
		return fmt.Errorf("containment: heads %s/%d and %s/%d differ", p.HeadPred, len(p.HeadArgs), qi.HeadPred, len(qi.HeadArgs))
	}
	for j, qa := range qi.HeadArgs {
		if sigma.Term(qa) != p.HeadArgs[j] {
			return fmt.Errorf("containment: σ maps head argument %d to %s, want %s", j+1, sigma.Term(qa), p.HeadArgs[j])
		}
	}
	for _, l := range qi.Positive() {
		img := sigma.Atom(l.Atom)
		if !p.HasAtom(img, false) {
			return fmt.Errorf("containment: σ image %s of %s is not a positive literal of P", img, l.Atom)
		}
	}
	return nil
}
