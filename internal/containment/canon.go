package containment

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/logic"
)

// Canonicalization renders a CQ¬ in an isomorphism-invariant normal
// form: two queries that differ only by a bijective renaming of their
// variables (and by body literal order or duplication) receive the same
// canonical form and key. This is the tier-1 index of the semantic
// query cache: α-renamed and padded resubmissions collapse to one
// cache entry without running the Π₂ᴾ containment test.
//
// Head variables are named first, in order of occurrence in the head
// ("h0", "h1", …) — the head is part of the query's semantics, so this
// is forced. Body-only variables are named by a signature-refinement
// search: at each step the variables with the lexicographically least
// local signature (their incident literals, rendered with already-named
// variables fixed) are tried in turn, and the branch whose final
// rendering is smallest wins. Ties branch, bounded by canonLeafBudget
// leaves; past the budget the remaining variables are assigned in a
// deterministic (signature, original name) order.
//
// Soundness does not depend on the search heuristic: the renaming is
// injective, so equal keys imply the renamed queries are syntactically
// identical (up to literal order and duplicates), hence the originals
// are isomorphic and therefore equivalent. A weak heuristic can only
// cost cache hits (two isomorphic queries mapping to different keys is
// impossible once the search is exhaustive; the budget fallback merely
// risks that for adversarially symmetric queries), never correctness.

// canonLeafBudget bounds the number of complete namings the
// tie-branching search may render before falling back to the
// deterministic assignment order.
const canonLeafBudget = 512

// CanonicalKey returns the canonical rendering of q. Two queries that
// are isomorphic (equal up to bijective variable renaming, literal
// order, and literal duplication) receive equal keys; equal keys imply
// isomorphism.
func CanonicalKey(q logic.CQ) string {
	_, key := CanonicalForm(q)
	return key
}

// CanonicalForm returns the canonical form of q — variables renamed as
// described above, body literals deduplicated and sorted, a query
// equivalent to q — and its key, the form's rendering, from one search.
func CanonicalForm(q logic.CQ) (logic.CQ, string) {
	naming := logic.NewSubst()
	h := 0
	for _, t := range q.HeadArgs {
		if t.IsVar() {
			if _, ok := naming[t.Name]; !ok {
				naming[t.Name] = logic.Var(fmt.Sprintf("h%d", h))
				h++
			}
		}
	}
	if q.False {
		out := naming.CQ(q)
		return out, out.String()
	}
	var unnamed []string
	seen := map[string]bool{}
	for _, l := range q.Body {
		for _, t := range l.Atom.Args {
			if t.IsVar() && !seen[t.Name] {
				seen[t.Name] = true
				if _, ok := naming[t.Name]; !ok {
					unnamed = append(unnamed, t.Name)
				}
			}
		}
	}
	s := canonSearch{q: q, budget: canonLeafBudget}
	s.search(naming, unnamed, 0)
	return s.best, s.bestKey
}

// keyedLit is a body literal with its rendering, computed once for
// sorting and deduplication.
type keyedLit struct {
	key string
	lit logic.Literal
}

// applyCanon applies the naming and normalizes the body: duplicates
// dropped, literals sorted by their rendering. It returns the result
// and its rendering.
func applyCanon(q logic.CQ, naming logic.Subst) (logic.CQ, string) {
	out := naming.CQ(q)
	lits := make([]keyedLit, len(out.Body))
	for i, l := range out.Body {
		lits[i] = keyedLit{l.Key(), l}
	}
	// Stable, so a rendering shared by two literals keeps the first.
	slices.SortStableFunc(lits, func(a, b keyedLit) int { return strings.Compare(a.key, b.key) })
	body := out.Body[:0]
	for i, kl := range lits {
		if i == 0 || kl.key != lits[i-1].key {
			body = append(body, kl.lit)
		}
	}
	out.Body = body
	return out, out.String()
}

type canonSearch struct {
	q       logic.CQ
	budget  int
	best    logic.CQ // the smallest rendering found so far, bestKey
	bestKey string
	found   bool
}

func (s *canonSearch) record(naming logic.Subst) {
	out, key := applyCanon(s.q, naming)
	if !s.found || key < s.bestKey {
		s.best, s.bestKey, s.found = out, key, true
	}
}

func (s *canonSearch) search(naming logic.Subst, unnamed []string, next int) {
	if len(unnamed) == 0 {
		s.budget--
		s.record(naming)
		return
	}
	sigs := signatures(s.q, naming, unnamed)
	if s.budget <= 0 {
		// Budget exhausted: finish this branch deterministically.
		s.budget--
		final := naming.Clone()
		rest := append([]string(nil), unnamed...)
		sort.SliceStable(rest, func(i, j int) bool {
			if sigs[rest[i]] != sigs[rest[j]] {
				return sigs[rest[i]] < sigs[rest[j]]
			}
			return rest[i] < rest[j]
		})
		for _, v := range rest {
			final[v] = logic.Var(fmt.Sprintf("v%d", next))
			next++
		}
		s.record(final)
		return
	}
	min := ""
	for i, v := range unnamed {
		if i == 0 || sigs[v] < min {
			min = sigs[v]
		}
	}
	name := logic.Var(fmt.Sprintf("v%d", next))
	for _, v := range unnamed {
		if sigs[v] != min {
			continue
		}
		rest := make([]string, 0, len(unnamed)-1)
		for _, u := range unnamed {
			if u != v {
				rest = append(rest, u)
			}
		}
		s.search(naming.Bind(v, name), rest, next+1)
	}
}

// signatures computes, for each unnamed variable, a local fingerprint:
// the sorted renderings of the body literals it occurs in, with named
// variables shown canonically, the variable itself as "*", and other
// unnamed variables as "_".
func signatures(q logic.CQ, naming logic.Subst, unnamed []string) map[string]string {
	unnamedSet := make(map[string]bool, len(unnamed))
	for _, v := range unnamed {
		unnamedSet[v] = true
	}
	out := make(map[string]string, len(unnamed))
	for _, v := range unnamed {
		var pieces []string
		for _, l := range q.Body {
			occurs := false
			for _, t := range l.Atom.Args {
				if t.IsVar() && t.Name == v {
					occurs = true
					break
				}
			}
			if !occurs {
				continue
			}
			var b strings.Builder
			if l.Negated {
				b.WriteString("not ")
			}
			b.WriteString(l.Atom.Pred)
			b.WriteByte('(')
			for i, t := range l.Atom.Args {
				if i > 0 {
					b.WriteByte(',')
				}
				switch {
				case t.IsVar() && t.Name == v:
					b.WriteByte('*')
				case t.IsVar() && unnamedSet[t.Name]:
					b.WriteByte('_')
				default:
					b.WriteString(naming.Term(t).String())
				}
			}
			b.WriteByte(')')
			pieces = append(pieces, b.String())
		}
		sort.Strings(pieces)
		out[v] = strings.Join(pieces, ";")
	}
	return out
}

// CanonicalKeyUCQ returns an order-insensitive canonical key for a
// union: the sorted, deduplicated canonical keys of its rules.
func CanonicalKeyUCQ(u logic.UCQ) string {
	keys := make([]string, 0, len(u.Rules))
	seen := map[string]bool{}
	for _, r := range u.Rules {
		k := CanonicalKey(r)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, " | ")
}
