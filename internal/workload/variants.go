package workload

// Query variants for cache experiments: semantically identical rewrites
// of a query that a textual cache misses but the canonical plan cache
// must hit — α-renamings and redundant-literal padding.

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/logic"
	"repro/internal/parser"
)

// AlphaRename returns u with every variable renamed injectively by
// appending "_r<tag>" — a fresh α-variant of the same query. Constants
// and the head predicate are untouched, so the result is isomorphic
// (hence equivalent) to u and executable wherever u is.
func AlphaRename(u logic.UCQ, tag string) logic.UCQ {
	out := u.Clone()
	for i := range out.Rules {
		out.Rules[i] = renameCQ(out.Rules[i], "_r"+tag)
	}
	return out
}

func renameCQ(q logic.CQ, suffix string) logic.CQ {
	rename := func(t logic.Term) logic.Term {
		if t.IsVar() {
			t.Name += suffix
		}
		return t
	}
	for i := range q.HeadArgs {
		q.HeadArgs[i] = rename(q.HeadArgs[i])
	}
	for i := range q.Body {
		for j := range q.Body[i].Atom.Args {
			q.Body[i].Atom.Args[j] = rename(q.Body[i].Atom.Args[j])
		}
	}
	return q
}

// PadRedundant returns u with the last positive literal of every rule
// duplicated — a non-minimal but equivalent rewrite. The duplicate is
// answerable exactly where the original is (same variables, already
// bound when it repeats), so the padded query stays executable; query
// minimization removes it, so the canonical plan cache still hits.
// Rules with no positive literal are returned unchanged.
func PadRedundant(u logic.UCQ) logic.UCQ {
	out := u.Clone()
	for i := range out.Rules {
		r := &out.Rules[i]
		if r.False {
			continue
		}
		for j := len(r.Body) - 1; j >= 0; j-- {
			if !r.Body[j].Negated {
				dup := r.Body[j].Clone()
				r.Body = append(r.Body, dup)
				break
			}
		}
	}
	return out
}

// ColdPlanQuery is text idx of the repository benchmark's cold_plan
// universe (bench/workloads.go draws the same texts): 1–3 disjuncts
// over R^oo S^io L^o with head Q(x, y), each a spine binding x and y, a
// few fillers (some redundant, so minimization has work), one literal
// over a constant no other text uses, then PadRedundant's duplicate.
func ColdPlanQuery(rng *rand.Rand, idx int) logic.UCQ {
	var rules []string
	for d, n := 0, 1+idx%3; d < n; d++ {
		var lits []string
		fresh := 0
		v := func() string { fresh++; return fmt.Sprintf("u%d", fresh) }
		joined, key := (idx/3+d)%2 == 0, "y"
		if joined {
			key = "z"
			lits = append(lits, "R(x, z)", "S(z, y)")
		} else {
			lits = append(lits, "R(x, y)")
		}
		for want := 1 + (idx/6+d)%5; len(lits) < want; {
			switch rng.Intn(5) {
			case 0:
				lits = append(lits, fmt.Sprintf("R(x, %s)", v()))
			case 1:
				lits = append(lits, fmt.Sprintf("S(%s, %s)", key, v()))
			case 2:
				lits = append(lits, "not L(x)")
			case 3:
				lits = append(lits, fmt.Sprintf("R(%s, %s)", v(), key))
			case 4:
				lits = append(lits, fmt.Sprintf(`R(x, "b0_%d")`, rng.Intn(3)))
			}
		}
		unique := fmt.Sprintf(`"k%d_%d"`, idx, d)
		switch k := rng.Intn(6); {
		case k < 2:
			lits = append(lits, fmt.Sprintf("not L(%s)", unique))
		case k < 4:
			lits = append(lits, fmt.Sprintf("not R(x, %s)", unique))
		case k == 4 || d == 0:
			lits = append(lits, fmt.Sprintf("not S(%s, y)", unique))
		default:
			lits = append(lits, fmt.Sprintf("R(x, %s)", unique))
		}
		rules = append(rules, "Q(x, y) :- "+strings.Join(lits, ", ")+".")
	}
	return PadRedundant(parser.MustUCQ(strings.Join(rules, " ")))
}
