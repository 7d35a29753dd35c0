package minimize

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/parser"
)

var sinkCQ logic.CQ

// benchRule is a rule with n body literals, about half of them
// redundant. padded is negation-free: a two-literal spine, then
// existential R literals that fold onto it and duplicates. negated
// swaps two of them for negated literals, so every test walks the
// Theorem 12 recursion.
func benchRule(n int, negated bool) logic.CQ {
	lits := []string{"R(x, z)", "S(z, y)"}
	if negated {
		lits = append(lits, "not L(x)", `not S("k", y)`)
	}
	for i := 0; len(lits) < n; i++ {
		switch i % 3 {
		case 0:
			lits = append(lits, fmt.Sprintf("R(x, u%d)", i))
		case 1:
			lits = append(lits, fmt.Sprintf("R(w%d, z)", i))
		default:
			lits = append(lits, "S(z, y)")
		}
	}
	return parser.MustCQ("Q(x, y) :- " + strings.Join(lits, ", ") + ".")
}

func BenchmarkCQ(b *testing.B) {
	for _, n := range []int{4, 8} {
		for _, shape := range []string{"padded", "negated"} {
			q := benchRule(n, shape == "negated")
			b.Run(fmt.Sprintf("lits=%d/%s", n, shape), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkCQ = CQ(q)
				}
			})
		}
	}
}
