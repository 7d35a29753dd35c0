package containment

import (
	"testing"

	"repro/internal/parser"
)

var (
	sinkKey  string
	sinkBool bool
)

// The shapes a plan miss sees: a two-literal join with a negation, a
// constant, and redundant literals.
const (
	benchPadded = `Q(x, y) :- R(x, z), S(z, y), R(x, u), not L(x), R(x, "k"), R(w, z), S(z, y).`
	benchCore   = `Q(x, y) :- R(x, z), S(z, y), not L(x), R(x, "k").`
)

func BenchmarkCanonicalKey(b *testing.B) {
	q := parser.MustCQ(benchCore)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkKey = CanonicalKey(q)
	}
}

// BenchmarkContainedCQ: one containment test from scratch, checker
// included — core ⊑ padded, which holds and walks the negated literal.
func BenchmarkContainedCQ(b *testing.B) {
	p, q := parser.MustCQ(benchCore), parser.MustCQ(benchPadded)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkBool = ContainedCQ(p, q)
	}
	if !sinkBool {
		b.Fatal("the core must be contained in its padded form")
	}
}
