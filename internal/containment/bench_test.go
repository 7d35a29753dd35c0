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

// One containment test from scratch allocates the checker's compiled
// query, the memo and its key, and nothing per mapping step: the
// search's scratch comes from a pool, σ is a slot array and a child
// problem a push onto the scratch body. The map-based search it
// replaced allocated 87 times here. The ceiling is the measured count
// (9) plus slack, and under the race detector raceAllocSlack more: it
// drops a quarter of what is given back to a sync.Pool.
func TestContainedCQAllocs(t *testing.T) {
	p, q := parser.MustCQ(benchCore), parser.MustCQ(benchPadded)
	allocs := testing.AllocsPerRun(200, func() {
		if !ContainedCQ(p, q) {
			t.Fatal("the core must be contained in its padded form")
		}
	})
	limit := 9 + 3 + raceAllocSlack
	if allocs > float64(limit) {
		t.Errorf("a containment test allocated %.0f times, want at most %d", allocs, limit)
	}
}

// raceAllocSlack is what the race detector adds to an allocation count
// (racealloc_test.go).
var raceAllocSlack = 0
