package ucqn

// Microbenchmarks of the facade's extension subsystems. The paper's
// experiments E1–E23 are benchmarked where they are declared, in
// cmd/paperbench (BenchmarkPaper).

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/workload"
)

// GAV unfolding microbenchmark (mediator front end, Section 6).
func BenchmarkMediatorUnfold(b *testing.B) {
	v := NewViews()
	if err := v.Add(MustParseQuery("G(x, y) :- S(x, z), T(z, y).\nG(x, y) :- D(x, y).")); err != nil {
		b.Fatal(err)
	}
	if err := v.Add(MustParseQuery(`M(x) :- W(x).`)); err != nil {
		b.Fatal(err)
	}
	q := MustParseQuery(`Q(a) :- G(a, c), G(c, d), not M(d).`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Unfold(q); err != nil {
			b.Fatal(err)
		}
	}
}

// Parallel vs sequential rule evaluation on a wide union.
func BenchmarkAnswerParallel(b *testing.B) {
	in := engine.NewInstance()
	var src, patSrc string
	for i := 0; i < 16; i++ {
		for j := 0; j < 200; j++ {
			in.MustAdd(fmt.Sprintf("R%d", i), fmt.Sprintf("v%d_%d", i, j))
		}
		src += fmt.Sprintf("Q(x) :- R%d(x).\n", i)
		patSrc += fmt.Sprintf("R%d^o ", i)
	}
	u := MustParseQuery(src)
	ps := MustParsePatterns(patSrc)
	cat := in.MustCatalog(ps)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Exec(context.Background(), u, ps, cat); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Exec(context.Background(), u, ps, cat, WithParallelRules()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Program compilation of a three-level hierarchy.
func BenchmarkProgramCompile(b *testing.B) {
	src := `
		L1(x) :- E1(x).
		L1(x) :- E2(x).
		L2(x) :- L1(x), E3(x).
		L3(x, y) :- L2(x), L2(y), E4(x, y).
	`
	parsed, err := ParseRules(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewProgram()
		for _, r := range parsed {
			if err := p.Add(r); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := p.Compile("L3"); err != nil {
			b.Fatal(err)
		}
	}
}

// Chase-based satisfiability under a dependency chain.
func BenchmarkChaseSatisfiable(b *testing.B) {
	inds := MustParseINDs(`R[1] < S[0]; S[0] < T[0]`)
	q := MustParseRule(`Q(x) :- R(x, z), not T(z).`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if inds.SatisfiableUnder(q) {
			b.Fatal("must be unsatisfiable under the chain")
		}
	}
}

// Witness construction and verification for a containment that needs
// the negative-literal recursion.
func BenchmarkExplainAndVerify(b *testing.B) {
	p := MustParseRule(`Q(x) :- R(x).`)
	q := MustParseQuery("Q(x) :- R(x), not S(x).\nQ(x) :- R(x), S(x).")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, ok := ExplainContained(p, q)
		if !ok {
			b.Fatal("containment expected")
		}
		if err := VerifyWitness(p, q, w); err != nil {
			b.Fatal(err)
		}
	}
}

// Containment microbenchmarks: the Π₂ᴾ engine on its classic inputs.
func BenchmarkContainmentCQ(b *testing.B) {
	p := MustParseRule(`Q(x) :- E(x, y), E(y, z), E(z, x).`)
	q := MustParseQuery(`Q(x) :- E(x, y), E(y, z).`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Contained(logic.AsUnion(p), q)
	}
}

func BenchmarkContainmentCaseSplit(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		u, _ := workload.CaseSplitFamily(n)
		p := MustParseRule(`Q(x) :- R(x).`)
		b.Run(fmt.Sprintf("split-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Contained(logic.AsUnion(p), u)
			}
		})
	}
}
