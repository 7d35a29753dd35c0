package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/parser"
	"repro/internal/sources"
)

// joinStep compiles the step whose join side BenchmarkBuildJoin builds:
// J(k1..kn, v) probed on n bound positions (none: a scan), v carried on.
func joinStep(b *testing.B, keys int, pool *colPool) *stepProgram {
	b.Helper()
	ks := make([]string, keys)
	for i := range ks {
		ks[i] = fmt.Sprintf("k%d", i)
	}
	jArgs := strings.Join(append(ks, "v"), ", ")
	src, patterns := fmt.Sprintf(`Q(v) :- J(%s).`, jArgs), []access.Pattern{access.Pattern(strings.Repeat("o", keys+1))}
	if keys > 0 {
		src = fmt.Sprintf(`Q(v) :- B(%s), J(%s).`, strings.Join(ks, ", "), jArgs)
		patterns = []access.Pattern{access.Pattern(strings.Repeat("o", keys)), access.Pattern(strings.Repeat("i", keys) + "o")}
	}
	u, err := parser.ParseUCQ(src)
	if err != nil {
		b.Fatal(err)
	}
	q := u.Rules[0]
	steps := make([]access.AdornedLiteral, len(q.Body))
	for i, l := range q.Body {
		steps[i] = access.AdornedLiteral{Literal: l, Pattern: patterns[i]}
	}
	prog := compileRule(q, steps, pool)
	return &prog.steps[len(prog.steps)-1]
}

// The join side of one call, by probe-key width and result size: a
// one-tuple lookup (what remote_batch and cold_plan issue by the
// hundred) must stay a handful of allocations, a 4000-tuple scan a
// handful too.
func BenchmarkBuildJoin(b *testing.B) {
	for _, keys := range []int{0, 1, 2, 4} {
		for _, n := range []int{1, 4000} {
			pool := newColPool()
			sp := joinStep(b, keys, pool)
			rows := make([]sources.Tuple, n)
			for i := range rows {
				rows[i] = make(sources.Tuple, keys+1)
				for p := range rows[i] {
					rows[i][p] = fmt.Sprintf("bj%d_%d", p, i%(16*(p+1)))
				}
			}
			sp.buildJoin(rows, pool, nil) // intern the values once
			b.Run(fmt.Sprintf("keys=%d/rows=%d", keys, n), func(b *testing.B) {
				var key [8]uint32
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if j := sp.buildJoin(rows, pool, key[:0]); len(j.idx) != n {
						b.Fatalf("%d of %d tuples survived", len(j.idx), n)
					}
				}
			})
		}
	}
}

// Resolving an already-interned value — once per needed position of
// every returned tuple — is a lock-free lookup that allocates nothing.
func BenchmarkInternLookup(b *testing.B) {
	pool := newColPool()
	vals := make([]string, 4096)
	for i := range vals {
		vals[i] = fmt.Sprintf("lookup_%d", i)
		pool.internID(vals[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, fresh := pool.internID(vals[i%len(vals)]); fresh {
			b.Fatal("re-interned")
		}
	}
}
