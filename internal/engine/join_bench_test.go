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
// With dedup it is J(k1..kn, v, d) followed by C(v): d is dropped, so
// the step deduplicates.
func joinStep(b *testing.B, keys int, dedup bool, pool *colPool) *stepProgram {
	b.Helper()
	ks := make([]string, keys)
	for i := range ks {
		ks[i] = fmt.Sprintf("k%d", i)
	}
	jVars, tail, tailPats := append(ks, "v"), "", []access.Pattern(nil)
	if dedup {
		jVars, tail, tailPats = append(jVars, "d"), ", C(v)", []access.Pattern{"i"}
	}
	jPat := access.Pattern(strings.Repeat("i", keys) + strings.Repeat("o", len(jVars)-keys))
	src, patterns := fmt.Sprintf(`Q(v) :- J(%s)%s.`, strings.Join(jVars, ", "), tail), []access.Pattern{jPat}
	if keys > 0 {
		src = fmt.Sprintf(`Q(v) :- B(%s), J(%s)%s.`, strings.Join(ks, ", "), strings.Join(jVars, ", "), tail)
		patterns = []access.Pattern{access.Pattern(strings.Repeat("o", keys)), jPat}
	}
	u, err := parser.ParseUCQ(src)
	if err != nil {
		b.Fatal(err)
	}
	q := u.Rules[0]
	patterns = append(patterns, tailPats...)
	steps := make([]access.AdornedLiteral, len(q.Body))
	for i, l := range q.Body {
		steps[i] = access.AdornedLiteral{Literal: l, Pattern: patterns[i]}
	}
	prog := compileRule(q, steps, pool, &relOrds{})
	return &prog.steps[len(patterns)-1-len(tailPats)]
}

// ownJoin builds the join side of rows alone, as a batch whose one
// short answer it is does: interning as it goes, keeping every tuple.
func ownJoin(sp *stepProgram, rows []sources.Tuple, pool *colPool, key []uint32) *callJoin {
	return sp.groupJoin(new(callJoin), [][]sources.Tuple{rows}, pool, key, false)
}

// The join side of one answer, by probe-key width, result size and step
// (carry: v carried; dedup: d dropped, so a held join keeps one tuple per
// v in each group), built privately (own), from a held answer's columns
// (held: what the first call of a step shape pays), or read back
// finished (reuse: every later call of that shape). A 4000-tuple scan
// must stay a handful of allocations and reuse allocates nothing.
// heldMinRows is read off the own/reuse gap at 1 and 32 rows; short
// answers share their batch's join on top of that (BenchmarkBatchedStep).
func BenchmarkBuildJoin(b *testing.B) {
	for _, keys := range []int{0, 1, 2, 4} {
		for _, n := range []int{1, 32, 4000} {
			for _, step := range []string{"carry", "dedup"} {
				pool := newColPool(newEngineState())
				sp := joinStep(b, keys, step == "dedup", pool)
				rows := make([]sources.Tuple, n)
				for i := range rows {
					rows[i] = make(sources.Tuple, len(sp.args))
					for p := range rows[i] {
						rows[i][p] = fmt.Sprintf("bj%d_%d", p, i%(16*(p+1)))
					}
				}
				h := newHeldTable()
				held := h.join(rows, sp, pool, nil) // intern, hold the columns and the join once
				vals := held.vals
				builds := map[string]func(key []uint32) *callJoin{
					"own": func(key []uint32) *callJoin { return ownJoin(sp, rows, pool, key) },
					"held": func(key []uint32) *callJoin {
						return sp.groupJoin(&callJoin{vals: vals}, [][]sources.Tuple{rows}, pool, key, true)
					},
					"reuse": func(key []uint32) *callJoin { return h.join(rows, sp, pool, key) },
				}
				for _, mode := range []string{"own", "held", "reuse"} {
					build, want := builds[mode], len(held.idx)
					if mode == "own" {
						want = n
					}
					b.Run(fmt.Sprintf("keys=%d/rows=%d/%s/%s", keys, n, step, mode), func(b *testing.B) {
						var key [8]uint32
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							if j := build(key[:0]); len(j.idx) != want {
								b.Fatalf("%d of %d tuples survived, want %d", len(j.idx), n, want)
							}
						}
					})
				}
			}
		}
	}
}

// Resolving an already-interned value — once per needed position of
// every returned tuple — is a lock-free lookup that allocates nothing.
func BenchmarkInternLookup(b *testing.B) {
	in := newValueInterner()
	vals := make([]string, 4096)
	for i := range vals {
		vals[i] = fmt.Sprintf("lookup_%d", i)
		in.id(vals[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, fresh := in.id(vals[i%len(vals)]); fresh {
			b.Fatal("re-interned")
		}
	}
}
