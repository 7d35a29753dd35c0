package persist

import (
	"fmt"
	"testing"
)

// BenchmarkLogAppend appends one two-row entry record per op to a log
// at default options: a frame encode, a buffered write, an fsync every
// 64 records and, once the log passes 8 MiB, a compaction.
func BenchmarkLogAppend(b *testing.B) {
	l, _ := mustOpen(b, b.TempDir(), Options{})
	defer l.Close()
	e := entry("tenant-0", 0, "k", row("a", "b"), row("c", "d"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogOpen recovers a log of n entry records per op: read,
// verify and replay every frame.
func BenchmarkLogOpen(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("entries-%d", n), func(b *testing.B) {
			dir := b.TempDir()
			l, _ := mustOpen(b, dir, Options{})
			for i := 0; i < n; i++ {
				if err := l.Append(entry("tenant-0", 0, fmt.Sprintf("k%d", i), row("a", "b"), row("c", "d"))); err != nil {
					b.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, rs := mustOpen(b, dir, Options{})
				if rs.Entries != n {
					b.Fatalf("recovered %d entries, want %d", rs.Entries, n)
				}
				l.Close()
			}
		})
	}
}
