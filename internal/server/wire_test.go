package server

import (
	"encoding/json"
	"fmt"
	"testing"

	ucqn "repro"
)

// TestWireRowsSortedAndIndependent: rows go out in Sorted order, a null
// as "null", each row a window of the shared backing that an append
// cannot grow into its neighbour.
func TestWireRowsSortedAndIndependent(t *testing.T) {
	rel := ucqn.NewRel()
	rel.Add(ucqn.RowOf("b", "2"))
	rel.Add(ucqn.Row{{S: "a"}, {Null: true}})
	rel.Add(ucqn.RowOf("c", "3"))
	rows := wireRows(rel)
	if got, _ := json.Marshal(rows); string(got) != `[["a","null"],["b","2"],["c","3"]]` {
		t.Fatalf("wireRows = %s", got)
	}
	rows[0] = append(rows[0], "appended")
	if rows[1][0] != "b" {
		t.Fatal("appending to a row overwrote the next one")
	}
	if got, _ := json.Marshal(wireRows(ucqn.NewRel())); string(got) != `[]` {
		t.Fatalf("empty relation encodes as %s, want []", got)
	}
	nullary := ucqn.NewRel()
	nullary.Add(ucqn.Row{})
	if got, _ := json.Marshal(wireRows(nullary)); string(got) != `[[]]` {
		t.Fatalf("nullary answer encodes as %s, want [[]]", got)
	}
}

var sinkWire [][]string

func BenchmarkWireRows(b *testing.B) {
	for _, n := range []int{10, 4000} {
		rel := ucqn.NewRel()
		for i := 0; i < n; i++ {
			rel.Add(ucqn.RowOf(fmt.Sprintf("k%06d", (i*7919)%n), fmt.Sprintf("v%d", i%20)))
		}
		// What a cached answer's view is by the time it is flattened: the
		// order already computed.
		served := rel.View()
		served.Sorted()
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkWire = wireRows(served)
			}
		})
	}
}
