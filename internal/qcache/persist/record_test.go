package persist

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// flagged encodes an entry whose last row ends in the string cell and
// returns the payload and the offset of that cell's value flag.
func flagged(e Entry, cell string) ([]byte, int) {
	e.Rows = append(e.Rows, []Value{{S: cell}})
	b := encodeEntry(e)
	return b, len(b) - len(cell) - len(binary.AppendUvarint(nil, uint64(len(cell)))) - 1
}

// A value flag is 0 (a string follows) or 1 (null). Any other flag is a
// payload that passed its checksum but is malformed: it must be dropped
// as corruption, never restored as data.
func TestDecodeRecordRejectsUnknownValueFlag(t *testing.T) {
	payload, at := flagged(entry("tenant", 3, "k1", row("a", "b")), "c")
	if rec, err := decodeRecord(payload); err != nil || rec.entry.Rows[1][0].S != "c" {
		t.Fatalf("intact payload: %+v, %v", rec, err)
	}
	for _, flag := range []byte{2, 0x7f, 0xff} {
		payload[at] = flag
		if rec, err := decodeRecord(payload); !errors.Is(err, errCorrupt) {
			t.Errorf("value flag %#x: decoded %+v, %v; want errCorrupt", flag, rec.entry, err)
		}
	}
}

// FuzzDecodeRecord holds the decoder to the encoder: decoding arbitrary
// bytes never panics, an entry built from the fuzz input round-trips
// through encodeEntry and decodeRecord, and a value flag other than 0
// or 1 is errCorrupt. The seed corpus is testdata/fuzz/FuzzDecodeRecord.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte, label, cell string, flag byte) {
		decodeRecord(payload)

		e := Entry{Label: "l" + label, Gen: int64(len(cell)) - 7, Created: int64(len(label)) << 40,
			CoreKey: "k" + cell, Arity: len(cell) % 5,
			Rows: [][]Value{{{S: cell}, {Null: true}, {S: label}}, nil, {{S: ""}}}}
		if label != "" {
			e.Core = []byte(label)
		}
		if len(cell)%3 == 0 {
			e.Rows = nil
		}
		rec, err := decodeRecord(encodeEntry(e))
		if err != nil || rec.tomb || !reflect.DeepEqual(rec.entry, e) {
			t.Fatalf("round trip of %+v: %+v, %v", e, rec, err)
		}

		b, at := flagged(e, cell)
		b[at] = flag
		if _, err := decodeRecord(b); flag > 1 && !errors.Is(err, errCorrupt) {
			t.Fatalf("value flag %#x decoded with err = %v, want errCorrupt", flag, err)
		}
	})
}
