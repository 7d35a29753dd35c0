package persist

// On-disk record format. Both files — the append-only log and the
// compacted snapshot — are a magic header followed by a sequence of
// frames:
//
//	[payload length: uint32 LE][CRC32-C of payload: uint32 LE][payload]
//
// The checksum covers the payload only; the length field is validated
// against the remaining file size and a hard cap, so a corrupt length
// cannot force a giant allocation. Any frame that fails validation ends
// the readable prefix: recovery keeps everything before it and drops the
// rest, which is exactly the torn-tail semantics an append-only log
// wants (a record is either wholly durable or it never happened).
//
// A payload is a record-type byte followed by the record's fields:
//
//	entry     = 0x01, label, gen, created, coreKey, coreJSON, arity,
//	            nrows, rows (each: ncols, then per value a flag byte:
//	            0 and the string, or 1 for null)
//	tombstone = 0x02, label, gen
//
// Integers are varints; strings are uvarint length + raw bytes. Rows
// are stored as strings (interned IDs are process-local and meaningless
// on disk).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	logMagic  = "UCQNLOG1\n"
	snapMagic = "UCQNSNAP1\n"

	recEntry     = 0x01
	recTombstone = 0x02

	// maxFrame caps a single record; anything larger is treated as
	// corruption rather than allocated.
	maxFrame = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Value is one answer cell: a constant string or the distinguished
// null. It mirrors engine.Value without importing the engine.
type Value struct {
	S    string
	Null bool
}

// Entry is one persisted answer-cache record: the rows of one
// disjunct's answer under one catalog identity and generation.
type Entry struct {
	// Label is the catalog's stable persistent identity (chosen by the
	// operator, e.g. the tenant name) — never the process-local catalog
	// ID, which does not survive a restart.
	Label string
	// Gen is the catalog generation the rows were computed under.
	Gen int64
	// Created is the entry's creation time in Unix nanoseconds (for TTL
	// expiry across restarts).
	Created int64
	// CoreKey is the canonical core key the cache indexes the entry by.
	CoreKey string
	// Core is the canonical core itself (JSON-encoded logic.CQ), kept so
	// a recovered entry can participate in equivalence scans.
	Core []byte
	// Arity is the head arity of the core.
	Arity int
	// Rows are the disjunct's answer rows.
	Rows [][]Value
}

// record is one decoded frame: an entry or a tombstone.
type record struct {
	tomb  bool
	label string // tombstone fields
	gen   int64
	entry Entry // valid when !tomb
}

// errCorrupt marks an unreadable frame; recovery converts it into "drop
// the suffix", never into a failed open.
var errCorrupt = errors.New("persist: corrupt record")

// appendFrame appends one length+crc framed payload to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// readFrame reads the frame starting at off, returning the payload and
// the offset one past the frame. Any violation — short header, length
// past EOF or the cap, checksum mismatch — returns errCorrupt.
func readFrame(data []byte, off int) (payload []byte, next int, err error) {
	if off+8 > len(data) {
		return nil, 0, errCorrupt
	}
	n := binary.LittleEndian.Uint32(data[off : off+4])
	sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if n > maxFrame || off+8+int(n) > len(data) {
		return nil, 0, errCorrupt
	}
	payload = data[off+8 : off+8+int(n)]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, 0, errCorrupt
	}
	return payload, off + 8 + int(n), nil
}

// --- payload encoding ---------------------------------------------------

func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

func appendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// encodeEntry renders an entry payload.
func encodeEntry(e Entry) []byte {
	// Rough pre-size: fields plus row bytes.
	n := 64 + len(e.Label) + len(e.CoreKey) + len(e.Core)
	for _, row := range e.Rows {
		n += 8
		for _, v := range row {
			n += len(v.S) + 2
		}
	}
	b := make([]byte, 0, n)
	b = append(b, recEntry)
	b = appendString(b, e.Label)
	b = appendVarint(b, e.Gen)
	b = appendVarint(b, e.Created)
	b = appendString(b, e.CoreKey)
	b = appendString(b, string(e.Core))
	b = appendUvarint(b, uint64(e.Arity))
	b = appendUvarint(b, uint64(len(e.Rows)))
	for _, row := range e.Rows {
		b = appendUvarint(b, uint64(len(row)))
		for _, v := range row {
			if v.Null {
				b = append(b, 1)
				continue
			}
			b = append(b, 0)
			b = appendString(b, v.S)
		}
	}
	return b
}

// encodeTombstone renders a tombstone payload.
func encodeTombstone(label string, gen int64) []byte {
	b := make([]byte, 0, 16+len(label))
	b = append(b, recTombstone)
	b = appendString(b, label)
	return appendVarint(b, gen)
}

// payloadReader decodes payload fields, latching the first error.
type payloadReader struct {
	b   []byte
	off int
	err error
}

func (r *payloadReader) byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.err = errCorrupt
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = errCorrupt
		return 0
	}
	r.off += n
	return v
}

func (r *payloadReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.err = errCorrupt
		return 0
	}
	r.off += n
	return v
}

func (r *payloadReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.err = errCorrupt
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// decodeRecord parses one payload into a record. A structurally invalid
// payload — wrong type byte, truncated fields, absurd counts — is
// corruption even though its checksum matched (a version drift reads
// the same as a bit-flip to the caller: drop the record, never serve
// it).
func decodeRecord(payload []byte) (record, error) {
	r := &payloadReader{b: payload}
	switch r.byte() {
	case recTombstone:
		rec := record{tomb: true}
		rec.label = r.string()
		rec.gen = r.varint()
		if r.err != nil || rec.label == "" {
			return record{}, errCorrupt
		}
		return rec, nil
	case recEntry:
		var e Entry
		e.Label = r.string()
		e.Gen = r.varint()
		e.Created = r.varint()
		e.CoreKey = r.string()
		if core := r.string(); core != "" {
			e.Core = []byte(core)
		}
		e.Arity = int(r.uvarint())
		nrows := r.uvarint()
		if r.err != nil || e.Label == "" || e.CoreKey == "" || e.Arity < 0 ||
			nrows > uint64(len(payload)) {
			return record{}, errCorrupt
		}
		// Keep zero-length slices nil so a decoded entry compares equal
		// (reflect.DeepEqual) to the entry that was appended.
		if nrows > 0 {
			e.Rows = make([][]Value, 0, nrows)
		}
		for i := uint64(0); i < nrows; i++ {
			ncols := r.uvarint()
			if r.err != nil || ncols > uint64(len(payload)) {
				return record{}, errCorrupt
			}
			var row []Value
			if ncols > 0 {
				row = make([]Value, 0, ncols)
			}
			for j := uint64(0); j < ncols; j++ {
				switch r.byte() {
				case 0:
					row = append(row, Value{S: r.string()})
				case 1:
					row = append(row, Value{Null: true})
				default:
					return record{}, fmt.Errorf("%w: unknown value flag", errCorrupt)
				}
			}
			e.Rows = append(e.Rows, row)
		}
		if r.err != nil || r.off != len(payload) {
			return record{}, errCorrupt
		}
		return record{entry: e}, nil
	default:
		return record{}, fmt.Errorf("%w: unknown record type", errCorrupt)
	}
}
