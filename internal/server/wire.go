package server

// The /v1/query response body. An answer is the bulk of it — 4 000 rows
// are ≈ 100 KB — and encoding/json encodes it by reflection, a string
// at a time into an encodeState that is then copied to the connection,
// chunked. Here the server appends the whole Response into one byte
// slice and writes it once, with its length.
//
// The contract is encoding/json's own, byte for byte: appendResponse
// writes exactly json.Marshal(resp) plus a newline (what Encoder.Encode
// writes), so every client decodes the body as before. Response has no
// MarshalJSON: encoding/json re-validates and re-compacts a marshaler's
// output, which costs more than the reflection it replaces, so
// json.Marshal stays the reflective reference the encoder is tested
// against.

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	ucqn "repro"
)

// wireRows flattens a relation for the wire, in Sorted order, every row
// a window of one backing array. Underestimates carry no nulls (they
// are answers of surviving disjuncts); a null from other execution modes
// serializes as the string "null".
func wireRows(rel *ucqn.Rel) [][]string {
	rows := rel.Sorted()
	cells := 0
	for _, row := range rows {
		cells += len(row)
	}
	flat := make([]string, 0, cells)
	out := make([][]string, len(rows))
	for i, row := range rows {
		start := len(flat)
		for _, v := range row {
			if v.Null {
				flat = append(flat, "null")
			} else {
				flat = append(flat, v.S)
			}
		}
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

// chunkingThreshold is the size of net/http's pre-chunking buffer: a
// response body up to that long that the handler writes before it
// returns goes out with a Content-Length net/http sets itself, and a
// longer one is chunked unless the handler sets it.
const chunkingThreshold = 2048

// bodies recycles response buffers: a body is dead once written, and
// the reflective encoder this replaces kept its buffer in a pool too.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// writeResponse sends resp as the body of w: json.Marshal(resp) and a
// newline, built in one buffer and written at once, with its length.
// Setting the header costs two allocations, so only a body net/http
// would chunk sets it.
func writeResponse(w http.ResponseWriter, resp *Response) {
	buf := bodies.Get().(*[]byte)
	body := (*buf)[:0]
	if n := responseSize(resp); cap(body) < n {
		body = make([]byte, 0, n)
	}
	body = appendResponse(body, resp)
	if len(body) > chunkingThreshold {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	}
	_, _ = w.Write(body) // a client gone mid-body leaves nothing to salvage
	*buf = body
	bodies.Put(buf)
}

// responseSize is the body length of resp when no string needs an
// escape: the capacity that lets appendResponse fill a buffer without
// growing it.
func responseSize(resp *Response) int {
	n := 192 + len(resp.Tenant)
	for _, row := range resp.Answers {
		n += 3
		for _, s := range row {
			n += len(s) + 3
		}
	}
	return n
}

// appendResponse appends json.Marshal(resp) and a newline to b.
// resp.ElapsedMS must be finite, as a measured duration is;
// json.Marshal refuses NaN and infinities.
func appendResponse(b []byte, resp *Response) []byte {
	b = append(b, `{"tenant":`...)
	b = appendString(b, resp.Tenant)
	b = append(b, `,"answers":`...)
	b = appendRows(b, resp.Answers)
	b = append(b, `,"complete":`...)
	b = strconv.AppendBool(b, resp.Complete)
	b = append(b, `,"shed":`...)
	b = strconv.AppendBool(b, resp.Shed)
	b = append(b, `,"degraded":`...)
	b = strconv.AppendBool(b, resp.Degraded)
	if resp.Incompleteness != nil {
		b = append(b, `,"incompleteness":`...)
		b = appendIncompleteness(b, resp.Incompleteness)
	}
	b = append(b, `,"calls":`...)
	b = strconv.AppendInt(b, int64(resp.Calls), 10)
	b = append(b, `,"elapsed_ms":`...)
	b = appendFloat(b, resp.ElapsedMS)
	b = append(b, `,"gen":`...)
	b = strconv.AppendInt(b, resp.Gen, 10)
	return append(b, "}\n"...)
}

// appendIncompleteness appends rep as encoding/json does: omitempty
// drops an empty Failed, and a failed rule's empty Source and Step.
func appendIncompleteness(b []byte, rep *IncompletenessReport) []byte {
	b = append(b, `{"rules_total":`...)
	b = strconv.AppendInt(b, int64(rep.RulesTotal), 10)
	b = append(b, `,"rules_survived":`...)
	b = strconv.AppendInt(b, int64(rep.RulesSurvived), 10)
	if len(rep.Failed) > 0 {
		b = append(b, `,"failed":[`...)
		for i, f := range rep.Failed {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"rule":`...)
			b = strconv.AppendInt(b, int64(f.Rule), 10)
			b = append(b, `,"class":`...)
			b = appendString(b, f.Class)
			if f.Source != "" {
				b = append(b, `,"source":`...)
				b = appendString(b, f.Source)
			}
			if f.Step != "" {
				b = append(b, `,"step":`...)
				b = appendString(b, f.Step)
			}
			b = append(b, `,"error":`...)
			b = appendString(b, f.Error)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendRows appends rows as encoding/json does a [][]string: a nil
// slice, outer or row, is null.
func appendRows(b []byte, rows [][]string) []byte {
	if rows == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		if row == nil {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '[')
		for j, s := range row {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendString(b, s)
		}
		b = append(b, ']')
	}
	return append(b, ']')
}

// appendFloat formats f as encoding/json does a float64: the shortest
// decimal that round-trips, in exponent form only below 1e-6 or from
// 1e21 on, with a one-digit negative exponent not zero-padded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 → e-9
		b = b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does
// with HTML escaping on: `"` and `\` escaped, the control characters
// too (\b \f \n \r \t by name, the rest as \u00XX), <, > and & as
// \u003c, \u003e and \u0026, U+2028 and U+2029 as \u2028 and \u2029,
// and each byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
