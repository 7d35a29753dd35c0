package sources

import "strings"

// Key encoding: the one way a tuple of values becomes a string key —
// a set's membership key, an index's lookup key, a call's memo key. The
// values are joined by KeySep, and inside a value each KeyEsc byte is
// written as KeyEsc 0x01 and each KeySep byte as KeyEsc 0x02, so the
// encoding is injective: no two value tuples of one length share a key.
// A value without those two bytes encodes as itself, so such tuples keep
// the key strings.Join(vals, KeySep) gives them, and their key order.
// KeyEsc followed by any byte but 0x01 or 0x02 never comes out of an
// escaped value: engine.Row.Key spells its null that way.
const (
	KeySep = "\x1f"
	KeyEsc = "\x00"
)

// KeyValueLen returns the length of v's encoding within a key, len(v)
// when v needs no escape.
func KeyValueLen(v string) int {
	n := len(v)
	for i := 0; i < len(v); i++ {
		if v[i] == KeyEsc[0] || v[i] == KeySep[0] {
			n++
		}
	}
	return n
}

// WriteKeyValue writes v's encoding within a key to b.
func WriteKeyValue(b *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case KeyEsc[0]:
			b.WriteString(KeyEsc + "\x01")
		case KeySep[0]:
			b.WriteString(KeyEsc + "\x02")
		default:
			b.WriteByte(v[i])
		}
	}
}

// Key encodes vals as one key. It allocates once, and not at all for
// one value that needs no escape.
func Key(vals []string) string {
	n, escape := len(vals)-1, false
	for _, v := range vals {
		l := KeyValueLen(v)
		escape = escape || l != len(v)
		n += l
	}
	if !escape {
		return strings.Join(vals, KeySep)
	}
	var b strings.Builder
	b.Grow(n)
	for i, v := range vals {
		if i > 0 {
			b.WriteString(KeySep)
		}
		WriteKeyValue(&b, v)
	}
	return b.String()
}
