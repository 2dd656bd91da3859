package obs

import (
	"bytes"
	"io"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// LineEncoder streams NDJSON event lines through one reused buffer. It
// emits the same line shape as Sink.Emit — one JSON object per line with
// the "event" discriminator field first and every field in call order — but
// trades Sink's concurrency and reflection (json.Marshal per field) for an
// append-only fast path, so bulk writers (the structured trace serializer
// emits one line per recorded event) produce no per-line garbage beyond the
// occasional buffer growth.
//
// A LineEncoder is single-goroutine: unlike Sink it takes no lock. Usage:
//
//	e := obs.NewLineEncoder(w)
//	e.Begin("round")
//	e.Int("round", 7)
//	e.Int("tx", 3)
//	if err := e.End(); err != nil { ... }
//
// Arrays nest with Arr/ArrEnd and the Elem* element appenders:
//
//	e.Arr("sizes"); e.ElemInt(5); e.ElemInt(3); e.ArrEnd()
type LineEncoder struct {
	w     io.Writer
	buf   []byte
	comma bool
	err   error
}

// NewLineEncoder wraps a writer. The caller retains ownership of the writer
// (closing files, flushing any outer bufio layer).
func NewLineEncoder(w io.Writer) *LineEncoder { return &LineEncoder{w: w} }

// Begin starts a new line: {"event":"<event>". Any previously begun line
// must have been finished with End.
func (e *LineEncoder) Begin(event string) {
	e.buf = append(e.buf[:0], `{"event":`...)
	e.buf = appendQuoted(e.buf, event)
	e.comma = true
}

// key appends the separator and a quoted key.
func (e *LineEncoder) key(k string) {
	if e.comma {
		e.buf = append(e.buf, ',')
	}
	e.buf = appendQuoted(e.buf, k)
	e.buf = append(e.buf, ':')
	e.comma = true
}

// elem appends the separator of a bare array element.
func (e *LineEncoder) elem() {
	if e.comma {
		e.buf = append(e.buf, ',')
	}
	e.comma = true
}

// Int appends "key":v.
func (e *LineEncoder) Int(key string, v int64) {
	e.key(key)
	e.buf = strconv.AppendInt(e.buf, v, 10)
}

// Uint appends "key":v.
func (e *LineEncoder) Uint(key string, v uint64) {
	e.key(key)
	e.buf = strconv.AppendUint(e.buf, v, 10)
}

// Float appends "key":v in shortest round-trip form; non-finite values,
// which JSON cannot represent, encode as null.
func (e *LineEncoder) Float(key string, v float64) {
	e.key(key)
	e.appendFloat(v)
}

// Bool appends "key":true|false.
func (e *LineEncoder) Bool(key string, v bool) {
	e.key(key)
	e.buf = strconv.AppendBool(e.buf, v)
}

// Str appends "key":"v" with JSON string quoting.
func (e *LineEncoder) Str(key string, v string) {
	e.key(key)
	e.buf = appendQuoted(e.buf, v)
}

// appendQuoted appends s as a JSON string. It writes what strconv.Quote
// writes wherever that is valid JSON, so existing lines keep their bytes,
// and JSON escapes where Go's are not: \u00XX for control bytes and DEL,
// \ufffd for each invalid UTF-8 byte, and a surrogate pair for a
// non-printable rune above U+FFFF. Like strconv, and unlike encoding/json,
// it does not escape <, > or &.
func appendQuoted(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		i += width
		switch {
		case r == utf8.RuneError && width == 1:
			buf = append(buf, `\ufffd`...)
		case r < utf8.RuneSelf && shortEscape[r] != 0:
			buf = append(buf, '\\', shortEscape[r])
		case strconv.IsPrint(r):
			buf = utf8.AppendRune(buf, r)
		case r < 0x10000:
			buf = appendEscape(buf, r)
		default:
			r1, r2 := utf16.EncodeRune(r)
			buf = appendEscape(appendEscape(buf, r1), r2)
		}
	}
	return append(buf, '"')
}

// shortEscape maps each ASCII character with a two-character escape, in
// Go and JSON alike, to the letter after its backslash.
var shortEscape = [utf8.RuneSelf]byte{'"': '"', '\\': '\\', '\b': 'b', '\f': 'f', '\n': 'n', '\r': 'r', '\t': 't'}

// appendEscape appends the \uXXXX escape of a UTF-16 code unit.
func appendEscape(buf []byte, r rune) []byte {
	const hex = "0123456789abcdef"
	return append(buf, '\\', 'u', hex[r>>12&0xf], hex[r>>8&0xf], hex[r>>4&0xf], hex[r&0xf])
}

// Arr opens an array-valued field: "key":[.
func (e *LineEncoder) Arr(key string) {
	e.key(key)
	e.buf = append(e.buf, '[')
	e.comma = false
}

// ElemArr opens a nested array element: [.
func (e *LineEncoder) ElemArr() {
	e.elem()
	e.buf = append(e.buf, '[')
	e.comma = false
}

// ElemInt appends a bare integer array element.
func (e *LineEncoder) ElemInt(v int64) {
	e.elem()
	e.buf = strconv.AppendInt(e.buf, v, 10)
}

// ElemFloat appends a bare float array element (null when non-finite).
func (e *LineEncoder) ElemFloat(v float64) {
	e.elem()
	e.appendFloat(v)
}

// Raw appends "key":v where v is pre-encoded JSON, copied verbatim. The
// caller guarantees v is one complete, valid JSON value (the
// json.RawMessage contract); the encoder does not re-validate it.
func (e *LineEncoder) Raw(key string, v []byte) {
	e.key(key)
	e.buf = append(e.buf, v...)
}

// ElemRaw appends a pre-encoded JSON value as a bare array element, under
// the same contract as Raw.
func (e *LineEncoder) ElemRaw(v []byte) {
	e.elem()
	e.buf = append(e.buf, v...)
}

// ArrEnd closes the innermost open array.
func (e *LineEncoder) ArrEnd() {
	e.buf = append(e.buf, ']')
	e.comma = true
}

func (e *LineEncoder) appendFloat(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = strconv.AppendFloat(e.buf, v, 'g', -1, 64)
}

// End closes the line with }\n and writes it. The first write error sticks:
// subsequent End calls return it without writing, so a serialization loop
// can defer error handling to its final End.
func (e *LineEncoder) End() error {
	if e.err != nil {
		return e.err
	}
	e.buf = append(e.buf, '}', '\n')
	if _, err := e.w.Write(e.buf); err != nil {
		e.err = err
	}
	return e.err
}

// Err returns the sticky write error, if any.
func (e *LineEncoder) Err() error { return e.err }

// Canonical reports whether raw is exactly the line write produces on a
// fresh encoder. A wire reader re-encodes every line it accepts through
// the writer that emits it, so only canonical bytes decode and an accepted
// stream re-encodes byte for byte.
func Canonical(raw []byte, write func(*LineEncoder) error) bool {
	var buf bytes.Buffer
	return write(NewLineEncoder(&buf)) == nil && bytes.Equal(buf.Bytes(), raw)
}
