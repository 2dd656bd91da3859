package obs

import (
	"bytes"
	"io"
	"math"
	"strconv"
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
	e.buf = strconv.AppendQuote(e.buf, event)
	e.comma = true
}

// key appends the separator and a quoted key.
func (e *LineEncoder) key(k string) {
	if e.comma {
		e.buf = append(e.buf, ',')
	}
	e.buf = strconv.AppendQuote(e.buf, k)
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
	e.buf = strconv.AppendQuote(e.buf, v)
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
