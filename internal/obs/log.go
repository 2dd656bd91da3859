package obs

import "io"

// A Logger emits structured diagnostic lines as NDJSON — the machine-
// parseable replacement for bare fmt.Fprintf(os.Stderr, ...) status
// messages. Every line is one event object
//
//	{"event":"<event>","msg":"<msg>",...fields}
//
// with the human-readable message first and structured context after it, in
// call order, so lines are deterministic and grep-able by both substring and
// jq filter. It shares Sink's concurrency contract: one line per Log call,
// never torn. A nil *Logger is a valid no-op, so callers log
// unconditionally.
type Logger struct {
	sink  *Sink
	event string
}

// NewLogger returns a logger whose lines carry the given event
// discriminator (e.g. "shard" for the coordinator's diagnostics, matching
// crserve's "http" request log). The caller retains ownership of w.
func NewLogger(w io.Writer, event string) *Logger {
	return &Logger{sink: NewSink(w), event: event}
}

// Log writes one diagnostic line. Write errors are swallowed: diagnostics
// must never fail the operation they describe.
func (l *Logger) Log(msg string, fields ...Field) {
	if l == nil {
		return
	}
	all := make([]Field, 0, 1+len(fields))
	all = append(all, F("msg", msg))
	_ = l.sink.Emit(l.event, append(all, fields...)...)
}
