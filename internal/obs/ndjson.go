package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// A Field is one key/value pair of an NDJSON event. Fields are emitted in
// the order given, so event lines are deterministic — no map iteration is
// involved anywhere in the encoder.
type Field struct {
	Key   string
	Value any
}

// F constructs a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// A Sink writes newline-delimited JSON events: one JSON object per line,
// with an "event" discriminator field first. It is safe for concurrent use;
// each Emit writes exactly one line.
type Sink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewSink wraps a writer. The caller retains ownership of the writer
// (closing files, flushing buffers).
func NewSink(w io.Writer) *Sink { return &Sink{w: w} }

// Emit writes one event line: {"event":"<event>","k1":v1,...}. Values are
// encoded with encoding/json; an unencodable value fails the whole line so
// malformed records never reach the file.
func (s *Sink) Emit(event string, fields ...Field) error {
	buf := make([]byte, 0, 128)
	buf = append(buf, `{"event":`...)
	buf = strconv.AppendQuote(buf, event)
	for _, f := range fields {
		val, err := json.Marshal(f.Value)
		if err != nil {
			return fmt.Errorf("obs: field %q of event %q: %w", f.Key, event, err)
		}
		buf = append(buf, ',')
		buf = strconv.AppendQuote(buf, f.Key)
		buf = append(buf, ':')
		buf = append(buf, val...)
	}
	buf = append(buf, '}', '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.w.Write(buf)
	return err
}

// EmitTo writes the registry's snapshot to the sink as one event per metric
// in ascending name order: counters and gauges as
// {"event":"counter","name":...,"value":N}, histograms as
// {"event":"histogram","name":...,"count":N,"sum":S,"p50":...,"p95":...,
// "p99":...,"buckets":[{"lt":...,"count":...},...]} with the deterministic
// quantile estimates of MetricSnapshot. It is the one serializer behind the
// -metrics report and the /metrics handler.
func (r *Registry) EmitTo(s *Sink) error {
	for _, m := range r.Snapshot() {
		var err error
		switch m.Kind {
		case "histogram":
			err = s.Emit(m.Kind, F("name", m.Name), F("count", m.Count), F("sum", m.Sum),
				F("p50", m.P50), F("p95", m.P95), F("p99", m.P99), F("buckets", m.Buckets))
		default:
			err = s.Emit(m.Kind, F("name", m.Name), F("value", m.Value))
		}
		if err != nil {
			return err
		}
	}
	return nil
}
