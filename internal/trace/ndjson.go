package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"fadingcr/internal/geom"
	"fadingcr/internal/obs"
)

// NDJSON trace layout: one JSON object per line in internal/obs sink
// convention — the "event" discriminator first, every other field in a
// fixed order, no map iteration anywhere — so equal captures serialise to
// byte-identical files. The first line is the header event; each record
// follows as its Kind's event name. Optional annotations (a reception's
// sinr/margin when the channel exposed no observer, a round's active count
// when nodes expose no activity) are omitted rather than written as
// sentinels. The reader accepts exactly these lines and nothing else.

// WriteNDJSON serialises the trace's header and records as NDJSON.
func (t *Trace) WriteNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	e := obs.NewLineEncoder(bw)
	writeHeader(e, &t.Header)
	for _, rec := range t.Records {
		writeRecord(e, rec, t.classSizes)
	}
	if err := e.Err(); err != nil {
		return fmt.Errorf("trace: write ndjson: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: write ndjson: %w", err)
	}
	return nil
}

func writeHeader(e *obs.LineEncoder, h *Header) {
	e.Begin("header")
	e.Int("schema", int64(h.Schema))
	e.Str("cmd", h.Cmd)
	e.Int("n", int64(h.N))
	e.Uint("seed", h.Seed)
	e.Uint("deploy_seed", h.DeploySeed)
	e.Int("trial", int64(h.Trial))
	e.Str("algo", h.Algo)
	e.Str("channel", h.Channel)
	e.Int("max_rounds", int64(h.MaxRounds))
	if len(h.Points) > 0 {
		e.Arr("points")
		for _, p := range h.Points {
			e.ElemArr()
			e.ElemFloat(p.X)
			e.ElemFloat(p.Y)
			e.ArrEnd()
		}
		e.ArrEnd()
	}
	_ = e.End()
}

func writeRecord(e *obs.LineEncoder, rec Record, classSizes []int32) {
	e.Begin(rec.Kind.String())
	switch rec.Kind {
	case KindRound:
		e.Int("round", int64(rec.Round))
		if rec.Active >= 0 {
			e.Int("active", int64(rec.Active))
		}
		e.Int("tx", int64(rec.Tx))
		e.Int("recv", int64(rec.Recv))
	case KindTransmit, KindKnockout:
		e.Int("round", int64(rec.Round))
		e.Int("node", int64(rec.Node))
	case KindReception:
		e.Int("round", int64(rec.Round))
		e.Int("node", int64(rec.Node))
		e.Int("from", int64(rec.From))
		if !math.IsNaN(rec.SINR) {
			e.Float("sinr", rec.SINR)
			e.Float("margin", rec.Margin)
		}
	case KindClasses:
		e.Int("round", int64(rec.Round))
		e.Arr("sizes")
		for _, s := range classSizes[rec.Off : rec.Off+rec.Len] {
			e.ElemInt(int64(s))
		}
		e.ArrEnd()
	case KindResult:
		e.Bool("solved", rec.Solved)
		e.Int("rounds", int64(rec.Round))
		e.Int("winner", int64(rec.Node))
		e.Int("transmissions", rec.Transmissions)
	}
	_ = e.End()
}

// jsonLine is the union of every NDJSON trace line's fields; pointers
// distinguish absent optional annotations from zero values.
type jsonLine struct {
	Event string `json:"event"`

	// header
	Schema     int         `json:"schema"`
	Cmd        string      `json:"cmd"`
	N          int         `json:"n"`
	Seed       uint64      `json:"seed"`
	DeploySeed uint64      `json:"deploy_seed"`
	Trial      int         `json:"trial"`
	Algo       string      `json:"algo"`
	Channel    string      `json:"channel"`
	MaxRounds  int         `json:"max_rounds"`
	Points     [][]float64 `json:"points"`

	// records
	Round  int32           `json:"round"`
	Node   int32           `json:"node"`
	From   int32           `json:"from"`
	Active *int32          `json:"active"`
	Tx     int32           `json:"tx"`
	Recv   int32           `json:"recv"`
	SINR   json.RawMessage `json:"sinr"`
	Margin json.RawMessage `json:"margin"`
	Sizes  []int32         `json:"sizes"`

	// result
	Solved        bool  `json:"solved"`
	Rounds        int32 `json:"rounds"`
	Winner        int32 `json:"winner"`
	Transmissions int64 `json:"transmissions"`
}

// annotation decodes a reception's optional SINR or margin. Absent (the
// channel had no observer) reads as NaN, and null as +Inf: the one
// non-finite value a present annotation takes (a lone transmitter at zero
// noise), which the writer spells null. Anything else that is not a number
// reads as NaN and then fails the canonical comparison.
func annotation(raw json.RawMessage) float64 {
	if string(raw) == "null" {
		return math.Inf(1)
	}
	v, err := strconv.ParseFloat(string(raw), 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// headerFromLine converts a decoded header line.
func headerFromLine(l *jsonLine) (Header, error) {
	if l.Schema != SchemaVersion {
		return Header{}, fmt.Errorf("trace: unsupported schema version %d (reader supports %d)", l.Schema, SchemaVersion)
	}
	h := Header{
		Schema:     l.Schema,
		Cmd:        l.Cmd,
		N:          l.N,
		Seed:       l.Seed,
		DeploySeed: l.DeploySeed,
		Trial:      l.Trial,
		Algo:       l.Algo,
		Channel:    l.Channel,
		MaxRounds:  l.MaxRounds,
	}
	for _, p := range l.Points {
		if len(p) != 2 {
			return Header{}, fmt.Errorf("trace: header point %v is not an [x,y] pair", p)
		}
		h.Points = append(h.Points, geom.Point{X: p[0], Y: p[1]})
	}
	return h, nil
}

// readNDJSON parses a non-empty NDJSON trace stream. Each line must be
// byte for byte the line the writer emits for what it decodes to, newline
// included, so blank lines, reordered or unknown keys, spelled-out defaults
// and unterminated last lines are rejected, and an accepted stream
// re-encodes exactly.
func readNDJSON(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	sc.Split(scanLine)
	var canon bytes.Buffer
	enc := obs.NewLineEncoder(&canon)
	t := &Trace{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		var l jsonLine
		if err := json.Unmarshal(line, &l); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		canon.Reset()
		if lineNo == 1 {
			if l.Event != "header" {
				return nil, fmt.Errorf("trace: line 1: first event is %q, want header", l.Event)
			}
			h, err := headerFromLine(&l)
			if err != nil {
				return nil, err
			}
			t.Header = h
			writeHeader(enc, &t.Header)
		} else {
			rec, err := recordFromLine(t, &l)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			t.Records = append(t.Records, rec)
			writeRecord(enc, rec, t.classSizes)
		}
		if !bytes.Equal(canon.Bytes(), line) {
			return nil, fmt.Errorf("trace: line %d is not in canonical form", lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read ndjson: %w", err)
	}
	return t, nil
}

// scanLine is a bufio.SplitFunc that keeps each line's newline, so the
// canonical comparison sees it.
func scanLine(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

func recordFromLine(t *Trace, l *jsonLine) (Record, error) {
	switch l.Event {
	case "round":
		active := int32(-1)
		if l.Active != nil {
			active = *l.Active
		}
		return Record{Kind: KindRound, Round: l.Round, Active: active, Tx: l.Tx, Recv: l.Recv}, nil
	case "tx":
		return Record{Kind: KindTransmit, Round: l.Round, Node: l.Node}, nil
	case "recv":
		return Record{Kind: KindReception, Round: l.Round, Node: l.Node, From: l.From, SINR: annotation(l.SINR), Margin: annotation(l.Margin)}, nil
	case "knockout":
		return Record{Kind: KindKnockout, Round: l.Round, Node: l.Node}, nil
	case "classes":
		off := int32(len(t.classSizes))
		t.classSizes = append(t.classSizes, l.Sizes...)
		return Record{Kind: KindClasses, Round: l.Round, Off: off, Len: int32(len(l.Sizes))}, nil
	case "result":
		return Record{Kind: KindResult, Round: l.Rounds, Node: l.Winner, Solved: l.Solved, Transmissions: l.Transmissions}, nil
	case "header":
		return Record{}, fmt.Errorf("duplicate header event")
	default:
		return Record{}, fmt.Errorf("unknown event %q", l.Event)
	}
}
