package trace

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"fadingcr/internal/geom"
)

// readAllocBudget is the most Read may allocate for an input of n bytes: a
// fixed allowance (the NDJSON scanner's 64 KiB buffer, decoder state) plus
// a constant factor of the input, since every accepted structure is built
// from bytes that are actually present.
func readAllocBudget(n int) uint64 { return 1<<20 + 64*uint64(n) }

// readAllocated runs Read on data and reports the bytes it allocated.
func readAllocated(data []byte) (uint64, *Trace, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, tr, err
}

// TestReadRejectsOversizedBinaryHeader: a 12-byte binary trace declaring a
// 4 GiB header is rejected without allocating the declared length, and a
// header truncated short of its declared length is an error.
func TestReadRejectsOversizedBinaryHeader(t *testing.T) {
	for name, data := range map[string][]byte{
		"declares 4 GiB":  []byte("CRTRACE\x01\xff\xff\xff\xff"),
		"truncated":       []byte("CRTRACE\x01\x00\x01\x00\x00{\"event\":\"header\""),
		"just over bound": append([]byte("CRTRACE\x01"), 0x01, 0x00, 0x00, 0x10),
	} {
		alloc, _, err := readAllocated(data)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if budget := readAllocBudget(len(data)); alloc > budget {
			t.Errorf("%s: Read allocated %d bytes for a %d-byte input (budget %d)", name, alloc, len(data), budget)
		}
	}
	if _, err := Read(bytes.NewReader([]byte("CRTRACE\x01\xff\xff\xff\xff"))); err == nil || !strings.Contains(err.Error(), "declares") {
		t.Errorf("oversized header error = %v, want a declared-size rejection", err)
	}
}

// encodedTraces returns the test run's trace in both formats, with and
// without link-class censuses and SINR annotations; the bare variant also
// carries an infinite SINR, which NDJSON spells null.
func encodedTraces(t testing.TB) map[string][]byte {
	rec, _ := runStructured(t, 5, 11, 10)
	full := &rec.Trace
	bare := &Trace{Header: full.Header}
	bare.Header.Points = nil
	for _, r := range full.Records {
		switch r.Kind {
		case KindClasses:
			continue
		case KindReception:
			r.SINR, r.Margin = math.NaN(), math.NaN()
		}
		bare.Records = append(bare.Records, r)
	}
	bare.Records = append(bare.Records, Record{Kind: KindReception, Round: 1, Node: 2, From: 3, SINR: math.Inf(1), Margin: math.Inf(1)})
	out := map[string][]byte{}
	for name, tr := range map[string]*Trace{"full": full, "bare": bare} {
		for _, format := range []Format{FormatNDJSON, FormatBinary} {
			var buf bytes.Buffer
			if err := format.Write(tr, &buf); err != nil {
				t.Fatal(err)
			}
			out[name+"."+format.String()] = buf.Bytes()
		}
	}
	return out
}

// TestReadRoundTripsExactly: every written trace reads back and re-encodes
// to its own bytes, in both formats.
func TestReadRoundTripsExactly(t *testing.T) {
	for name, data := range encodedTraces(t) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := reencode(t, tr, data); !bytes.Equal(got, data) {
			t.Errorf("%s: re-encodes differently", name)
		}
	}
}

// reencode writes tr back in the format data was read from.
func reencode(t testing.TB, tr *Trace, data []byte) []byte {
	t.Helper()
	format := FormatBinary
	if data[0] == '{' {
		format = FormatNDJSON
	}
	var buf bytes.Buffer
	if err := format.Write(tr, &buf); err != nil {
		t.Fatalf("accepted trace does not encode: %v", err)
	}
	return buf.Bytes()
}

// smallTrace is a hand-built trace whose every line is known: a round
// without activity, a transmit, a finite and an infinite SINR reception,
// and the result.
func smallTrace() *Trace {
	return &Trace{
		Header: Header{Schema: SchemaVersion, Cmd: "test", N: 3, Points: []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}}},
		Records: []Record{
			{Kind: KindRound, Round: 1, Active: -1, Tx: 1, Recv: 2},
			{Kind: KindTransmit, Round: 1, Node: 0},
			{Kind: KindReception, Round: 1, Node: 1, From: 0, SINR: 2.5, Margin: 1},
			{Kind: KindReception, Round: 1, Node: 2, From: 0, SINR: math.Inf(1), Margin: math.Inf(1)},
			{Kind: KindResult, Solved: true, Round: 1, Node: 0, Transmissions: 1},
		},
	}
}

// TestReadRejectsNonCanonicalInput: input that parses but is not what the
// writers emit does not read.
func TestReadRejectsNonCanonicalInput(t *testing.T) {
	var buf bytes.Buffer
	if err := smallTrace().WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	nd := buf.String()
	if _, err := Read(strings.NewReader(nd)); err != nil {
		t.Fatalf("canonical trace rejected: %v", err)
	}
	for name, edit := range map[string][2]string{
		"blank line":       {"\n{\"event\":\"tx\"", "\n\n{\"event\":\"tx\""},
		"reordered keys":   {`"round":1,"node":0}`, `"node":0,"round":1}`},
		"unknown key":      {`"transmissions":1}`, `"transmissions":1,"x":0}`},
		"explicit active":  {`{"event":"round","round":1,`, `{"event":"round","round":1,"active":-1,`},
		"null point":       {`[[0,0],`, `[[null,0],`},
		"float spelling":   {`"sinr":2.5,`, `"sinr":2.50,`},
		"margin alone":     {`"sinr":2.5,"margin":1`, `"margin":1`},
		"escaped string":   {`"cmd":"test"`, `"cmd":"t\u0065st"`},
		"spaced separator": {`"round":1,"node":0}`, `"round":1, "node":0}`},
		"crlf":             {"}\n", "}\r\n"},
		"unterminated":     {"}\n{\"event\":\"result\"", "}\n{\"event\":\"result\""},
	} {
		bad := strings.Replace(nd, edit[0], edit[1], 1)
		if name == "unterminated" {
			bad = strings.TrimSuffix(nd, "\n")
		}
		if bad == nd {
			t.Fatalf("%s: edit %q not found", name, edit[0])
		}
		if _, err := Read(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	buf.Reset()
	if err := smallTrace().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	bin := buf.Bytes()
	solved := append([]byte(nil), bin...)
	solved[len(solved)-17] = 2 // the result record's solved byte
	header := bytes.Replace(bin, []byte(`"schema":1,"cmd":"test"`), []byte(`"cmd":"test","schema":1`), 1)
	for name, bad := range map[string][]byte{"solved byte 2": solved, "reordered header": header} {
		if bytes.Equal(bad, bin) {
			t.Fatalf("%s: edit not applied", name)
		}
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Errorf("binary %s: accepted", name)
		}
	}
}

// FuzzRead: Read must accept or reject any byte stream without panicking
// and without allocating more than readAllocBudget, and every accepted
// stream must re-encode through Format.Write to exactly its own bytes. The
// corpus is seeded with this package's test traces in both formats, with
// and without censuses and SINR annotations.
func FuzzRead(f *testing.F) {
	traces := encodedTraces(f)
	for _, name := range []string{"full.ndjson", "full.binary", "bare.ndjson", "bare.binary"} {
		f.Add(traces[name])
	}
	for _, format := range []Format{FormatNDJSON, FormatBinary} {
		var buf bytes.Buffer
		if err := format.Write(smallTrace(), &buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("CRTRACE\x01\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		alloc, tr, err := readAllocated(data)
		if alloc > readAllocBudget(len(data)) {
			t.Fatalf("Read allocated %d bytes for a %d-byte input", alloc, len(data))
		}
		if err != nil {
			return
		}
		if got := reencode(t, tr, data); !bytes.Equal(got, data) {
			t.Fatalf("accepted stream re-encodes differently:\n got %q\nwant %q", got, data)
		}
	})
}
