package trace

import (
	"bufio"
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// readAllocBudget is the most Read may allocate for an input of n bytes: a
// fixed allowance (the NDJSON scanner's 64 KiB buffer, decoder state) plus
// a constant factor of the input, since every accepted structure is built
// from bytes that are actually present.
func readAllocBudget(n int) uint64 { return 1<<20 + 64*uint64(n) }

// readAllocated runs Read on data and reports the bytes it allocated.
func readAllocated(data []byte) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
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
		alloc, err := readAllocated(data)
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

// FuzzRead: Read must accept or reject any byte stream without panicking
// and without allocating more than readAllocBudget. The corpus is seeded
// with this package's test traces in both formats.
func FuzzRead(f *testing.F) {
	rec, _ := runStructured(f, 5, 11, 10)
	for _, format := range []Format{FormatNDJSON, FormatBinary} {
		var buf bytes.Buffer
		if err := format.Write(rec, &buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("CRTRACE\x01\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if alloc, _ := readAllocated(data); alloc > readAllocBudget(len(data)) {
			t.Fatalf("Read allocated %d bytes for a %d-byte input", alloc, len(data))
		}
	})
}

// readBundleAllocated runs ReadBundle on data and reports the bytes it
// allocated, the bundle, and how many bytes of data it consumed.
func readBundleAllocated(data []byte) (uint64, *Bundle, int, error) {
	r := bytes.NewReader(data)
	br := bufio.NewReader(r)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, err := ReadBundle(br)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, b, len(data) - r.Len() - br.Buffered(), err
}

// hostileBundle is a 188-byte stream: a bundle header and one trace-file
// line declaring a 256 MiB payload that never follows.
const hostileBundle = `{"event":"trace-bundle","schema":1,"format":"ndjson","every":1,"failures":false,"classes":false}` + "\n" +
	`{"event":"trace-file","loop":0,"trial":0,"name":"t.ndjson","size":268435456,"sha256":"00"}` + "\n"

// TestReadBundleBoundsDeclaredSize: a payload's declared size is not
// allocated before its bytes arrive, so the 188-byte stream declaring
// 256 MiB is rejected within the allocation budget of its own length.
func TestReadBundleBoundsDeclaredSize(t *testing.T) {
	if len(hostileBundle) != 188 {
		t.Fatalf("hostile stream is %d bytes, want 188", len(hostileBundle))
	}
	alloc, _, _, err := readBundleAllocated([]byte(hostileBundle))
	if err == nil || !strings.Contains(err.Error(), "truncated bundle payload") {
		t.Errorf("hostile stream: err = %v, want a truncated-payload rejection", err)
	}
	if alloc >= 1<<20 {
		t.Errorf("hostile stream: ReadBundle allocated %d bytes, want < 1 MiB", alloc)
	}
}

// TestReadBundleRejectsNonCanonicalLines: a manifest line that parses but
// is not the line Encode writes — reordered keys, spacing, a missing field
// — does not decode, so every accepted stream re-encodes byte for byte.
func TestReadBundleRejectsNonCanonicalLines(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleBundle().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	wire := buf.String()
	for name, edit := range map[string][2]string{
		"reordered header": {`"schema":1,"format":"ndjson"`, `"format":"ndjson","schema":1`},
		"spaced file line": {`"loop":0,"trial":2`, `"loop":0, "trial":2`},
		"missing field":    {`,"failures":false`, ``},
		"padded end line":  {`{"event":"trace-end"`, ` {"event":"trace-end"`},
	} {
		bad := strings.Replace(wire, edit[0], edit[1], 1)
		if bad == wire {
			t.Fatalf("%s: edit %q not found", name, edit[0])
		}
		if _, err := ReadBundle(bufio.NewReader(strings.NewReader(bad))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzReadBundle: ReadBundle must accept or reject any byte stream without
// panicking and without allocating more than readAllocBudget, and an
// accepted stream must re-encode to exactly the bytes it consumed. The
// corpus is seeded with encoded bundles and the hostile stream.
func FuzzReadBundle(f *testing.F) {
	for _, b := range []*Bundle{sampleBundle(), {Policy: Policy{Format: FormatBinary, EveryK: 100}}} {
		var buf bytes.Buffer
		if err := b.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(append(buf.Bytes(), "trailing"...))
	}
	f.Add([]byte(hostileBundle))
	f.Fuzz(func(t *testing.T, data []byte) {
		alloc, b, consumed, err := readBundleAllocated(data)
		if alloc > readAllocBudget(len(data)) {
			t.Fatalf("ReadBundle allocated %d bytes for a %d-byte input", alloc, len(data))
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := b.Encode(&buf); err != nil {
			t.Fatalf("accepted bundle does not encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:consumed]) {
			t.Fatalf("accepted stream re-encodes differently:\n got %q\nwant %q", buf.Bytes(), data[:consumed])
		}
	})
}
