package trace

import (
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
