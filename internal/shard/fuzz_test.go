package shard

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"fadingcr/internal/experiments"
)

// decodeAllocBudget is the most Decode may allocate for an input of n
// bytes: a fixed allowance (reader buffers, decoder state) plus a constant
// factor of the input, since every accepted structure is built from bytes
// that are actually present.
func decodeAllocBudget(n int) uint64 { return 1<<20 + 64*uint64(n) }

// FuzzDecode: Decode reads both checkpoint files and daemon results, so it
// must accept or reject any byte stream without panicking and within
// decodeAllocBudget, and an accepted stream must re-encode to exactly the
// bytes read. The corpus is seeded with real worker output, the last shard
// of a two-shard run and a one-shard E3 run, and with truncations of it.
func FuzzDecode(f *testing.F) {
	oneShard := Request{
		Spec:   experiments.Spec{IDs: "E3", Quick: true, Trials: 1, Seed: 7},
		Shards: 1,
	}
	for _, req := range []Request{quickRequest(2), oneShard} {
		raw, err := RunWorker(context.Background(), req, req.Shards-1, 1, nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		for _, n := range []int{len(raw) - 1, len(raw) / 2, bytes.IndexByte(raw, '\n') + 1} {
			f.Add(raw[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Decode(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > decodeAllocBudget(len(data)) {
			t.Fatalf("Decode allocated %d bytes for a %d-byte input", alloc, len(data))
		}
		if err != nil {
			return
		}
		again, err := res.Bytes()
		if err != nil {
			t.Fatalf("accepted stream does not encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted stream re-encodes differently:\n got %q\nwant %q", again, data)
		}
	})
}
