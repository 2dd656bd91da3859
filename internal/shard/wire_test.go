package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"fadingcr/internal/experiments"
	"fadingcr/internal/runner"
)

// fakeResult builds a structurally valid shard result for hand-driven wire
// and merge tests: `loops` trial loops of `total` trials each, every value
// the JSON number of its global trial index.
func fakeResult(specHash string, shards, index int, loops, total int) *Result {
	r := &Result{SpecHash: specHash, Shards: shards, Index: index, Seed: 7}
	for l := 0; l < loops; l++ {
		lo, hi := runner.ShardRange(total, shards, index)
		rec := experiments.LoopRecord{Loop: l, Total: total, Lo: lo, Hi: hi}
		for t := lo; t < hi; t++ {
			rec.Values = append(rec.Values, json.RawMessage(fmt.Sprintf("%d", t)))
		}
		r.Loops = append(r.Loops, rec)
	}
	return r
}

func TestWireRoundTrip(t *testing.T) {
	in := fakeResult("abc123", 3, 1, 2, 10)
	raw, err := in.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if out.SpecHash != in.SpecHash || out.Shards != in.Shards || out.Index != in.Index || out.Seed != in.Seed {
		t.Errorf("header mismatch: %+v", out)
	}
	if len(out.Loops) != len(in.Loops) {
		t.Fatalf("decoded %d loops, want %d", len(out.Loops), len(in.Loops))
	}
	for i, lr := range out.Loops {
		want := in.Loops[i]
		if lr.Loop != want.Loop || lr.Total != want.Total || lr.Lo != want.Lo || lr.Hi != want.Hi {
			t.Errorf("loop %d coordinates mismatch: %+v", i, lr)
		}
		for j, v := range lr.Values {
			if string(v) != string(want.Values[j]) {
				t.Errorf("loop %d value %d = %s, want %s", i, j, v, want.Values[j])
			}
		}
	}

	// Re-encoding the decoded result reproduces the bytes: the wire form is
	// canonical.
	raw2, err := out.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Error("re-encoded wire bytes differ from the original")
	}
}

func TestWireEmptyShardRange(t *testing.T) {
	// 5 shards over 3 trials: shards past the trial count carry loops with
	// zero values and must round-trip.
	in := fakeResult("abc123", 5, 2, 1, 3)
	if lo, hi := in.Loops[0].Lo, in.Loops[0].Hi; lo != hi {
		t.Fatalf("expected an empty range, got [%d,%d)", lo, hi)
	}
	raw, err := in.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(raw)); err != nil {
		t.Fatalf("empty shard rejected: %v", err)
	}
}

func TestDecodeRejectsCorruptStreams(t *testing.T) {
	good, err := fakeResult("abc123", 3, 1, 2, 10).Bytes()
	if err != nil {
		t.Fatal(err)
	}
	wire := string(good)
	lines := strings.Split(strings.TrimSuffix(wire, "\n"), "\n")
	// lines = [header, loop0, loop1, end]
	cases := []struct {
		name string
		raw  string
		want string
	}{
		{"empty", "", "missing header"},
		{"no header", strings.Join(lines[1:], "\n") + "\n", "first event"},
		{"truncated after header", lines[0] + "\n", "truncated"},
		{"truncated mid-loops", strings.Join(lines[:2], "\n") + "\n", "truncated"},
		{"missing loop before end", strings.Join([]string{lines[0], lines[1], lines[3]}, "\n") + "\n", "end line counts"},
		{"reordered loops", strings.Join([]string{lines[0], lines[2], lines[1], lines[3]}, "\n") + "\n", "out of order"},
		{"trailing data", string(good) + lines[1] + "\n", "trailing data"},
		{"garbage line", lines[0] + "\n{not json\n", "parse wire line"},
		{"wrong schema", strings.Replace(lines[0], `"schema":2`, `"schema":99`, 1) + "\n", "schema"},
		{"schema 1 checkpoint", strings.Replace(lines[0], `"schema":2`, `"schema":1`, 1) + "\n", "wire schema 1, want 2"},
		{"bad coordinates", strings.Replace(lines[0], `"shard":1`, `"shard":7`, 1) + "\n", "coordinates"},
		{"wrong range", strings.Replace(strings.Join(lines, "\n")+"\n", `"lo":3`, `"lo":4`, 1), "range"},
		// Lines that parse but are not the bytes Encode writes: an accepted
		// stream must re-encode byte for byte.
		{"reordered header", strings.Replace(wire, `"shard":1,"shards":3`, `"shards":3,"shard":1`, 1), "canonical"},
		{"spaced loop line", strings.Replace(wire, `"lo":3,"hi":6`, `"lo":3, "hi":6`, 1), "canonical"},
		{"spaced values", strings.Replace(wire, `"values":[3,4,5]`, `"values":[3, 4,5]`, 1), "canonical"},
		{"unknown field", strings.Replace(wire, `"loop":1,`, `"loop":1,"summary":{},`, 1), "canonical"},
		{"key case", strings.Replace(wire, `"event":"end"`, `"Event":"end"`, 1), "canonical"},
		{"padded end line", strings.Replace(wire, `{"event":"end"`, ` {"event":"end"`, 1), "canonical"},
		{"crlf line ending", strings.Replace(wire, "}\n", "}\r\n", 1), "canonical"},
		{"no final newline", strings.TrimSuffix(wire, "\n"), "canonical"},
		{"blank line", strings.Replace(wire, "}\n", "}\n\n", 1), "parse wire line"},
		{"trailing newline", wire + "\n", "trailing data"},
	}
	for _, tc := range cases {
		_, err := Decode(strings.NewReader(tc.raw))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

func TestMergeReassemblesInShardOrder(t *testing.T) {
	const shards, total = 3, 10
	parts := make([]*Result, shards)
	for i := range parts {
		parts[i] = fakeResult("abc123", shards, i, 2, total)
	}
	// Merge must accept any input order and still produce global trial order.
	m, err := Merge([]*Result{parts[2], parts[0], parts[1]})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Loops) != 2 {
		t.Fatalf("merged %d loops, want 2", len(m.Loops))
	}
	for li, ml := range m.Loops {
		if ml.Total != total || len(ml.Values) != total {
			t.Fatalf("loop %d: total=%d values=%d", li, ml.Total, len(ml.Values))
		}
		for i, v := range ml.Values {
			if string(v) != fmt.Sprintf("%d", i) {
				t.Errorf("loop %d value %d = %s, want %d", li, i, v, i)
			}
		}
	}
}

func TestMergeRejectsInconsistentParts(t *testing.T) {
	mk := func() []*Result {
		return []*Result{
			fakeResult("abc123", 2, 0, 1, 10),
			fakeResult("abc123", 2, 1, 1, 10),
		}
	}
	cases := []struct {
		name  string
		parts func() []*Result
		want  string
	}{
		{"zero parts", func() []*Result { return nil }, "zero shards"},
		{"missing shard", func() []*Result { return mk()[:1] }, "missing shard 1"},
		{"duplicate shard", func() []*Result { p := mk(); p[1] = p[0]; return p }, "duplicate shard"},
		{"mixed hashes", func() []*Result { p := mk(); p[1].SpecHash = "other"; return p }, "mixed runs"},
		{"mixed seeds", func() []*Result { p := mk(); p[1].Seed = 99; return p }, "mixed runs"},
		{"mixed shard counts", func() []*Result {
			return []*Result{fakeResult("abc123", 2, 0, 1, 10), fakeResult("abc123", 3, 1, 1, 10)}
		}, "mixed runs"},
		{"index out of range", func() []*Result { p := mk(); p[1].Index = 5; return p }, "out of range"},
		{"loop count mismatch", func() []*Result { p := mk(); p[1].Loops = p[1].Loops[:0]; return p }, "loops"},
		{"total mismatch", func() []*Result { p := mk(); p[1].Loops[0].Total = 11; return p }, "total"},
		{"broken partition", func() []*Result { p := mk(); p[1].Loops[0].Lo = 6; return p }, "partition"},
		{"value count mismatch", func() []*Result { p := mk(); p[1].Loops[0].Values = p[1].Loops[0].Values[:2]; return p }, "values"},
	}
	for _, tc := range cases {
		_, err := Merge(tc.parts())
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

func TestMergedHashIsShardCountInvariant(t *testing.T) {
	const total = 10
	hashes := map[string]int{}
	for _, shards := range []int{1, 2, 3, 7, 15} {
		parts := make([]*Result, shards)
		for i := range parts {
			parts[i] = fakeResult("abc123", shards, i, 2, total)
		}
		m, err := Merge(parts)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		hashes[m.Hash()] = shards
	}
	if len(hashes) != 1 {
		t.Errorf("aggregate hash varies with shard count: %v", hashes)
	}
}
