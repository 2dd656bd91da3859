// Package shard is the distributed Monte Carlo sharding protocol: it
// splits one experiment run into contiguous per-shard trial ranges,
// executes the shards locally or on remote crserve daemons, and reassembles
// their results into output byte-identical to an unsharded run.
//
// Determinism is inherited, not re-established: a shard runs each trial of
// its runner.ShardRange slice under the trial's *global* index, so the
// runner.TrialSeeds contract (DESIGN.md §8) gives every sharded trial
// exactly the seeds its unsharded counterpart uses, and the
// experiments.ShardScope hook feeds trial values back into the unmodified
// aggregation/rendering code in global trial order — so the assembler's
// stdout equals the unsharded run's stdout at any shard count, worker
// count, endpoint mix, and across checkpoint kill-and-resume.
//
// The wire format is NDJSON (one shard result per stream): a header line
// binding the result to its request hash and shard coordinates, one line
// per trial loop carrying the executed values, and an end line whose loop
// count makes truncation detectable.
package shard

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"fadingcr/internal/experiments"
	"fadingcr/internal/obs"
	"fadingcr/internal/runner"
)

// schemaVersion identifies the wire layout; bump on incompatible change.
const schemaVersion = 2

// Result is one shard's contribution to a sharded run: the decoded form of
// the wire stream.
type Result struct {
	// SpecHash is RequestHash of the run the shard belongs to.
	SpecHash string
	// Shards is the run's total shard count; Index ∈ [0, Shards).
	Shards int
	Index  int
	// Seed echoes the run's master seed (diagnostic; the hash binds it).
	Seed uint64
	// Loops holds one record per trial loop, in loop order.
	Loops []experiments.LoopRecord
}

// Encode writes the canonical wire form. The bytes are a pure function of
// the result: field order is fixed and values JSON-encode deterministically.
func (r *Result) Encode(w io.Writer) error {
	enc := obs.NewLineEncoder(w)
	if err := headerLine(enc, r); err != nil {
		return err
	}
	for _, lr := range r.Loops {
		if err := loopLine(enc, lr); err != nil {
			return err
		}
	}
	return endLine(enc, len(r.Loops))
}

// headerLine, loopLine and endLine write the three wire line shapes.
// Encode writes every line through them, and Decode re-encodes every line
// it accepts through them, so only canonical bytes decode.
func headerLine(enc *obs.LineEncoder, r *Result) error {
	enc.Begin("shard")
	enc.Int("schema", schemaVersion)
	enc.Str("spec", r.SpecHash)
	enc.Int("shard", int64(r.Index))
	enc.Int("shards", int64(r.Shards))
	enc.Uint("seed", r.Seed)
	return enc.End()
}

func loopLine(enc *obs.LineEncoder, lr experiments.LoopRecord) error {
	enc.Begin("loop")
	enc.Int("loop", int64(lr.Loop))
	enc.Int("total", int64(lr.Total))
	enc.Int("lo", int64(lr.Lo))
	enc.Int("hi", int64(lr.Hi))
	enc.Arr("values")
	for _, v := range lr.Values {
		enc.ElemRaw(v)
	}
	enc.ArrEnd()
	return enc.End()
}

func endLine(enc *obs.LineEncoder, loops int) error {
	enc.Begin("end")
	enc.Int("loops", int64(loops))
	return enc.End()
}

// canonical reports an error unless raw is exactly the line write encodes.
func canonical(raw []byte, write func(*obs.LineEncoder) error) error {
	if !obs.Canonical(raw, write) {
		return fmt.Errorf("shard: wire line %.120q is not in canonical form", raw)
	}
	return nil
}

// Bytes is Encode into memory.
func (r *Result) Bytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// wireLine is the union of all wire line shapes; Event discriminates.
type wireLine struct {
	Event  string            `json:"event"`
	Schema int               `json:"schema"`
	Spec   string            `json:"spec"`
	Shard  int               `json:"shard"`
	Shards int               `json:"shards"`
	Seed   uint64            `json:"seed"`
	Loop   int               `json:"loop"`
	Total  int               `json:"total"`
	Lo     int               `json:"lo"`
	Hi     int               `json:"hi"`
	Values []json.RawMessage `json:"values"`
	Loops  int               `json:"loops"`
}

// Decode parses and validates one wire stream: header first, loop lines in
// strictly sequential loop order with range-consistent value counts, and a
// loop-count-matching end line at EOF. A truncated or reordered stream is
// an error, which is what makes half-written checkpoints safe to discard.
// So is any line that is not byte for byte the line Encode writes — blank
// lines, spacing, reordered or unknown fields — so an accepted stream
// re-encodes to exactly the bytes read.
func Decode(r io.Reader) (*Result, error) {
	br := bufio.NewReader(r)
	// readLine returns the next line, newline included, and io.EOF once
	// the stream holds no more bytes.
	readLine := func() (*wireLine, []byte, error) {
		raw, err := br.ReadBytes('\n')
		if err != nil && (len(raw) == 0 || !errors.Is(err, io.EOF)) {
			return nil, nil, err
		}
		var l wireLine
		if uerr := json.Unmarshal(raw, &l); uerr != nil {
			return nil, nil, fmt.Errorf("shard: parse wire line: %w", uerr)
		}
		return &l, raw, nil
	}

	head, raw, err := readLine()
	if err != nil {
		return nil, fmt.Errorf("shard: missing header: %w", err)
	}
	if head.Event != "shard" {
		return nil, fmt.Errorf("shard: first event %q, want shard", head.Event)
	}
	if head.Schema != schemaVersion {
		return nil, fmt.Errorf("shard: wire schema %d, want %d", head.Schema, schemaVersion)
	}
	if head.Shards < 1 || head.Shard < 0 || head.Shard >= head.Shards {
		return nil, fmt.Errorf("shard: invalid coordinates %d/%d", head.Shard, head.Shards)
	}
	res := &Result{SpecHash: head.Spec, Shards: head.Shards, Index: head.Shard, Seed: head.Seed}
	if err := canonical(raw, func(enc *obs.LineEncoder) error { return headerLine(enc, res) }); err != nil {
		return nil, err
	}
	for {
		l, raw, err := readLine()
		if errors.Is(err, io.EOF) {
			return nil, errors.New("shard: truncated stream (no end line)")
		}
		if err != nil {
			return nil, err
		}
		switch l.Event {
		case "loop":
			if l.Loop != len(res.Loops) {
				return nil, fmt.Errorf("shard: loop %d out of order (want %d)", l.Loop, len(res.Loops))
			}
			wantLo, wantHi := runner.ShardRange(l.Total, res.Shards, res.Index)
			if l.Lo != wantLo || l.Hi != wantHi {
				return nil, fmt.Errorf("shard: loop %d range [%d,%d), want [%d,%d) for shard %d/%d of %d trials",
					l.Loop, l.Lo, l.Hi, wantLo, wantHi, res.Index, res.Shards, l.Total)
			}
			if len(l.Values) != l.Hi-l.Lo {
				return nil, fmt.Errorf("shard: loop %d carries %d values for range [%d,%d)", l.Loop, len(l.Values), l.Lo, l.Hi)
			}
			lr := experiments.LoopRecord{Loop: l.Loop, Total: l.Total, Lo: l.Lo, Hi: l.Hi, Values: l.Values}
			if err := canonical(raw, func(enc *obs.LineEncoder) error { return loopLine(enc, lr) }); err != nil {
				return nil, err
			}
			res.Loops = append(res.Loops, lr)
		case "end":
			if l.Loops != len(res.Loops) {
				return nil, fmt.Errorf("shard: end line counts %d loops, stream has %d", l.Loops, len(res.Loops))
			}
			if err := canonical(raw, func(enc *obs.LineEncoder) error { return endLine(enc, l.Loops) }); err != nil {
				return nil, err
			}
			if _, err := br.Peek(1); err == nil {
				return nil, errors.New("shard: trailing data after end line")
			} else if !errors.Is(err, io.EOF) {
				return nil, err
			}
			return res, nil
		default:
			return nil, fmt.Errorf("shard: unexpected event %q", l.Event)
		}
	}
}

// MergedLoop is one trial loop reassembled across all shards.
type MergedLoop struct {
	// Total is the loop's global trial count.
	Total int
	// Values holds every trial's JSON value in global trial order.
	Values []json.RawMessage
}

// Merged is a full sharded run reassembled from all of its shards.
type Merged struct {
	SpecHash string
	Shards   int
	Seed     uint64
	Loops    []MergedLoop
}

// Merge reassembles a run from its shard results, in any input order. It
// validates that the parts agree on (hash, shard count, seed, loop
// structure), that every shard index appears exactly once, and that each
// loop's ranges partition its global trial range — so a merged result is
// complete by construction. Empty shards (shard counts above a loop's
// trial count) merge as no-ops.
func Merge(parts []*Result) (*Merged, error) {
	if len(parts) == 0 {
		return nil, errors.New("shard: merge of zero shards")
	}
	first := parts[0]
	byIndex := make([]*Result, first.Shards)
	for _, p := range parts {
		if p.SpecHash != first.SpecHash || p.Shards != first.Shards || p.Seed != first.Seed {
			return nil, fmt.Errorf("shard: mixed runs: shard %d is (%.12s…, %d shards, seed %d), shard %d is (%.12s…, %d shards, seed %d)",
				first.Index, first.SpecHash, first.Shards, first.Seed,
				p.Index, p.SpecHash, p.Shards, p.Seed)
		}
		if p.Index < 0 || p.Index >= first.Shards {
			return nil, fmt.Errorf("shard: index %d out of range [0,%d)", p.Index, first.Shards)
		}
		if byIndex[p.Index] != nil {
			return nil, fmt.Errorf("shard: duplicate shard %d", p.Index)
		}
		byIndex[p.Index] = p
	}
	for i, p := range byIndex {
		if p == nil {
			return nil, fmt.Errorf("shard: missing shard %d of %d", i, first.Shards)
		}
		if len(p.Loops) != len(first.Loops) {
			return nil, fmt.Errorf("shard: shard %d has %d loops, shard %d has %d", p.Index, len(p.Loops), first.Index, len(first.Loops))
		}
	}
	m := &Merged{SpecHash: first.SpecHash, Shards: first.Shards, Seed: first.Seed}
	for li := range first.Loops {
		ml := MergedLoop{Total: first.Loops[li].Total}
		next := 0
		for i, p := range byIndex {
			lr := p.Loops[li]
			if lr.Total != ml.Total {
				return nil, fmt.Errorf("shard: loop %d total %d on shard %d, %d on shard 0", li, lr.Total, i, ml.Total)
			}
			wantLo, wantHi := runner.ShardRange(lr.Total, first.Shards, i)
			if lr.Lo != wantLo || lr.Hi != wantHi || lr.Lo != next {
				return nil, fmt.Errorf("shard: loop %d shard %d range [%d,%d) does not continue partition at %d", li, i, lr.Lo, lr.Hi, next)
			}
			if len(lr.Values) != lr.Hi-lr.Lo {
				return nil, fmt.Errorf("shard: loop %d shard %d carries %d values for range [%d,%d)", li, i, len(lr.Values), lr.Lo, lr.Hi)
			}
			next = lr.Hi
			ml.Values = append(ml.Values, lr.Values...)
		}
		if next != ml.Total {
			return nil, fmt.Errorf("shard: loop %d shards cover [0,%d) of %d trials", li, next, ml.Total)
		}
		m.Loops = append(m.Loops, ml)
	}
	return m, nil
}

// Hash is the canonical identity of a merged run: the hex SHA-256 of a
// canonical encoding covering the request hash, seed, and every loop's
// trial values in global trial order. None of these depend on how the run
// was cut, so Hash is identical for the same run at any shard count, which
// the golden tests assert.
func (m *Merged) Hash() string {
	h := sha256.New()
	enc := obs.NewLineEncoder(h)
	enc.Begin("merged")
	enc.Int("schema", schemaVersion)
	enc.Str("spec", m.SpecHash)
	enc.Uint("seed", m.Seed)
	enc.Int("loops", int64(len(m.Loops)))
	_ = enc.End()
	for li, ml := range m.Loops {
		enc.Begin("loop")
		enc.Int("loop", int64(li))
		enc.Int("total", int64(ml.Total))
		enc.Arr("values")
		for _, v := range ml.Values {
			enc.ElemRaw(v)
		}
		enc.ArrEnd()
		_ = enc.End()
	}
	return hex.EncodeToString(h.Sum(nil))
}
