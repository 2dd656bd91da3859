package shard

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// CheckpointDir stores one completed shard result per file so a killed
// coordinator can resume without recomputing finished shards. Files are
// whole wire streams (the same bytes an executor returned) written via
// temp-file + atomic rename, so a checkpoint either exists completely or
// not at all; Decode's end-line check rejects anything a crash left behind
// from a pre-rename write.
type CheckpointDir struct {
	Dir string
}

// path names a shard's checkpoint file.
func (c CheckpointDir) path(shards, index int) string {
	return filepath.Join(c.Dir, fmt.Sprintf("shard-%03d-of-%03d.ndjson", index, shards))
}

// Store writes a shard's wire bytes atomically. The raw bytes must already
// be validated (the coordinator decodes every result before storing).
func (c CheckpointDir) Store(shards, index int, raw []byte) error {
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return err
	}
	final := c.path(shards, index)
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Load returns a shard's checkpointed result if a valid one exists for
// exactly this (request hash, shard count, index). A missing file is not
// an error (the result is nil); a corrupt, truncated, or mismatched
// checkpoint (different run, stale shard count) is reported so the caller
// can surface it and recompute.
func (c CheckpointDir) Load(specHash string, shards, index int) (*Result, error) {
	raw, err := os.ReadFile(c.path(shards, index))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	res, err := Decode(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", c.path(shards, index), err)
	}
	if res.SpecHash != specHash {
		return nil, fmt.Errorf("checkpoint %s belongs to run %.12s…, want %.12s…", c.path(shards, index), res.SpecHash, specHash)
	}
	if res.Shards != shards || res.Index != index {
		return nil, fmt.Errorf("checkpoint %s is shard %d/%d, want %d/%d", c.path(shards, index), res.Index, res.Shards, index, shards)
	}
	return res, nil
}
