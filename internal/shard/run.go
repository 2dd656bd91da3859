package shard

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"fadingcr/internal/experiments"
	"fadingcr/internal/runner"
)

// Request identifies one sharded run: the experiment spec plus the shard
// count. Every executor of a run receives the same Request; a shard result
// binds itself to RequestHash(req) so mixed-run merges are impossible.
type Request struct {
	Spec   experiments.Spec
	Shards int
}

// Validate rejects requests no executor could run.
func (r Request) Validate() error {
	if r.Shards < 1 {
		return fmt.Errorf("shard: shard count %d must be ≥ 1", r.Shards)
	}
	_, _, err := experiments.ConfigFromSpec(r.Spec)
	return err
}

// RequestHash is the canonical identity of the computation a request
// shards, hashed like serve.Spec: hex SHA-256 of a canonical JSON form with
// defaults made explicit ("" → "all" ids) and a fixed field order. The
// shard coordinates — index AND count — are deliberately absent: sharding
// never changes the computed values, so runs of the same spec share the
// hash at every shard count (Merged.Hash inherits that invariance), while
// Merge and the checkpoint loader validate the coordinates structurally.
func RequestHash(r Request) string {
	spec := r.Spec
	if spec.IDs == "" {
		spec.IDs = "all"
	}
	canonical, err := json.Marshal(struct {
		IDs    string `json:"ids"`
		Seed   uint64 `json:"seed"`
		Trials int    `json:"trials"`
		Quick  bool   `json:"quick"`
	}{spec.IDs, spec.Seed, spec.Trials, spec.Quick})
	if err != nil {
		// Plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("shard: canonical request encoding: %v", err))
	}
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}

// RunWorker executes one shard of a request in-process and returns its
// canonical wire bytes. Trial loops run with the given per-loop
// parallelism (≤ 0 selects GOMAXPROCS); parallelism never changes the
// bytes. The optional progress callback observes every trial loop.
func RunWorker(ctx context.Context, req Request, index, parallelism int, progress func(runner.Progress)) ([]byte, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if index < 0 || index >= req.Shards {
		return nil, fmt.Errorf("shard: index %d out of range [0,%d)", index, req.Shards)
	}
	selected, cfg, err := experiments.ConfigFromSpec(req.Spec)
	if err != nil {
		return nil, err
	}
	res := &Result{SpecHash: RequestHash(req), Shards: req.Shards, Index: index, Seed: req.Spec.Seed}
	cfg.Context = ctx
	cfg.Parallelism = parallelism
	cfg.Progress = progress
	cfg.Shard = &experiments.ShardScope{
		Index: index,
		Count: req.Shards,
		Worker: func(rec experiments.LoopRecord) error {
			res.Loops = append(res.Loops, rec)
			return nil
		},
	}
	for _, e := range selected {
		// Worker-mode tables are donor-padded garbage; only the loop
		// records matter.
		if _, err := e.Run(cfg); err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return res.Bytes()
}

// Assemble replays the request's experiments in assemble mode — every
// trial loop reads its reassembled values from m instead of executing —
// and renders the tables to w in the canonical crbench layout. The output
// is byte-identical to an unsharded run of the same spec.
func Assemble(ctx context.Context, w io.Writer, req Request, m *Merged, markdown bool) error {
	if err := req.Validate(); err != nil {
		return err
	}
	if want := RequestHash(req); m.SpecHash != want {
		return fmt.Errorf("shard: merged result is for run %.12s…, request is %.12s…", m.SpecHash, want)
	}
	selected, cfg, err := experiments.ConfigFromSpec(req.Spec)
	if err != nil {
		return err
	}
	cfg.Context = ctx
	scope := &experiments.ShardScope{
		Values: func(loop, total int) ([]json.RawMessage, error) {
			if loop >= len(m.Loops) {
				return nil, fmt.Errorf("shard: loop %d beyond the %d merged loops", loop, len(m.Loops))
			}
			ml := m.Loops[loop]
			if ml.Total != total {
				return nil, fmt.Errorf("shard: loop %d reassembled %d trials, experiment wants %d", loop, ml.Total, total)
			}
			return ml.Values, nil
		},
	}
	cfg.Shard = scope
	for _, e := range selected {
		tables, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := experiments.RenderTables(w, e, tables, markdown); err != nil {
			return err
		}
	}
	if scope.Loops() != len(m.Loops) {
		return fmt.Errorf("shard: experiments ran %d loops, merged result has %d", scope.Loops(), len(m.Loops))
	}
	return nil
}
