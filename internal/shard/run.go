package shard

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"fadingcr/internal/experiments"
	"fadingcr/internal/runner"
	"fadingcr/internal/trace"
)

// Request identifies one sharded run: the experiment spec plus the shard
// count. Every executor of a run receives the same Request; a shard result
// binds itself to RequestHash(req) so mixed-run merges are impossible.
type Request struct {
	Spec   experiments.Spec
	Shards int
	// Trace, when non-nil, asks every worker to capture per-trial structured
	// traces under its global trial indices and ship them back in the
	// result's trace bundle. Workers capture into a private temp dir, so
	// Dir is never read. Tracing is observational: it never changes the
	// computed values, so it is excluded from RequestHash — but results and
	// checkpoints echo the capture policy in their bundle header, and the
	// coordinator rejects a result whose policy does not match the request.
	Trace *trace.Policy
}

// traceMatches validates a decoded result (or checkpoint) against the
// request's trace policy: a bundle must be present iff the request traces,
// and must have been captured under exactly the requested policy. This is
// what makes stale checkpoints safe — RequestHash ignores tracing, so a
// checkpoint from an untraced run of the same spec is otherwise
// indistinguishable from a traced one.
func (r Request) traceMatches(res *Result) error {
	if r.Trace == nil {
		if res.Bundle != nil {
			return errors.New("shard: result carries a trace bundle the request did not ask for")
		}
		return nil
	}
	if res.Bundle == nil {
		return errors.New("shard: result carries no trace bundle for a traced request")
	}
	want := r.Trace.Normalized()
	want.Dir = ""
	if got := res.Bundle.Policy; got != want {
		return fmt.Errorf("shard: result traces were captured under policy %+v, request wants %+v", got, want)
	}
	return nil
}

// Validate rejects requests no executor could run.
func (r Request) Validate() error {
	if r.Shards < 1 {
		return fmt.Errorf("shard: shard count %d must be ≥ 1", r.Shards)
	}
	if _, _, err := experiments.ConfigFromSpec(r.Spec); err != nil {
		return err
	}
	if r.Trace != nil {
		return r.Trace.Validate()
	}
	return nil
}

// RequestHash is the canonical identity of the computation a request
// shards, hashed like serve.Spec: hex SHA-256 of a canonical JSON form with
// defaults made explicit ("" → "all" ids) and a fixed field order. The
// shard coordinates — index AND count — are deliberately absent: sharding
// never changes the computed values, so runs of the same spec share the
// hash at every shard count (Merged.Hash inherits that invariance), while
// Merge and the checkpoint loader validate the coordinates structurally.
// The trace spec is absent for the same reason — tracing is observational —
// and bundle presence/policy is validated structurally instead (see
// Request.traceMatches).
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
	var capture *trace.Capture
	if req.Trace != nil {
		// Capture into a private temp dir: trace files travel to the
		// coordinator in the result's bundle, never by path. The capture
		// command is "crbench" regardless of which process hosts the worker,
		// because the federated directory must be byte-identical to an
		// unsharded `crbench -trace-dir` run and trace headers embed the
		// command.
		tmp, err := os.MkdirTemp("", "crshard-trace-")
		if err != nil {
			return nil, fmt.Errorf("shard: trace capture: %w", err)
		}
		defer os.RemoveAll(tmp)
		policy := req.Trace.Normalized()
		policy.Dir = tmp
		capture, err = trace.NewCapture("crbench", policy)
		if err != nil {
			return nil, err
		}
		cfg.Trace = capture
	}
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
	if capture != nil {
		bundle, err := capture.Bundle()
		if err != nil {
			return nil, err
		}
		res.Bundle = bundle
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
