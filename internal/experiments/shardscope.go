package experiments

import (
	"context"
	"encoding/json"
	"fmt"

	"fadingcr/internal/runner"
)

// ShardScope is the trial-loop interception point of the distributed
// sharding protocol (internal/shard). Experiments funnel every Monte Carlo
// loop through runTrials; with Config.Shard set, each loop is assigned a
// sequential loop index (experiments run their loops in a deterministic
// order, so worker and assembler enumerate identical loop sequences) and
// handled in one of two modes:
//
//   - Worker mode (Worker set): only the shard's contiguous slice
//     [lo, hi) = runner.ShardRange(total, Count, Index) of the loop's
//     global trial range executes. Trial functions receive *global* trial
//     indices, so the runner.TrialSeeds contract makes every executed
//     trial identical to its unsharded counterpart. The executed values
//     are JSON-encoded (losslessly: encoding/json round-trips float64
//     exactly) and handed to Worker; the loop then returns a full-length
//     slice padded with a donor value so the experiment's post-loop
//     aggregation code runs without crashing — worker-mode tables are
//     garbage and must be discarded.
//
//   - Assemble mode (Values set): no trials execute. Each loop's complete
//     value set, reassembled from all shards in global trial order, is
//     decoded back into the loop's value type, so the experiment's
//     aggregation and rendering produce bytes identical to an unsharded
//     run.
//
// A ShardScope is single-goroutine (loops run sequentially within a run)
// and must not be shared between concurrent runs.
type ShardScope struct {
	// Index and Count identify the shard in worker mode: Index ∈ [0, Count).
	Index, Count int
	// Worker receives each executed loop's record in worker mode.
	Worker func(LoopRecord) error
	// Values supplies each loop's complete reassembled value set in
	// assemble mode. Exactly one of Worker and Values is set.
	Values func(loop, total int) ([]json.RawMessage, error)

	loop int
}

// nextLoop assigns the next sequential loop index.
func (s *ShardScope) nextLoop() int {
	l := s.loop
	s.loop++
	return l
}

// Loops returns how many trial loops have passed through the scope.
func (s *ShardScope) Loops() int { return s.loop }

// LoopRecord is one trial loop's contribution to a shard result.
type LoopRecord struct {
	// Loop is the run-wide sequential loop index.
	Loop int
	// Total is the loop's global trial count.
	Total int
	// Lo and Hi delimit the shard's executed global trial range [Lo, Hi).
	Lo, Hi int
	// Values holds the executed trials' JSON-encoded values, local index
	// local holding global trial Lo+local.
	Values []json.RawMessage
}

// runTrialsSharded is runTrials with Config.Shard set; see ShardScope.
func runTrialsSharded[T any](cfg Config, trials int, fn func(trial int) (T, error)) ([]T, error) {
	sc := cfg.Shard
	loop := sc.nextLoop()
	if sc.Values != nil {
		raws, err := sc.Values(loop, trials)
		if err != nil {
			return nil, fmt.Errorf("loop %d: %w", loop, err)
		}
		if len(raws) != trials {
			return nil, fmt.Errorf("loop %d: %d reassembled values for %d trials", loop, len(raws), trials)
		}
		out := make([]T, trials)
		for i, raw := range raws {
			if err := json.Unmarshal(raw, &out[i]); err != nil {
				return nil, fmt.Errorf("loop %d trial %d: decode shard value: %w", loop, i, err)
			}
		}
		return out, nil
	}
	lo, hi := runner.ShardRange(trials, sc.Count, sc.Index)
	res, err := runner.Run(cfg.ctx(), hi-lo,
		func(_ context.Context, local int) (T, error) { return fn(lo + local) },
		runner.Options[T]{Parallelism: cfg.Parallelism, Progress: cfg.Progress})
	if err != nil {
		return nil, err
	}
	if err := res.FirstErr(); err != nil {
		return nil, err
	}
	raws := make([]json.RawMessage, len(res.Values))
	for i, v := range res.Values {
		raw, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("loop %d trial %d: encode shard value: %w", loop, lo+i, err)
		}
		raws[i] = raw
	}
	rec := LoopRecord{Loop: loop, Total: trials, Lo: lo, Hi: hi, Values: raws}
	if err := sc.Worker(rec); err != nil {
		return nil, fmt.Errorf("loop %d: %w", loop, err)
	}
	// The experiment's post-loop code still runs (its tables are discarded
	// in worker mode) and may index or fold the slice, so return the full
	// length with non-owned indices padded by a donor value.
	out := make([]T, trials)
	if trials > 0 {
		donor, err := donorValue(res.Values, fn)
		if err != nil {
			return nil, fmt.Errorf("loop %d donor trial: %w", loop, err)
		}
		for i := range out {
			out[i] = donor
		}
		copy(out[lo:hi], res.Values)
	}
	return out, nil
}

// donorValue picks the padding value of a worker-mode loop: the shard's
// first executed value, or — for a shard whose range of this loop is
// empty — one freshly executed trial 0 (the cost only arises when the
// shard count exceeds a loop's trial count).
func donorValue[T any](executed []T, fn func(trial int) (T, error)) (T, error) {
	if len(executed) > 0 {
		return executed[0], nil
	}
	return fn(0)
}
