package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"fadingcr/internal/obs"
)

// Executor runs one shard of a request and returns its wire bytes. The
// two implementations are Local (in-process) and Endpoint (a remote
// crserve daemon); a Coordinator drives any mix of them.
type Executor interface {
	// Name identifies the executor in logs and failure reports.
	Name() string
	// RunShard executes shard index of the request, honoring ctx.
	RunShard(ctx context.Context, req Request, index int) ([]byte, error)
}

// Coordinator fans the shards of one request out over a set of executors
// and merges the results. Fault handling: per-attempt timeout, retry with
// exponential backoff, straggler re-dispatch (an executor that runs out of
// unstarted shards duplicates the lowest-indexed in-flight one whose
// current attempt has failed, while its executor backs off to retry —
// first valid result wins, so a timed-out worker cannot hold up the run;
// shards that are running without failure are waited for, so a healthy run
// executes every shard exactly once), optional
// per-shard checkpoints for kill-and-resume, and partial-failure
// surfacing: a run with any unrecoverable shard reports exactly which
// shards failed and why.
type Coordinator struct {
	// Executors run shards concurrently, one shard per executor at a time.
	Executors []Executor
	// Checkpoints, when non-nil, stores every completed shard as it
	// finishes.
	Checkpoints *CheckpointDir
	// Resume consults Checkpoints before dispatch, so a restarted run
	// recomputes only the missing shards. Checkpoints from a different
	// request or shard count never match (the spec hash and coordinates
	// are validated on load) — they are logged and recomputed.
	Resume bool
	// Retries is how many times one executor re-attempts one shard after
	// its first failure; < 0 selects the default (2).
	Retries int
	// Backoff is the delay before the first retry, doubling per attempt;
	// 0 selects the default (200ms).
	Backoff time.Duration
	// ShardTimeout bounds one attempt's wall clock; 0 means no bound
	// beyond the run context.
	ShardTimeout time.Duration
	// Log, when non-nil, receives one NDJSON line per dispatch-relevant
	// event (resume, completion, retry, failure): {"event":"shard",
	// "msg":…, …structured fields}. Writes are serialized.
	Log io.Writer
	// Spans, when non-nil, receives one span per scheduling phase —
	// run → dispatch → execute, with retry/backoff events and a final merge
	// span — so `crtrace spans` can reconstruct per-shard timelines, retry
	// counts, and straggler attribution. Purely observational: the merged
	// bytes are identical with Spans set or nil.
	Spans *obs.SpanLog
}

const (
	defaultRetries = 2
	defaultBackoff = 200 * time.Millisecond
)

// coordState is the mutex-guarded scheduler state shared by the executor
// goroutines.
type coordState struct {
	mu       sync.Mutex
	done     []bool
	results  []*Result
	inflight []int
	// failing[shard] marks a running shard one of whose attempts has
	// failed since it was last claimed fresh; only such a shard is
	// duplicated by an idle executor.
	failing []bool
	// changed is closed, and replaced, at every change an idle executor
	// waits for: a shard finished, an attempt failed, an executor gave up.
	changed chan struct{}
	// gaveUp[shard][executor] marks an (executor, shard) pair whose
	// retry budget is exhausted; a shard is lost only when every executor
	// gave up on it.
	gaveUp  [][]bool
	lastErr []error
	log     *obs.Logger
	run     *obs.Span
}

// next picks the executor's next shard under the lock: the lowest-indexed
// unfinished shard nobody is running, else (straggler re-dispatch) the
// lowest-indexed running shard that is failing — the second return
// reports which case fired. With neither, the index is −1 and the third
// return is nil when the executor has nothing left to do, or else the
// channel to wait on: a shard it could still take is running and may yet
// fail.
func (s *coordState) next(executor int) (int, bool, <-chan struct{}) {
	pick, running := -1, false
	for i := range s.done {
		if s.done[i] || s.gaveUp[i][executor] {
			continue
		}
		if s.inflight[i] == 0 {
			pick = i
			break
		}
		running = true
		if pick < 0 && s.failing[i] {
			pick = i
		}
	}
	if pick < 0 {
		if running {
			return -1, false, s.changed
		}
		return -1, false, nil
	}
	straggler := s.inflight[pick] > 0
	if !straggler {
		s.failing[pick] = false
	}
	s.inflight[pick]++
	return pick, straggler, nil
}

// signal wakes the executors waiting for a change. Call with mu held.
func (s *coordState) signal() {
	close(s.changed)
	s.changed = make(chan struct{})
}

// Run executes the request across the coordinator's executors and returns
// the merged result. The merged bytes are independent of executor count,
// dispatch order, stragglers, and resume history — only the request
// determines them.
func (c *Coordinator) Run(ctx context.Context, req Request) (*Merged, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if len(c.Executors) == 0 {
		return nil, errors.New("shard: coordinator has no executors")
	}
	specHash := RequestHash(req)
	st := &coordState{
		done:     make([]bool, req.Shards),
		results:  make([]*Result, req.Shards),
		inflight: make([]int, req.Shards),
		failing:  make([]bool, req.Shards),
		changed:  make(chan struct{}),
		gaveUp:   make([][]bool, req.Shards),
		lastErr:  make([]error, req.Shards),
	}
	if c.Log != nil {
		st.log = obs.NewLogger(c.Log, "shard")
	}
	for i := range st.gaveUp {
		st.gaveUp[i] = make([]bool, len(c.Executors))
	}
	st.run = c.Spans.Begin("run",
		obs.F("shards", req.Shards), obs.F("executors", len(c.Executors)), obs.F("spec", specHash[:12]))

	resumed := 0
	if c.Checkpoints != nil && c.Resume {
		for i := 0; i < req.Shards; i++ {
			res, err := c.Checkpoints.Load(specHash, req.Shards, i)
			if err == nil && res != nil {
				// RequestHash ignores the trace spec, so a checkpoint of the
				// same spec captured under a different (or no) trace policy
				// loads cleanly — reject it structurally here.
				err = req.traceMatches(res)
			}
			if err != nil {
				st.log.Log("ignoring checkpoint", obs.F("shard", i), obs.F("error", err.Error()))
				continue
			}
			if res != nil {
				st.done[i] = true
				st.results[i] = res
				resumed++
			}
		}
		if resumed > 0 {
			st.log.Log("resumed shards from checkpoints",
				obs.F("resumed", resumed), obs.F("shards", req.Shards), obs.F("dir", c.Checkpoints.Dir))
			st.run.Event("resume", obs.F("resumed", resumed))
		}
	}

	retries := c.Retries
	if retries < 0 {
		retries = defaultRetries
	}
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = defaultBackoff
	}

	var wg sync.WaitGroup
	for e := range c.Executors {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			c.executorLoop(ctx, req, specHash, st, e, retries, backoff)
		}(e)
	}
	wg.Wait()

	var failed []int
	for i, ok := range st.done {
		if !ok {
			failed = append(failed, i)
		}
	}
	if len(failed) > 0 {
		st.run.End(obs.F("failed", len(failed)))
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("shard: run canceled with %d/%d shard(s) incomplete: %w", len(failed), req.Shards, err)
		}
		sort.Ints(failed)
		var b strings.Builder
		fmt.Fprintf(&b, "shard: %d/%d shard(s) failed on every executor:", len(failed), req.Shards)
		for _, i := range failed {
			fmt.Fprintf(&b, "\n  shard %d: %v", i, st.lastErr[i])
		}
		return nil, errors.New(b.String())
	}

	ms := st.run.Child("merge", obs.F("shards", req.Shards))
	m, err := Merge(st.results)
	ms.End(obs.F("ok", err == nil))
	st.run.End(obs.F("failed", 0))
	return m, err
}

// executorLoop is one executor's work loop: claim a shard, attempt it with
// retries, record the outcome, repeat until nothing is left; with nothing
// to claim while others still run shards, wait for their outcome.
func (c *Coordinator) executorLoop(ctx context.Context, req Request, specHash string, st *coordState, e int, retries int, backoff time.Duration) {
	ex := c.Executors[e]
	for ctx.Err() == nil {
		st.mu.Lock()
		index, straggler, wait := st.next(e)
		st.mu.Unlock()
		if index < 0 {
			if wait == nil {
				return
			}
			select {
			case <-wait:
			case <-ctx.Done():
			}
			continue
		}
		sp := st.run.Child("dispatch",
			obs.F("shard", index), obs.F("executor", ex.Name()), obs.F("straggler", straggler))
		res, raw, err := c.attemptShard(ctx, req, specHash, st, sp, ex, index, retries, backoff)
		sp.End(obs.F("ok", err == nil))
		st.mu.Lock()
		st.inflight[index]--
		if err != nil {
			st.gaveUp[index][e] = true
			st.lastErr[index] = fmt.Errorf("%s: %w", ex.Name(), err)
			st.log.Log("gave up",
				obs.F("shard", index), obs.F("executor", ex.Name()), obs.F("error", err.Error()))
		} else if !st.done[index] {
			st.done[index] = true
			st.results[index] = res
			st.log.Log("shard done",
				obs.F("shard", index), obs.F("shards", req.Shards), obs.F("executor", ex.Name()))
			if c.Checkpoints != nil {
				if cerr := c.Checkpoints.Store(req.Shards, index, raw); cerr != nil {
					st.log.Log("checkpoint write failed", obs.F("shard", index), obs.F("error", cerr.Error()))
				}
			}
		}
		st.signal()
		st.mu.Unlock()
	}
}

// attemptShard runs one (executor, shard) pair with the retry policy and
// decodes and validates the returned wire bytes before accepting them; it
// returns the decoded result and the bytes, which the caller keeps only to
// checkpoint them. sp is the dispatch span the attempts nest under
// (nil-safe).
func (c *Coordinator) attemptShard(ctx context.Context, req Request, specHash string, st *coordState, sp *obs.Span, ex Executor, index, retries int, backoff time.Duration) (*Result, []byte, error) {
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			st.mu.Lock()
			already := st.done[index]
			st.mu.Unlock()
			if already {
				// Another executor finished the shard while this one was
				// failing; stop burning attempts on it.
				return nil, nil, lastErr
			}
			st.log.Log("retrying shard",
				obs.F("shard", index), obs.F("executor", ex.Name()),
				obs.F("attempt", attempt+1), obs.F("attempts", retries+1), obs.F("error", lastErr.Error()))
			sp.Event("retry", obs.F("attempt", attempt+1), obs.F("error", lastErr.Error()))
			wait := backoff << (attempt - 1)
			sp.Event("backoff", obs.F("ms", wait.Milliseconds()))
			if err := sleepCtx(ctx, wait); err != nil {
				return nil, nil, err
			}
		}
		attemptCtx := ctx
		var cancel context.CancelFunc
		if c.ShardTimeout > 0 {
			//crlint:allow nowallclock per-shard timeout is an explicitly configured wall-clock budget
			attemptCtx, cancel = context.WithTimeout(ctx, c.ShardTimeout)
		}
		es := sp.Child("execute", obs.F("shard", index), obs.F("attempt", attempt+1))
		raw, err := ex.RunShard(attemptCtx, req, index)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			res, derr := Decode(bytes.NewReader(raw))
			switch {
			case derr != nil:
				err = fmt.Errorf("invalid shard result: %w", derr)
			case res.SpecHash != specHash:
				err = fmt.Errorf("shard result is for run %.12s…, want %.12s…", res.SpecHash, specHash)
			case res.Shards != req.Shards || res.Index != index:
				err = fmt.Errorf("shard result is %d/%d, want %d/%d", res.Index, res.Shards, index, req.Shards)
			default:
				err = req.traceMatches(res)
			}
			if err == nil {
				es.End(obs.F("ok", true))
				return res, raw, nil
			}
		}
		es.End(obs.F("ok", false))
		lastErr = err
		if ctx.Err() != nil {
			return nil, nil, lastErr
		}
		// The shard is failing here: an idle executor may now duplicate it
		// while this one backs off and retries.
		st.mu.Lock()
		st.failing[index] = true
		st.signal()
		st.mu.Unlock()
	}
	return nil, nil, lastErr
}

// sleepCtx waits d or until the context ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d) //crlint:allow nowallclock retry backoff is wall-clock by nature and never feeds results
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}
