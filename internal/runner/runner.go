// Package runner is the parallel Monte Carlo execution engine behind the
// reproduction harness. It executes N independent trials across a pool of
// worker goroutines while guaranteeing that parallelism never changes the
// result: each trial derives its randomness purely from the master seed and
// its own index (see TrialSeeds), and results are reassembled in trial
// order, so a run at parallelism 8 is bit-identical to the sequential loop
// it replaced.
//
// The engine adds the operational features every long Monte Carlo run
// wants and no experiment should hand-roll:
//
//   - context.Context cancellation (a canceled run returns promptly with
//     partial results; callers bound wall time with context.WithTimeout),
//   - panic recovery that converts a crashing trial into a per-trial
//     *PanicError instead of killing the whole run,
//   - a streaming Progress callback suitable for CLI progress lines.
//
// Structured trace capture (internal/trace.Capture) composes with the
// engine without weakening the determinism contract: a worker asks the
// capture for a recorder by trial index (a pure sampling decision), traces
// its own trial's channel, and commits the file before returning — so the
// set of trace files and each file's bytes are identical at any
// parallelism.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"fadingcr/internal/obs"
	"fadingcr/internal/xrand"
)

// TrialSeeds derives the canonical (deployment, protocol) seed pair of a
// trial from the master seed: xrand.Split(master, 2·trial) for the
// deployment stream and xrand.Split(master, 2·trial+1) for the protocol
// stream. This is the repository's seed-derivation contract (DESIGN.md):
// every consumer that uses it reproduces identical executions for a given
// (master seed, trial index) regardless of execution order or parallelism.
func TrialSeeds(master uint64, trial int) (deploySeed, protoSeed uint64) {
	return xrand.Split(master, uint64(trial)*2), xrand.Split(master, uint64(trial)*2+1)
}

// Progress is a point-in-time snapshot of a run, streamed to the Progress
// callback after every completed trial (and therefore at most once per
// trial). Callbacks run on the collector goroutine, never concurrently.
type Progress struct {
	// Done is the number of completed trials (including failed ones).
	Done int
	// Total is the number of trials the run was asked for.
	Total int
	// Solved counts error-free trials the Options.Solved predicate
	// accepted (all error-free trials when no predicate is set).
	Solved int
	// Errors counts trials that returned an error or panicked.
	Errors int
	// Elapsed is the wall-clock time since Run started.
	Elapsed time.Duration
}

// Options configures a Run.
type Options[T any] struct {
	// Parallelism is the number of worker goroutines; values ≤ 0 select
	// runtime.GOMAXPROCS(0). Results are independent of it.
	Parallelism int
	// Progress, when non-nil, observes the run after every completed
	// trial. It must not block for long: it runs on the collector
	// goroutine that trial completions funnel through.
	Progress func(Progress)
	// Solved, when non-nil, classifies an error-free trial value for the
	// Progress.Solved / Result.Solved counters. Nil counts every
	// error-free trial as solved.
	Solved func(T) bool
}

// Result holds the reassembled outcome of a run. Values and Errs are
// indexed by trial; Values[i] is meaningful only where Errs[i] is nil and
// the trial completed (Done covers all trials unless the run was canceled).
type Result[T any] struct {
	// Values are the per-trial results in trial order.
	Values []T
	// Errs are the per-trial errors (nil entries for successful trials);
	// a recovered panic appears as a *PanicError.
	Errs []error
	// Done is the number of trials that actually executed; it is less
	// than len(Values) only when the run was canceled or timed out.
	Done int
	// Solved counts error-free trials accepted by Options.Solved.
	Solved int
	// Elapsed is the run's wall-clock duration.
	Elapsed time.Duration
	// Parallelism is the effective worker count used.
	Parallelism int
}

// FirstErr returns the error of the lowest-indexed failed trial, or nil.
// It reproduces the error a sequential loop that stops at the first
// failure would have reported.
func (r *Result[T]) FirstErr() error {
	for _, err := range r.Errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// PanicError is a trial panic converted into an error by the engine's
// recovery; the run continues and the other trials are unaffected.
type PanicError struct {
	// Trial is the index of the panicking trial.
	Trial int
	// Value is the value the trial panicked with.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: trial %d panicked: %v", e.Trial, e.Value)
}

// Run executes fn for every trial index in [0, trials) across a worker
// pool and reassembles the results in trial order. fn must derive all its
// randomness from the trial index (e.g. via TrialSeeds), never from shared
// mutable state, so that the output is independent of scheduling.
//
// The returned error is non-nil only for run-level failures — context
// cancellation or timeout before every trial completed. Per-trial errors
// (including recovered panics) are reported in Result.Errs and never abort
// the other trials; use Result.FirstErr to fail like a sequential loop.
// The Result is non-nil even on error and carries the partial results.
func Run[T any](ctx context.Context, trials int, fn func(ctx context.Context, trial int) (T, error), opts Options[T]) (*Result[T], error) {
	start := time.Now() //crlint:allow nowallclock Result.Elapsed reports real wall time, not simulated time
	if ctx == nil {
		ctx = context.Background()
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > trials {
		par = trials
	}
	if par < 1 {
		par = 1
	}
	res := &Result[T]{
		Values:      make([]T, trials),
		Errs:        make([]error, trials),
		Parallelism: par,
	}
	if trials == 0 {
		res.Elapsed = time.Since(start) //crlint:allow nowallclock elapsed-time reporting
		return res, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		// A context canceled before the run starts must execute nothing:
		// without this check the feeder's select below could still hand out
		// indices (select picks randomly among ready cases), making Done
		// nondeterministic for an already-dead context.
		res.Elapsed = time.Since(start) //crlint:allow nowallclock elapsed-time reporting
		return res, err
	}
	mRuns.Inc()
	mParallelism.Set(int64(par))

	// Workers write disjoint slice elements and announce completions on a
	// buffered channel sized so they can never block; the collector (this
	// goroutine) is then the only reader of completed entries, which keeps
	// progress callbacks serialized and the whole engine race-free.
	indexCh := make(chan int)
	completedCh := make(chan int, trials)
	go func() {
		defer close(indexCh)
		for i := 0; i < trials; i++ {
			// Checked before every send: when the context is already dead
			// and a worker is simultaneously ready to receive, both select
			// cases below are ready and Go picks one at random — without
			// this check a canceled run could keep dispatching trials.
			if ctx.Err() != nil {
				return
			}
			select {
			case indexCh <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indexCh {
				mTrialsStarted.Inc()
				var trialStart time.Time
				if obs.Enabled() {
					trialStart = time.Now() //crlint:allow nowallclock metrics-only trial timing, never feeds the simulation
				}
				res.Values[i], res.Errs[i] = runTrial(ctx, i, fn)
				if obs.Enabled() {
					mTrialSeconds.Observe(time.Since(trialStart).Seconds()) //crlint:allow nowallclock metrics-only trial timing
				}
				completedCh <- i
			}
		}()
	}
	go func() {
		wg.Wait()
		close(completedCh)
	}()

	errCount := 0
	for i := range completedCh {
		res.Done++
		mTrialsCompleted.Inc()
		if res.Errs[i] != nil {
			errCount++
			mTrialsErrored.Inc()
			var pe *PanicError
			if errors.As(res.Errs[i], &pe) {
				mTrialsPanicked.Inc()
			}
		} else if opts.Solved == nil || opts.Solved(res.Values[i]) {
			res.Solved++
		}
		if opts.Progress != nil {
			opts.Progress(Progress{
				Done:    res.Done,
				Total:   trials,
				Solved:  res.Solved,
				Errors:  errCount,
				Elapsed: time.Since(start), //crlint:allow nowallclock progress-callback elapsed time
			})
		}
	}
	res.Elapsed = time.Since(start) //crlint:allow nowallclock elapsed-time reporting
	if res.Done < trials {
		// Only cancellation or timeout can leave trials unexecuted.
		return res, ctx.Err()
	}
	return res, nil
}

// runTrial executes one trial with panic recovery.
func runTrial[T any](ctx context.Context, trial int, fn func(ctx context.Context, trial int) (T, error)) (v T, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &PanicError{Trial: trial, Value: rec, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, trial)
}
