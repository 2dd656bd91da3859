package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"fadingcr/internal/xrand"
)

// workload is a deterministic per-trial computation: a short PCG stream
// keyed by the trial's seeds, so any scheduling dependence would show up
// as a value change.
func workload(master uint64, trial int) float64 {
	dseed, pseed := TrialSeeds(master, trial)
	rng := xrand.New(dseed ^ pseed)
	sum := 0.0
	for i := 0; i < 100; i++ {
		sum += rng.Float64()
	}
	return sum
}

func TestTrialSeedsContract(t *testing.T) {
	// The derivation contract documented in DESIGN.md: deployment stream
	// at index 2·trial, protocol stream at 2·trial+1.
	for _, master := range []uint64{0, 1, 42, 1 << 63} {
		for _, trial := range []int{0, 1, 7, 1000} {
			d, p := TrialSeeds(master, trial)
			if want := xrand.Split(master, uint64(trial)*2); d != want {
				t.Errorf("TrialSeeds(%d, %d) deploy = %d, want Split(seed, 2·trial) = %d", master, trial, d, want)
			}
			if want := xrand.Split(master, uint64(trial)*2+1); p != want {
				t.Errorf("TrialSeeds(%d, %d) proto = %d, want Split(seed, 2·trial+1) = %d", master, trial, p, want)
			}
			if d == p {
				t.Errorf("TrialSeeds(%d, %d): deploy and proto seeds collide", master, trial)
			}
		}
	}
}

func TestRunOrderedResults(t *testing.T) {
	const trials = 64
	res, err := Run(context.Background(), trials, func(_ context.Context, trial int) (int, error) {
		return trial * trial, nil
	}, Options[int]{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != trials || res.Solved != trials {
		t.Fatalf("Done=%d Solved=%d, want %d", res.Done, res.Solved, trials)
	}
	for i, v := range res.Values {
		if v != i*i {
			t.Fatalf("Values[%d] = %d, want %d (results must be in trial order)", i, v, i*i)
		}
	}
	if err := res.FirstErr(); err != nil {
		t.Fatalf("FirstErr = %v, want nil", err)
	}
}

// TestDeterminismAcrossParallelism is the engine-level half of the
// determinism regression: parallelism 1, 4, and 8 must produce
// bit-identical result vectors for the same master seed.
func TestDeterminismAcrossParallelism(t *testing.T) {
	const trials, master = 200, 99
	run := func(par int) []float64 {
		res, err := Run(context.Background(), trials, func(_ context.Context, trial int) (float64, error) {
			return workload(master, trial), nil
		}, Options[float64]{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if res.Parallelism != par {
			t.Fatalf("effective parallelism %d, want %d", res.Parallelism, par)
		}
		return res.Values
	}
	seq := run(1)
	for _, par := range []int{4, 8} {
		if got := run(par); !reflect.DeepEqual(got, seq) {
			t.Errorf("parallelism %d produced different results than sequential", par)
		}
	}
}

func TestTrialErrorsDoNotAbortRun(t *testing.T) {
	sentinel := errors.New("boom")
	res, err := Run(context.Background(), 10, func(_ context.Context, trial int) (int, error) {
		if trial == 3 || trial == 7 {
			return 0, fmt.Errorf("trial %d: %w", trial, sentinel)
		}
		return trial, nil
	}, Options[int]{Parallelism: 4})
	if err != nil {
		t.Fatalf("run-level error %v; trial errors must not abort the run", err)
	}
	if res.Done != 10 || res.Solved != 8 {
		t.Fatalf("Done=%d Solved=%d, want 10/8", res.Done, res.Solved)
	}
	if !errors.Is(res.Errs[3], sentinel) || !errors.Is(res.Errs[7], sentinel) {
		t.Fatalf("Errs = %v, want sentinel at 3 and 7", res.Errs)
	}
	if !errors.Is(res.FirstErr(), sentinel) {
		t.Fatalf("FirstErr = %v, want the trial-3 error", res.FirstErr())
	}
}

func TestPanicRecovery(t *testing.T) {
	res, err := Run(context.Background(), 8, func(_ context.Context, trial int) (int, error) {
		if trial == 5 {
			panic("kaboom")
		}
		return trial, nil
	}, Options[int]{Parallelism: 4})
	if err != nil {
		t.Fatalf("run-level error %v; a trial panic must not kill the run", err)
	}
	var pe *PanicError
	if !errors.As(res.Errs[5], &pe) {
		t.Fatalf("Errs[5] = %v, want *PanicError", res.Errs[5])
	}
	if pe.Trial != 5 || pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = %+v, want trial 5 / kaboom / non-empty stack", pe)
	}
	for i, e := range res.Errs {
		if i != 5 && e != nil {
			t.Errorf("trial %d unexpectedly failed: %v", i, e)
		}
	}
}

func TestCancellationReturnsPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	res, err := Run(ctx, 1000, func(ctx context.Context, trial int) (int, error) {
		if started.Add(1) == 4 {
			cancel()
		}
		select {
		case <-ctx.Done():
		case <-time.After(time.Millisecond):
		}
		return trial, nil
	}, Options[int]{Parallelism: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled run must still return partial results")
	}
	if res.Done == 0 || res.Done >= 1000 {
		t.Fatalf("Done = %d, want partial progress (in-flight trials finish, new ones do not start)", res.Done)
	}
}

// TestTimeout: a run under a deadline context returns promptly with
// context.DeadlineExceeded and partial results.
func TestTimeout(t *testing.T) {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := Run(ctx, 1000, func(ctx context.Context, trial int) (int, error) {
		select {
		case <-ctx.Done():
		case <-time.After(2 * time.Millisecond):
		}
		return trial, nil
	}, Options[int]{Parallelism: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res.Done >= 1000 {
		t.Fatalf("Done = %d, want a partial run", res.Done)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timed-out run took %v, want prompt return", elapsed)
	}
}

func TestProgressStream(t *testing.T) {
	var snaps []Progress
	const trials = 32
	_, err := Run(context.Background(), trials, func(_ context.Context, trial int) (int, error) {
		if trial%4 == 0 {
			return 0, errors.New("unlucky")
		}
		return trial, nil
	}, Options[int]{
		Parallelism: 4,
		Progress:    func(p Progress) { snaps = append(snaps, p) },
		Solved:      func(v int) bool { return v%2 == 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != trials {
		t.Fatalf("got %d progress snapshots, want one per trial (%d)", len(snaps), trials)
	}
	for i, p := range snaps {
		if p.Done != i+1 || p.Total != trials {
			t.Fatalf("snapshot %d = %+v, want Done=%d Total=%d", i, p, i+1, trials)
		}
	}
	final := snaps[len(snaps)-1]
	// 8 error trials (multiples of 4); of the 24 error-free ones the odd
	// values are solved: 16.
	if final.Errors != 8 || final.Solved != 16 {
		t.Fatalf("final snapshot %+v, want Errors=8 Solved=16", final)
	}
}

func TestZeroTrials(t *testing.T) {
	res, err := Run(context.Background(), 0, func(_ context.Context, trial int) (int, error) {
		t.Error("fn called for a zero-trial run")
		return 0, nil
	}, Options[int]{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 0 || len(res.Values) != 0 {
		t.Fatalf("zero-trial result = %+v", res)
	}
}

func TestPreCanceledContextRunsNothing(t *testing.T) {
	// Regression: the feeder used to race a dead ctx.Done() against the
	// index send in one select, so an already-canceled context could still
	// dispatch a nondeterministic handful of trials. A pre-canceled run
	// must execute zero trials, every time.
	for attempt := 0; attempt < 50; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var calls atomic.Int32
		res, err := Run(ctx, 100, func(ctx context.Context, trial int) (int, error) {
			calls.Add(1)
			return trial, nil
		}, Options[int]{Parallelism: 8})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if res.Done != 0 {
			t.Fatalf("attempt %d: Done = %d, want 0 (no trial may run under a pre-canceled context)", attempt, res.Done)
		}
		if n := calls.Load(); n != 0 {
			t.Fatalf("attempt %d: fn called %d times under a pre-canceled context", attempt, n)
		}
	}
}

func TestRunRecordsMetrics(t *testing.T) {
	started0 := mTrialsStarted.Load()
	completed0 := mTrialsCompleted.Load()
	errored0 := mTrialsErrored.Load()
	panicked0 := mTrialsPanicked.Load()
	durations0 := mTrialSeconds.Count()
	res, err := Run(context.Background(), 10, func(ctx context.Context, trial int) (int, error) {
		switch trial {
		case 3:
			return 0, errors.New("boom")
		case 7:
			panic("kaboom")
		}
		return trial, nil
	}, Options[int]{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 10 {
		t.Fatalf("Done = %d, want 10", res.Done)
	}
	if got := mTrialsStarted.Load() - started0; got != 10 {
		t.Errorf("trials_started delta = %d, want 10", got)
	}
	if got := mTrialsCompleted.Load() - completed0; got != 10 {
		t.Errorf("trials_completed delta = %d, want 10", got)
	}
	if got := mTrialsErrored.Load() - errored0; got != 2 {
		t.Errorf("trials_errored delta = %d, want 2 (one error, one panic)", got)
	}
	if got := mTrialsPanicked.Load() - panicked0; got != 1 {
		t.Errorf("trials_panicked delta = %d, want 1", got)
	}
	if got := mTrialSeconds.Count() - durations0; got != 10 {
		t.Errorf("trial_seconds observations delta = %d, want 10", got)
	}
	if got := mParallelism.Load(); got != 4 {
		t.Errorf("parallelism gauge = %d, want 4", got)
	}
}
