package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// runningJobs backs the serve.jobs_running gauge (obs gauges are
// set-only, so the executor tracks the instantaneous count itself).
var runningJobs atomic.Int64

// Submission failure modes, mapped to HTTP statuses by the transport
// layer (429 and 503 respectively).
var (
	// ErrQueueFull means the bounded queue has no room; the client should
	// retry after a moment (backpressure, not failure).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining means the executor is shutting down and accepts no new
	// work.
	ErrDraining = errors.New("serve: draining, not accepting jobs")
)

// Options sizes an Executor.
type Options struct {
	// Workers is the number of jobs run concurrently; ≤ 0 selects 2.
	Workers int
	// QueueDepth is the number of jobs that may wait beyond the running
	// ones before Submit returns ErrQueueFull; ≤ 0 selects 16.
	QueueDepth int
	// CacheEntries is the result-cache capacity; 0 selects 128, negative
	// disables caching.
	CacheEntries int
	// JobParallelism is the per-job trial-loop parallelism (the
	// runner.Options.Parallelism each job runs with); ≤ 0 selects
	// runtime.GOMAXPROCS(0). Results are byte-identical at every value —
	// it only trades per-job latency against cross-job throughput.
	JobParallelism int

	// run substitutes the job body in tests; nil selects runSpec.
	run func(ctx context.Context, spec Spec, parallelism int, progress func(Progress)) (*Result, error)
	// accepted, in tests, sees each job Submit queues before Submit
	// returns, with the executor locked; nil does nothing.
	accepted func(*Job)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 128
	}
	if o.JobParallelism <= 0 {
		o.JobParallelism = runtime.GOMAXPROCS(0)
	}
	if o.run == nil {
		o.run = runSpec
	}
	return o
}

// Executor owns the job queue, the worker pool, and the result cache: the
// queue/executor and results layers of the service. Jobs are identified by
// monotonically assigned ids ("j1", "j2", …) and retained for status
// queries until the executor is discarded.
type Executor struct {
	opts  Options
	cache *Cache
	queue chan *Job

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	seq      int
	draining bool
}

// NewExecutor starts an executor with opts.Workers worker goroutines.
// Callers must Drain it to stop them.
func NewExecutor(opts Options) *Executor {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	e := &Executor{
		opts:       opts,
		cache:      NewCache(opts.CacheEntries),
		queue:      make(chan *Job, opts.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
	}
	for range opts.Workers {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Cache exposes the result cache (for tests and stats).
func (e *Executor) Cache() *Cache { return e.cache }

// Submit normalizes, validates, and accepts the job. A result-cache hit
// returns a job already in the done state, its result served from the
// cache (byte-identical to recomputation, by the determinism contract).
// Otherwise the job is enqueued; ErrQueueFull reports a full queue and
// ErrDraining a stopping executor. Validation errors are returned as-is.
func (e *Executor) Submit(spec Spec) (*Job, error) {
	norm := spec.Normalized()
	if err := norm.Validate(); err != nil {
		return nil, err
	}
	hash := norm.Hash()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining {
		return nil, ErrDraining
	}
	if res, ok := e.cache.Get(hash); ok {
		mCacheHits.Inc()
		mJobsSubmitted.Inc()
		job := e.newJobLocked(norm, hash)
		job.finish(StateDone, res, "", true)
		mJobsDone.Inc()
		return job, nil
	}
	mCacheMisses.Inc()
	job := e.newJobLocked(norm, hash)
	select {
	case e.queue <- job:
	default:
		delete(e.jobs, job.ID)
		e.seq-- // the id was never visible; reuse it
		mQueueRejects.Inc()
		return nil, ErrQueueFull
	}
	mJobsSubmitted.Inc()
	mQueueDepth.Set(int64(len(e.queue)))
	if e.opts.accepted != nil {
		e.opts.accepted(job)
	}
	return job, nil
}

// newJobLocked allocates the next job id and registers the job. Callers
// hold e.mu.
func (e *Executor) newJobLocked(spec Spec, hash string) *Job {
	e.seq++
	job := newJob(fmt.Sprintf("j%d", e.seq), spec, hash)
	e.jobs[job.ID] = job
	return job
}

// Job returns the job with the given id.
func (e *Executor) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Cancel requests cancellation of the job with the given id: a queued job
// finishes as cancelled immediately; a running one when its trial loop
// observes the context. Returns the job, whether it exists, and whether it
// was still cancellable.
func (e *Executor) Cancel(id string) (job *Job, ok, cancelled bool) {
	j, ok := e.Job(id)
	if !ok {
		return nil, false, false
	}
	return j, true, j.requestCancel()
}

// Draining reports whether the executor has stopped accepting jobs.
func (e *Executor) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// Drain stops intake and waits for accepted jobs — running and queued —
// to finish. If ctx expires first, in-flight jobs are cancelled and Drain
// waits for the workers to unwind before returning the context's error.
// Drain is idempotent; concurrent calls all wait.
func (e *Executor) Drain(ctx context.Context) error {
	e.mu.Lock()
	if !e.draining {
		e.draining = true
		// Safe: Submit's send and this close are both under e.mu.
		close(e.queue)
	}
	e.mu.Unlock()

	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		e.baseCancel()
		<-done
		return ctx.Err()
	}
}

// worker runs queued jobs until the queue closes and empties.
func (e *Executor) worker() {
	defer e.wg.Done()
	for job := range e.queue {
		mQueueDepth.Set(int64(len(e.queue)))
		e.runJob(job)
	}
}

// runJob executes one job with panic isolation: a panic that escapes the
// job body (the runner already contains per-trial panics; this guards
// spec resolution and rendering) fails the job, never the worker.
func (e *Executor) runJob(job *Job) {
	ctx, cancel := context.WithCancel(e.baseCtx)
	defer cancel()
	if !job.claimRunning(cancel) {
		// Cancelled while queued.
		mJobsCancelled.Inc()
		return
	}
	mJobsRunning.Set(runningJobs.Add(1))
	defer func() { mJobsRunning.Set(runningJobs.Add(-1)) }()
	start := time.Now() //crlint:allow nowallclock job duration metric is reporting-only

	var res *Result
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		res, err = e.opts.run(ctx, job.Spec, e.opts.JobParallelism, job.setProgress)
		return err
	}()
	mJobSeconds.Observe(time.Since(start).Seconds()) //crlint:allow nowallclock job duration metric is reporting-only

	switch {
	case err == nil:
		e.cache.Put(job.Hash, res)
		job.finish(StateDone, res, "", false)
		mJobsDone.Inc()
	case ctx.Err() != nil:
		// The job was cancelled (client DELETE or executor shutdown);
		// whatever error surfaced is a symptom of that cancellation.
		job.finish(StateCancelled, nil, ctx.Err().Error(), false)
		mJobsCancelled.Inc()
	default:
		job.finish(StateFailed, nil, err.Error(), false)
		mJobsFailed.Inc()
	}
}
