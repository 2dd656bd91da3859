package main

import (
	"context"
	"sync"
	"time"

	"fadingcr/internal/core"
	"fadingcr/internal/obs"
	"fadingcr/internal/runner"
	"fadingcr/internal/shard"
	"fadingcr/internal/sim"
)

// The per-layer ledger. Every number in it is taken from outside the
// program: by timing calls into a layer's public functions, by decorating
// the interfaces the layers hand each other (sim.Channel, sim.Tracer,
// shard.Executor), and by reading deltas of the obs.Default counters the
// layers already keep. The program itself carries no extra clocks.
//
// A nil *ledger is the untraced mode: every helper then calls straight
// through without reading a clock, so the traced and untraced runs execute
// the same program code.

// perLayer lists the traced run's metrics in output order with their units.
var perLayer = []struct{ name, unit string }{
	{"geom.deploy_s", "s"},
	{"geom.deploy_calls", "count"},
	{"sinr.build_s", "s"},
	{"sinr.build_calls", "count"},
	{"sinr.gaincache_bytes", "bytes"},
	{"sinr.cached_frac", "ratio"},
	{"sinr.deliver_s", "s"},
	{"sinr.deliver_calls", "count"},
	{"sinr.pair_evals", "count"},
	{"sinr.live_pair_frac", "ratio"},
	{"sinr.ns_per_pair", "ns"},
	{"sim.protocol_s", "s"},
	{"sim.rounds", "count"},
	{"sim.transmissions", "count"},
	{"sim.live_step_frac", "ratio"},
	{"runner.overhead_s", "s"},
	{"runner.trials", "count"},
	{"experiments.render_s", "s"},
	{"shard.worker_s", "s"},
	{"shard.wire_bytes", "bytes"},
	{"shard.decode_s", "s"},
	{"shard.merge_s", "s"},
	{"shard.assemble_s", "s"},
	{"shard.attempts", "count"},
	{"shard.useful_frac", "ratio"},
	{"shard.dup_s", "s"},
	{"serve.transport_s", "s"},
	{"serve.http_requests", "count"},
	{"ledger.coverage", "ratio"},
	{"ledger.overhead_frac", "ratio"},
}

// ledger accumulates raw sums by name; finish turns them into perLayer.
type ledger struct {
	mu sync.Mutex
	v  map[string]float64
}

func newLedger() *ledger { return &ledger{v: map[string]float64{}} }

func (l *ledger) add(name string, x float64) {
	l.mu.Lock()
	l.v[name] += x
	l.mu.Unlock()
}

// timed runs fn and, when tracing, adds its duration to name_s and one to
// name_calls.
func (l *ledger) timed(name string, fn func() error) error {
	if l == nil {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	l.add(name+"_s", time.Since(t0).Seconds())
	l.add(name+"_calls", 1)
	return err
}

// runTrials is runner.Run at parallelism 1 with the first trial error
// failing the loop, as the experiments' loops do. Traced, it splits the
// runner's wall time into the trials' time and the runner's own overhead.
func runTrials[T any](ctx context.Context, l *ledger, trials int, fn func(trial int) (T, error)) ([]T, error) {
	var inTrials time.Duration
	t0 := time.Now()
	res, err := runner.Run(ctx, trials, func(_ context.Context, trial int) (T, error) {
		if l == nil {
			return fn(trial)
		}
		t1 := time.Now()
		v, err := fn(trial)
		inTrials += time.Since(t1)
		return v, err
	}, runner.Options[T]{Parallelism: 1})
	if l != nil {
		wall := time.Since(t0)
		l.add("runner.overhead_s", (wall - inTrials).Seconds())
		l.add("runner.trials", float64(trials))
	}
	if err != nil {
		return nil, err
	}
	if err := res.FirstErr(); err != nil {
		return nil, err
	}
	return res.Values, nil
}

// runSim is sim.Run; traced, the channel is wrapped to time Deliver and a
// tracer reads each round's transmit set and core.Activeness. The tracer
// times itself, so sim.protocol_s excludes the probe's own per-round pass.
func runSim(l *ledger, ch sim.Channel, b sim.Builder, seed uint64, cfg sim.Config) (sim.Result, error) {
	if l == nil {
		return sim.Run(ch, b, seed, cfg)
	}
	tc := &timedChannel{Channel: ch}
	tr := &activeTracer{}
	cfg.Tracer = tr
	t0 := time.Now()
	res, err := sim.Run(tc, b, seed, cfg)
	run := time.Since(t0)
	l.add("sinr.deliver_s", tc.busy.Seconds())
	l.add("sim.protocol_s", (run - tc.busy - tr.busy).Seconds())
	l.add("sinr.pair_evals", float64(tr.pairs))
	l.add("live_pairs", float64(tr.livePairs))
	l.add("steps", float64(tr.steps))
	l.add("live_steps", float64(tr.liveSteps))
	return res, err
}

// timedChannel is a sim.Channel decorator that times Deliver.
type timedChannel struct {
	sim.Channel
	busy time.Duration
}

func (c *timedChannel) Deliver(tx []bool, recv []int) {
	t0 := time.Now()
	c.Channel.Deliver(tx, recv)
	c.busy += time.Since(t0)
}

// activeTracer is a sim.Tracer that counts, per round, the pair evaluations
// a full-listener Deliver performs (|tx|·n) and the share of them that land
// on listeners still active (|tx|·|active|).
type activeTracer struct {
	pairs, livePairs, steps, liveSteps int64
	busy                               time.Duration
}

func (t *activeTracer) OnRound(_ int, nodes []sim.Node, tx []bool, _ []int) {
	t0 := time.Now()
	var ntx, active int64
	for u, node := range nodes {
		if tx[u] {
			ntx++
		}
		if a, ok := node.(core.Activeness); ok && a.Active() {
			active++
		}
	}
	n := int64(len(nodes))
	t.pairs += ntx * n
	t.livePairs += ntx * active
	t.steps += n
	t.liveSteps += active
	t.busy += time.Since(t0)
}

// shardExecutor decorates a shard.Executor. Untraced it only counts the
// attempts per shard and those that completed (no clock), which tells
// which shard a straggler re-dispatch duplicated; traced it also times
// every attempt, sums the wire bytes, and charges attempts that finish
// after the shard's first result to shard.dup_s.
type shardExecutor struct {
	shard.Executor
	l     *ledger
	local bool
	log   *attemptLog
}

// attemptLog is shared by all executors of one run.
type attemptLog struct {
	mu        sync.Mutex
	attempts  []int
	completed []int
	winners   [][]byte
}

func newAttemptLog(shards int) *attemptLog {
	return &attemptLog{attempts: make([]int, shards), completed: make([]int, shards), winners: make([][]byte, shards)}
}

func (e *shardExecutor) RunShard(ctx context.Context, req shard.Request, index int) ([]byte, error) {
	var t0 time.Time
	if e.l != nil {
		t0 = time.Now()
	}
	raw, err := e.Executor.RunShard(ctx, req, index)
	lg := e.log
	lg.mu.Lock()
	lg.attempts[index]++
	lost := err == nil && lg.winners[index] != nil
	if err == nil {
		lg.completed[index]++
		if !lost {
			lg.winners[index] = raw
		}
	}
	lg.mu.Unlock()
	if e.l == nil {
		return raw, err
	}
	dt := time.Since(t0).Seconds()
	if e.local {
		e.l.add("local_s", dt)
	} else {
		e.l.add("endpoint_s", dt)
	}
	if lost {
		e.l.add("shard.dup_s", dt)
	}
	e.l.add("shard.wire_bytes", float64(len(raw)))
	return raw, err
}

// counters are the obs.Default metrics the ledger reads as deltas.
var counterNames = []string{
	"sim.rounds", "sim.transmissions", "sinr.deliveries",
	"sinr.gaincache_built", "sinr.gaincache_fallback",
	"runner.trials_completed", "serve.http_requests",
}

type counterSnap struct {
	c       map[string]int64
	jobSecs float64
}

func snapCounters() counterSnap {
	s := counterSnap{c: map[string]int64{}}
	for _, name := range counterNames {
		s.c[name] = obs.Default.Counter(name).Load()
	}
	s.jobSecs = obs.Default.Histogram("serve.job_seconds", 1e-3, 24).Sum()
	return s
}

func (s counterSnap) delta(since counterSnap) counterSnap {
	d := counterSnap{c: map[string]int64{}, jobSecs: s.jobSecs - since.jobSecs}
	for k, v := range s.c {
		d.c[k] = v - since.c[k]
	}
	return d
}

// finish derives the perLayer metrics from the raw sums, the counter
// deltas, and the unit's wall time.
func (l *ledger) finish(d counterSnap, unitWall float64) map[string]float64 {
	v := l.v
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = v[m.name]
	}
	built := float64(d.c["sinr.gaincache_built"])
	if out["sinr.build_calls"] == 0 {
		// No sinr.ChannelFor call was in reach (fleet-mix builds its
		// channels inside the shard workers): count the channels the gain
		// cache saw instead.
		out["sinr.build_calls"] = built + float64(d.c["sinr.gaincache_fallback"])
	}
	if out["sinr.build_calls"] > 0 {
		out["sinr.cached_frac"] = built / out["sinr.build_calls"]
	}
	out["sinr.deliver_calls"] = float64(d.c["sinr.deliveries"])
	out["sim.rounds"] = float64(d.c["sim.rounds"])
	out["sim.transmissions"] = float64(d.c["sim.transmissions"])
	if v["sinr.pair_evals"] > 0 {
		out["sinr.live_pair_frac"] = v["live_pairs"] / v["sinr.pair_evals"]
		out["sinr.ns_per_pair"] = v["sinr.deliver_s"] * 1e9 / v["sinr.pair_evals"]
	}
	if v["steps"] > 0 {
		out["sim.live_step_frac"] = v["live_steps"] / v["steps"]
	}
	if v["shard.attempts"] > 0 {
		// The daemon runs each shard job through shard.RunWorker; its
		// serve.job_seconds histogram is that time, and the rest of the
		// endpoint's attempt time is HTTP transport and polling.
		out["shard.worker_s"] = v["local_s"] + d.jobSecs
		out["serve.transport_s"] = v["endpoint_s"] - d.jobSecs
		out["shard.useful_frac"] = v["shards"] / v["shard.attempts"]
		out["serve.http_requests"] = float64(d.c["serve.http_requests"])
	}
	// Coverage is the layers' self times over the time they could have
	// filled: the unit wall, plus one more lane per extra executor while
	// the coordinator ran, since the executors' times add up concurrently.
	var self float64
	for _, k := range selfTimes {
		self += out[k]
	}
	if span := unitWall + v["extra_lane_s"]; span > 0 {
		out["ledger.coverage"] = self / span
	}
	return out
}

// selfTimes are the per-layer times that do not overlap one another; their
// sum is what ledger.coverage sets against the unit's wall time.
var selfTimes = []string{
	"geom.deploy_s", "sinr.build_s", "sinr.deliver_s", "sim.protocol_s",
	"runner.overhead_s", "experiments.render_s",
	"shard.worker_s", "serve.transport_s", "shard.decode_s", "shard.merge_s", "shard.assemble_s",
}
