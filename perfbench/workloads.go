package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"fadingcr/internal/core"
	"fadingcr/internal/experiments"
	"fadingcr/internal/geom"
	"fadingcr/internal/runner"
	"fadingcr/internal/serve"
	"fadingcr/internal/shard"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
	"fadingcr/internal/stats"
	"fadingcr/internal/table"
)

// A workload is one unit of work the benchmark repeats. run executes the
// unit once with the given seed; it calls dispatch just before handing the
// first trial to the program, so everything before is set-up. A nil ledger
// runs untraced. ref, when set, computes by an independent path the digest
// the unit's output must have and the work each shard does. elasticity is
// how much of the host's slowdown, as the monitor's gauge reads it, the
// unit's times see (see monitor.go).
type workload struct {
	name       string
	run        func(ctx context.Context, seed uint64, l *ledger, dispatch func()) (unitOut, error)
	ref        func(ctx context.Context, seed uint64) (refOut, error)
	elasticity float64
}

// unitOut is what one unit reports besides its timings.
type unitOut struct {
	// Digest is the sha256 of the unit's checked output.
	Digest string `json:"digest"`
	// Trials is the number of unique Monte Carlo trials completed.
	Trials int `json:"trials"`
	// Attempts is the number of executor attempts per shard (fleet-mix
	// only): a straggler re-dispatch runs its shard's trials twice.
	// Completed counts the attempts that returned a result; the others
	// (failed or cancelled) may have done any part of their shard's work.
	Attempts  []int `json:"attempts,omitempty"`
	Completed []int `json:"completed,omitempty"`
}

// refOut is a workload's reference: the digest of its output computed
// unsharded, and each shard's (sim.rounds, sim.transmissions) totals.
type refOut struct {
	Digest string     `json:"digest"`
	Shards [][2]int64 `json:"shards"`
}

// workloads: why each was chosen is in README.md and BENCHMARK.json.
//
// The elasticities were measured on the reference machine over two sets of
// ten runs per workload (baseline/BASELINE.md). e1 and solve-large spend
// their time in pair loops of the gauge's own kind and see all of its
// slowdown. fleet-mix's Rayleigh and radio code sees about half of it:
// within a run, log unit time against log slowdown has a slope of 0.4 to
// 0.45, and 0.5 leaves the least spread between runs.
var workloads = []workload{
	{name: "e1", run: runE1, elasticity: 1},
	{name: "solve-large", run: runSolveLarge, elasticity: 1},
	{name: "fleet-mix", run: runFleetMix, ref: refFleetMix, elasticity: 0.5},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// e1Budget is E1's round cap, 400 + 100·⌈log₂ n⌉.
func e1Budget(n int) int {
	return 400 + 100*int(math.Ceil(math.Log2(float64(n))))
}

// solveTrial is one fixed-probability trial on a fresh uniform disk, built
// exactly as the experiments' trial loops build it: deployment and
// protocol seeds from runner.TrialSeeds, the default SINR engine.
func solveTrial(l *ledger, seed uint64, trial, n int) (sim.Result, error) {
	dseed, pseed := runner.TrialSeeds(seed, trial)
	var d *geom.Deployment
	err := l.timed("geom.deploy", func() (err error) {
		d, err = geom.UniformDisk(dseed, n)
		return err
	})
	if err != nil {
		return sim.Result{}, fmt.Errorf("trial %d deployment: %w", trial, err)
	}
	var ch *sinr.Channel
	err = l.timed("sinr.build", func() (err error) {
		ch, err = sinr.ChannelFor(sinr.DefaultParams(), d)
		return err
	})
	if err != nil {
		return sim.Result{}, fmt.Errorf("trial %d channel: %w", trial, err)
	}
	if l != nil {
		// Asserted, not called directly, so the benchmark still builds once
		// the gain cache and its accessor are gone.
		if g, ok := any(ch).(interface{ GainCacheBytes() int64 }); ok {
			l.add("sinr.gaincache_bytes", float64(g.GainCacheBytes()))
		}
	}
	res, err := runSim(l, ch, core.FixedProbability{}, pseed, sim.Config{MaxRounds: e1Budget(n)})
	if err != nil {
		return sim.Result{}, fmt.Errorf("trial %d run: %w", trial, err)
	}
	return res, nil
}

// runE1 untraced is experiments.ByID("E1").Run at parallelism 1 with the
// default engine, rendered as crbench prints it. Traced it is a replica of
// E1's trial loop built from the layers' public calls; the replica must
// render the same bytes, which the harness checks.
func runE1(ctx context.Context, seed uint64, l *ledger, dispatch func()) (unitOut, error) {
	e, ok := experiments.ByID("E1")
	if !ok {
		return unitOut{}, errors.New("experiment E1 is not registered")
	}
	var tables []*table.Table
	var err error
	trials0 := snapCounters()
	dispatch()
	if l == nil {
		tables, err = e.Run(experiments.Config{Seed: seed, Parallelism: 1, Context: ctx})
	} else {
		tables, err = e1Replica(ctx, seed, l)
	}
	if err != nil {
		return unitOut{}, fmt.Errorf("E1: %w", err)
	}
	var buf bytes.Buffer
	if err := l.timed("experiments.render", func() error {
		return experiments.RenderTables(&buf, e, tables, false)
	}); err != nil {
		return unitOut{}, err
	}
	done := snapCounters().delta(trials0)
	return unitOut{Digest: digest(buf.Bytes()), Trials: int(done.c["runner.trials_completed"])}, nil
}

// e1Replica mirrors the Run body of E1 in internal/experiments/e1_scaling.go
// line for line, with every trial going through solveTrial.
func e1Replica(ctx context.Context, seed uint64, l *ledger) ([]*table.Table, error) {
	ns := []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	const trials = 40
	results := table.New("E1 — rounds to solve vs n (fixed-probability on SINR)",
		"n", "trials", "mean±95%CI", "median", "p95", "max", "unsolved", "Δ median", "median/log₂n")
	var medians []float64
	prevMedian := math.NaN()
	for _, n := range ns {
		t := trials
		if n >= 2048 && t > 15 {
			t = 15
		}
		outs, err := runTrials(ctx, l, t, func(trial int) (sim.Result, error) { return solveTrial(l, seed, trial, n) })
		if err != nil {
			return nil, fmt.Errorf("E1 n=%d: %w", n, err)
		}
		rounds := make([]float64, 0, t)
		unsolved := 0
		for _, o := range outs {
			if !o.Solved {
				unsolved++
			}
			rounds = append(rounds, float64(o.Rounds))
		}
		s, err := stats.Summarize(rounds)
		if err != nil {
			return nil, err
		}
		medians = append(medians, s.Median)
		delta := "—"
		if !math.IsNaN(prevMedian) {
			delta = table.Float(s.Median-prevMedian, 1)
		}
		prevMedian = s.Median
		lo, hi, err := stats.MeanCI(rounds, 1.96)
		if err != nil {
			return nil, err
		}
		results.AddRow(table.Int(n), table.Int(t),
			fmt.Sprintf("%.1f±%.1f", s.Mean, (hi-lo)/2), table.Float(s.Median, 1),
			table.Float(stats.QuantileOf(rounds, 0.95), 1),
			table.Float(s.Max, 0), table.Int(unsolved),
			delta, table.Float(s.Median/math.Log2(float64(n)), 2))
	}
	growth, err := stats.CompareGrowth(ns, medians)
	if err != nil {
		return nil, err
	}
	fits := table.New("E1 — growth model comparison on median rounds (both fit well at this range; the Δ-median column above is the sharper discriminator)",
		"model", "a", "b", "R²", "RMSE", "winner")
	mark := func(win bool) string {
		if win {
			return "◀"
		}
		return ""
	}
	fits.AddRow("a + b·log₂(n)", table.Float(growth.Log.A, 2), table.Float(growth.Log.B, 2),
		table.Float(growth.Log.R2, 4), table.Float(growth.Log.RMSE, 2), mark(growth.LogWins()))
	fits.AddRow("a + b·log₂²(n)", table.Float(growth.Log2.A, 2), table.Float(growth.Log2.B, 2),
		table.Float(growth.Log2.R2, 4), table.Float(growth.Log2.RMSE, 2), mark(!growth.LogWins()))
	return []*table.Table{results, fits}, nil
}

// solveLargeN and solveLargeTrials fix the solve-large unit: 8·n² bytes
// exceeds the default gain-cache cap, so no matrix is built.
const (
	solveLargeN      = 16384
	solveLargeTrials = 2
)

// runSolveLarge runs solveLargeTrials trials; the digest covers each
// trial's (rounds, solved, winner, transmissions).
func runSolveLarge(ctx context.Context, seed uint64, l *ledger, dispatch func()) (unitOut, error) {
	dispatch()
	outs, err := runTrials(ctx, l, solveLargeTrials, func(trial int) (sim.Result, error) {
		return solveTrial(l, seed, trial, solveLargeN)
	})
	if err != nil {
		return unitOut{}, err
	}
	var buf bytes.Buffer
	for i, o := range outs {
		fmt.Fprintf(&buf, "%d %d %t %d %d\n", i, o.Rounds, o.Solved, o.Winner, o.Transmissions)
	}
	return unitOut{Digest: digest(buf.Bytes()), Trials: len(outs)}, nil
}

// fleetRequest is the fleet-mix run: E3 and E12 at full scale in 2 shards.
func fleetRequest(seed uint64) shard.Request {
	return shard.Request{Spec: experiments.Spec{IDs: "E3,E12", Seed: seed}, Shards: 2}
}

// runFleetMix starts a crserve daemon in-process, runs the request through
// a shard.Coordinator over a local executor and an endpoint on the daemon,
// and assembles the tables.
func runFleetMix(ctx context.Context, seed uint64, l *ledger, dispatch func()) (out unitOut, err error) {
	d, err := serve.StartDaemon(serve.DaemonConfig{
		Addr:     "127.0.0.1:0",
		Executor: serve.Options{Workers: 1, JobParallelism: 1, CacheEntries: -1},
	})
	if err != nil {
		return unitOut{}, fmt.Errorf("start daemon: %w", err)
	}
	defer func() {
		http.DefaultClient.CloseIdleConnections()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if serr := d.Shutdown(sctx); serr != nil && err == nil {
			err = fmt.Errorf("daemon shutdown: %w", serr)
		}
	}()
	req := fleetRequest(seed)
	if err := req.Validate(); err != nil {
		return unitOut{}, err
	}
	log := newAttemptLog(req.Shards)
	coord := shard.Coordinator{Executors: []shard.Executor{
		&shardExecutor{Executor: &shard.Local{ID: "local-0", Parallelism: 1}, l: l, local: true, log: log},
		&shardExecutor{Executor: &shard.Endpoint{URL: "http://" + d.Addr().String()}, l: l, log: log},
	}}

	dispatch()
	t0 := time.Now()
	merged, err := coord.Run(ctx, req)
	if err != nil {
		return unitOut{}, err
	}
	coordS := time.Since(t0).Seconds()
	var buf bytes.Buffer
	t1 := time.Now()
	if err := shard.Assemble(ctx, &buf, req, merged, false); err != nil {
		return unitOut{}, err
	}
	assembleS := time.Since(t1).Seconds()

	out = unitOut{Digest: digest(buf.Bytes()), Attempts: log.attempts, Completed: log.completed}
	for _, ml := range merged.Loops {
		out.Trials += ml.Total
	}
	if l == nil {
		return out, nil
	}
	l.add("extra_lane_s", coordS*float64(len(coord.Executors)-1))
	l.add("shard.assemble_s", assembleS)
	l.add("shards", float64(req.Shards))
	for _, a := range log.attempts {
		l.add("shard.attempts", float64(a))
	}
	// The coordinator decodes and merges internally; replay that work on
	// the winning bytes to time it, and check the replay merges to the
	// same result.
	parts := make([]*shard.Result, len(log.winners))
	for i, raw := range log.winners {
		if err := l.timed("shard.decode", func() (err error) {
			parts[i], err = shard.Decode(bytes.NewReader(raw))
			return err
		}); err != nil {
			return unitOut{}, fmt.Errorf("replay decode shard %d: %w", i, err)
		}
	}
	var replay *shard.Merged
	if err := l.timed("shard.merge", func() (err error) {
		replay, err = shard.Merge(parts)
		return err
	}); err != nil {
		return unitOut{}, fmt.Errorf("replay merge: %w", err)
	}
	if replay.Hash() != merged.Hash() {
		return unitOut{}, errors.New("replayed merge differs from the coordinator's")
	}
	return out, nil
}

// refFleetMix renders E3 and E12 unsharded, whose bytes the sharded run
// must reproduce, then runs each shard alone to learn its round and
// transmission totals: a unit's totals must lie between Σ completed
// attempts·shard totals and Σ attempts·shard totals.
func refFleetMix(ctx context.Context, seed uint64) (refOut, error) {
	req := fleetRequest(seed)
	selected, cfg, err := experiments.ConfigFromSpec(req.Spec)
	if err != nil {
		return refOut{}, err
	}
	cfg.Context = ctx
	cfg.Parallelism = 2
	var buf bytes.Buffer
	before := snapCounters()
	for _, e := range selected {
		tables, err := e.Run(cfg)
		if err != nil {
			return refOut{}, fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := experiments.RenderTables(&buf, e, tables, false); err != nil {
			return refOut{}, err
		}
	}
	whole := snapCounters().delta(before)
	out := refOut{Digest: digest(buf.Bytes())}
	var sum [2]int64
	for i := 0; i < req.Shards; i++ {
		before := snapCounters()
		if _, err := shard.RunWorker(ctx, req, i, 2, nil); err != nil {
			return refOut{}, fmt.Errorf("shard %d: %w", i, err)
		}
		d := snapCounters().delta(before)
		s := [2]int64{d.c["sim.rounds"], d.c["sim.transmissions"]}
		out.Shards = append(out.Shards, s)
		sum[0] += s[0]
		sum[1] += s[1]
	}
	if sum != [2]int64{whole.c["sim.rounds"], whole.c["sim.transmissions"]} {
		return refOut{}, fmt.Errorf("shards ran %d rounds/%d transmissions, the unsharded run %d/%d",
			sum[0], sum[1], whole.c["sim.rounds"], whole.c["sim.transmissions"])
	}
	return out, nil
}
