// Package experiments is the reproduction harness: one registered
// experiment per table/figure of the experiment index in DESIGN.md §6. Each
// experiment validates one quantitative claim of the paper (the paper itself
// is a theory paper with no empirical section, so the targets are its
// theorems and lemmas) and renders its results as tables.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"fadingcr/internal/geom"
	"fadingcr/internal/radio"
	"fadingcr/internal/runner"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
	"fadingcr/internal/table"
	"fadingcr/internal/trace"
)

// Config controls the scale of an experiment run.
type Config struct {
	// Seed drives all randomness; equal seeds reproduce results exactly.
	Seed uint64
	// Trials is the number of trials per data point; 0 selects the
	// experiment's default.
	Trials int
	// Quick shrinks sweeps for fast smoke runs (tests, CI).
	Quick bool
	// Parallelism is the number of worker goroutines trial loops run
	// across; 0 selects runtime.GOMAXPROCS(0). Results are bit-identical
	// at every parallelism: trials derive their seeds from (Seed, trial
	// index) alone and are reassembled in trial order. Every SINR channel
	// has one delivery engine: a round over more than 2048 listeners
	// offers its listener tiles to the package's tile helpers that are
	// idle at that moment, so trial workers keep their cores.
	Parallelism int
	// Context, when non-nil, cancels in-flight trial loops (deadline or
	// interrupt); a canceled experiment returns the context's error.
	Context context.Context
	// Trace, when non-nil, captures structured per-trial event traces of
	// the experiment's trial loops under the capture's retention policy.
	// Tracing is observational: experiment results and rendered tables are
	// byte-identical with it on or off, at any parallelism.
	Trace *trace.Capture
	// Progress, when non-nil, observes every trial loop the experiment
	// runs, after each completed trial (see runner.Options.Progress; it
	// runs on the collector goroutine and must not block for long). An
	// experiment may run several loops, so Done restarts from zero at
	// each loop boundary. Purely observational: results are byte-identical
	// with it set or nil.
	Progress func(runner.Progress)
	// Shard, when non-nil, reroutes every trial loop through the
	// distributed-sharding protocol (internal/shard): in worker mode only
	// the shard's contiguous slice of each loop's global trial range is
	// executed, and in assemble mode trial values are decoded from merged
	// shard results instead of being computed. See ShardScope.
	Shard *ShardScope
}

// ctx returns the configured context, defaulting to context.Background.
func (c Config) ctx() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

// runTrials executes fn for every trial index on the shared Monte Carlo
// engine with the Config's parallelism and context, failing like the
// sequential loops it replaced: the first per-trial error (in trial
// order) aborts the experiment.
func runTrials[T any](cfg Config, trials int, fn func(trial int) (T, error)) ([]T, error) {
	if cfg.Shard != nil {
		return runTrialsSharded(cfg, trials, fn)
	}
	res, err := runner.Run(cfg.ctx(), trials,
		func(_ context.Context, trial int) (T, error) { return fn(trial) },
		runner.Options[T]{Parallelism: cfg.Parallelism, Progress: cfg.Progress})
	if err != nil {
		return nil, err
	}
	if err := res.FirstErr(); err != nil {
		return nil, err
	}
	return res.Values, nil
}

func (c Config) trials(def, quickDef int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Quick {
		return quickDef
	}
	return def
}

// Experiment is a registered reproduction target.
type Experiment struct {
	// ID is the experiment identifier from DESIGN.md §6, e.g. "E1".
	ID string
	// Title is a one-line description.
	Title string
	// Claim is the paper statement the experiment validates.
	Claim string
	// Run executes the experiment and returns its result tables.
	Run func(cfg Config) ([]*table.Table, error)
}

// All returns every registered experiment, ordered by ID.
func All() []Experiment {
	exps := []Experiment{
		e1(), e2(), e3(), e4(), e5(), e6(), e7(), e8(), e9(), e10(), e11(),
		e12(), e13(), e14(), e15(), e16(), e17(), e18(),
	}
	sort.Slice(exps, func(i, j int) bool {
		// E1 < E2 < … < E10 < E11: compare numerically.
		return expNum(exps[i].ID) < expNum(exps[j].ID)
	})
	return exps
}

func expNum(id string) int {
	var n int
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// DefaultParams returns the repository-standard physical-layer constants
// (sinr.DefaultParams), with power derived per deployment by
// sinr.ChannelFor.
func DefaultParams() sinr.Params {
	return sinr.DefaultParams()
}

// trialOutcome is one execution's contribution to a trial loop. The fields
// are exported with json tags because sharded runs ship trial values across
// the process boundary as JSON (encoding/json round-trips float64 exactly,
// so the wire form is lossless).
type trialOutcome struct {
	Rounds float64 `json:"rounds"`
	Solved bool    `json:"solved"`
}

// channelName maps a channel value to its trace header name.
func channelName(ch sim.Channel) string {
	switch c := ch.(type) {
	case *sinr.Channel:
		if c.Faded() {
			return "rayleigh"
		}
		return "sinr"
	case *radio.Channel:
		return "radio"
	default:
		return ""
	}
}

// runTrialOutcomes is the common body of the trial loops: one
// simulator execution per trial on a fresh deployment, seeded by the
// runner.TrialSeeds contract. Every trial builds its own deployment and
// channel, so Config.Trace capture composes with full parallelism: a
// sampled trial's recorder observes only that trial's channel, and each
// trace file is a pure function of (Seed, trial). Failure-only capture
// keeps the trace of every trial not solved by round solvedBy: simCfg's
// MaxRounds, or a smaller budget under which the caller counts failures
// too.
func runTrialOutcomes(
	cfg Config,
	trials int,
	deploy func(seed uint64) (*geom.Deployment, error),
	channel func(d *geom.Deployment) (sim.Channel, error),
	builder sim.Builder,
	simCfg sim.Config,
	solvedBy int,
) ([]trialOutcome, error) {
	return runTrials(cfg, trials, func(trial int) (trialOutcome, error) {
		dseed, pseed := runner.TrialSeeds(cfg.Seed, trial)
		d, err := deploy(dseed)
		if err != nil {
			return trialOutcome{}, fmt.Errorf("trial %d deployment: %w", trial, err)
		}
		ch, err := channel(d)
		if err != nil {
			return trialOutcome{}, fmt.Errorf("trial %d channel: %w", trial, err)
		}
		trialCfg := simCfg // copy: trials run concurrently
		var rec *trace.Recorder
		if cfg.Trace != nil && trialCfg.Tracer == nil {
			if rec = cfg.Trace.Recorder(trial); rec != nil {
				rec.Header.N = d.N()
				rec.Header.Seed = pseed
				rec.Header.DeploySeed = dseed
				rec.Header.Algo = builder.Name()
				rec.Header.Channel = channelName(ch)
				rec.Header.MaxRounds = trialCfg.MaxRounds
				rec.Header.Points = append(rec.Header.Points[:0], d.Points...)
				trialCfg.Tracer = rec
				trace.Attach(rec, ch)
			}
		}
		res, err := sim.Run(ch, builder, pseed, trialCfg)
		if err != nil {
			return trialOutcome{}, fmt.Errorf("trial %d run: %w", trial, err)
		}
		if rec != nil {
			if err := cfg.Trace.Commit(trial, rec, res.Solved && res.Rounds <= solvedBy); err != nil {
				return trialOutcome{}, fmt.Errorf("trial %d trace: %w", trial, err)
			}
		}
		return trialOutcome{Rounds: float64(res.Rounds), Solved: res.Solved}, nil
	})
}

// trialRounds runs `trials` independent executions, each on a fresh
// deployment from deploy and a fresh protocol seed, and returns the solving
// round of each (or the budget for unsolved runs, counted in unsolved).
func trialRounds(
	cfg Config,
	trials int,
	deploy func(seed uint64) (*geom.Deployment, error),
	channel func(d *geom.Deployment) (sim.Channel, error),
	builder sim.Builder,
	simCfg sim.Config,
) (rounds []float64, unsolved int, err error) {
	return roundsOf(runTrialOutcomes(cfg, trials, deploy, channel, builder, simCfg, simCfg.MaxRounds))
}

// roundsOf returns each outcome's rounds and the number unsolved.
func roundsOf(outcomes []trialOutcome, err error) (rounds []float64, unsolved int, _ error) {
	if err != nil {
		return nil, 0, err
	}
	rounds = make([]float64, 0, len(outcomes))
	for _, o := range outcomes {
		if !o.Solved {
			unsolved++
		}
		rounds = append(rounds, o.Rounds)
	}
	return rounds, unsolved, nil
}

// sinrTrialRounds is trialRounds specialised to the default SINR channel.
func sinrTrialRounds(cfg Config, trials int, n int, builder sim.Builder, maxRounds int) ([]float64, int, error) {
	return roundsOf(sinrTrialOutcomes(cfg, trials, n, builder, maxRounds, maxRounds))
}

// sinrTrialOutcomes is runTrialOutcomes on uniform disks of n nodes over
// the default SINR channel, for callers that need each trial's (Solved,
// Rounds), such as E7's failure counts under several budgets, the
// smallest of which is solvedBy.
func sinrTrialOutcomes(cfg Config, trials int, n int, builder sim.Builder, maxRounds, solvedBy int) ([]trialOutcome, error) {
	return runTrialOutcomes(cfg, trials,
		func(seed uint64) (*geom.Deployment, error) { return geom.UniformDisk(seed, n) },
		func(d *geom.Deployment) (sim.Channel, error) { return sinr.ChannelFor(DefaultParams(), d) },
		builder,
		sim.Config{MaxRounds: maxRounds},
		solvedBy,
	)
}
