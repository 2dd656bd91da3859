package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"fadingcr/internal/catalog"
	"fadingcr/internal/experiments"
	"fadingcr/internal/runner"
	"fadingcr/internal/shard"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
	"fadingcr/internal/trace"
	"fadingcr/internal/xrand"
)

// runSpec executes a validated, normalized spec and produces its result
// body. The body is a pure function of the spec: all randomness derives
// from (Spec.Seed, trial index) via runner.TrialSeeds, trials are
// reassembled in trial order, and rendering never touches wall-clock or
// map iteration order — so any worker count and any cache state produce
// byte-identical bodies.
func runSpec(ctx context.Context, spec Spec, parallelism int, progress func(Progress)) (*Result, error) {
	switch spec.Kind {
	case KindExperiment:
		return runExperimentSpec(ctx, spec, parallelism, progress)
	case KindSim:
		return runSimSpec(ctx, spec, parallelism, progress)
	default:
		return nil, fmt.Errorf("serve: unvalidated spec kind %q", spec.Kind)
	}
}

// runExperimentSpec renders the selected experiments' tables, like crbench
// minus the timing lines (which would break byte-identity). With Shard set
// the job is one worker of a distributed run: it executes only its shard's
// trial ranges and returns the canonical shard wire stream instead.
func runExperimentSpec(ctx context.Context, spec Spec, parallelism int, progress func(Progress)) (*Result, error) {
	if spec.Shard != nil {
		return runShardSpec(ctx, spec, parallelism, progress)
	}
	selected, cfg, err := experiments.ConfigFromSpec(spec.experimentSpec())
	if err != nil {
		return nil, err
	}
	cfg.Parallelism = parallelism
	cfg.Context = ctx
	if progress != nil {
		cfg.Progress = func(p runner.Progress) {
			progress(Progress{Done: p.Done, Total: p.Total, Solved: p.Solved, Errors: p.Errors})
		}
	}
	var buf bytes.Buffer
	for _, e := range selected {
		tables, err := e.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(&buf, "==== %s — %s ====\n", e.ID, e.Title)
		fmt.Fprintf(&buf, "Claim: %s\n\n", e.Claim)
		for _, tab := range tables {
			if spec.Format == "markdown" {
				fmt.Fprintln(&buf, tab.Markdown())
			} else {
				fmt.Fprintln(&buf, tab.Text())
			}
		}
	}
	return &Result{Body: buf.Bytes(), ContentType: "text/plain; charset=utf-8"}, nil
}

// runShardSpec executes one shard of a distributed experiment run
// (internal/shard.RunWorker) and returns its NDJSON wire stream. The body
// is a pure function of the normalized spec like every other job body, so
// the result cache serves re-dispatched shards byte-identically.
func runShardSpec(ctx context.Context, spec Spec, parallelism int, progress func(Progress)) (*Result, error) {
	var rp func(runner.Progress)
	if progress != nil {
		rp = func(p runner.Progress) {
			progress(Progress{Done: p.Done, Total: p.Total, Solved: p.Solved, Errors: p.Errors})
		}
	}
	req := shard.Request{Spec: spec.experimentSpec(), Shards: spec.Shard.Count}
	body, err := shard.RunWorker(ctx, req, spec.Shard.Index, parallelism, rp)
	if err != nil {
		return nil, err
	}
	return &Result{Body: body, ContentType: "application/x-ndjson"}, nil
}

// simTrial is one trial's outcome in a sim job's result body.
type simTrial struct {
	Trial         int   `json:"trial"`
	Rounds        int   `json:"rounds"`
	Solved        bool  `json:"solved"`
	Winner        int   `json:"winner"`
	Transmissions int64 `json:"transmissions"`
}

// simTraceEvent is one executed round in an optional single-trial trace.
type simTraceEvent struct {
	Round        int `json:"round"`
	Transmitters int `json:"transmitters"`
	Receptions   int `json:"receptions"`
}

// simResult is the JSON result body of a sim job. Field order is the
// struct order, fixed; no maps appear anywhere in the encoding.
type simResult struct {
	Kind        string          `json:"kind"`
	Spec        Spec            `json:"spec"`
	MaxRounds   int             `json:"max_rounds"`
	Trials      int             `json:"trials"`
	Solved      int             `json:"solved"`
	Unsolved    int             `json:"unsolved"`
	RoundsMean  float64         `json:"rounds_mean"`
	RoundsP50   float64         `json:"rounds_p50"`
	RoundsP95   float64         `json:"rounds_p95"`
	RoundsMax   int             `json:"rounds_max"`
	TotalTx     int64           `json:"total_transmissions"`
	TrialValues []simTrial      `json:"trial_results"`
	Trace       []simTraceEvent `json:"trace,omitempty"`
}

// runSimSpec executes a sim job: Trials independent executions of the
// scenario, each on a fresh deployment and channel built from the trial's
// runner.TrialSeeds pair. This is not crsim's -trials harness, which runs
// every trial on one deployment and one channel with protocol seed
// xrand.Split(seed, trial).
func runSimSpec(ctx context.Context, spec Spec, parallelism int, progress func(Progress)) (*Result, error) {
	ss := spec.Sim
	maxRounds := ss.MaxRounds
	if maxRounds == 0 {
		maxRounds = catalog.DefaultMaxRounds(ss.N)
	}
	var rec *trace.Recorder
	if spec.Trace {
		rec = &trace.Recorder{} // Validate guarantees Trials == 1
	}
	res, err := runner.Run(ctx, spec.Trials, func(_ context.Context, trial int) (simTrial, error) {
		dseed, pseed := runner.TrialSeeds(spec.Seed, trial)
		d, err := catalog.Deployment(ss.Deploy, dseed, ss.N)
		if err != nil {
			return simTrial{}, fmt.Errorf("trial %d deployment: %w", trial, err)
		}
		params := sinr.Params{Alpha: 3, Beta: 1.5, Noise: 1}
		params.Power = sinr.MinSingleHopPower(params.Alpha, params.Beta, params.Noise, d.R, sinr.DefaultSingleHopMargin)
		built, err := catalog.Channel(ss.Channel, params, d, xrand.Split(pseed, 1))
		if err != nil {
			return simTrial{}, fmt.Errorf("trial %d channel: %w", trial, err)
		}
		builder, err := catalog.Builder(ss.Algo, ss.P, d.N())
		if err != nil {
			return simTrial{}, fmt.Errorf("trial %d builder: %w", trial, err)
		}
		cfg := sim.Config{MaxRounds: maxRounds, CollisionDetection: built.CollisionDetection}
		if rec != nil {
			cfg.Tracer = rec
		}
		r, err := sim.Run(built.Channel, builder, pseed, cfg)
		if err != nil {
			return simTrial{}, fmt.Errorf("trial %d run: %w", trial, err)
		}
		return simTrial{
			Trial:         trial,
			Rounds:        r.Rounds,
			Solved:        r.Solved,
			Winner:        r.Winner,
			Transmissions: r.Transmissions,
		}, nil
	}, runner.Options[simTrial]{
		Parallelism: parallelism,
		Solved:      func(t simTrial) bool { return t.Solved },
		Progress: func(p runner.Progress) {
			if progress != nil {
				progress(Progress{Done: p.Done, Total: p.Total, Solved: p.Solved, Errors: p.Errors})
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if ferr := res.FirstErr(); ferr != nil {
		return nil, ferr
	}

	out := simResult{
		Kind:        KindSim,
		Spec:        spec,
		MaxRounds:   maxRounds,
		Trials:      spec.Trials,
		Solved:      res.Solved,
		Unsolved:    spec.Trials - res.Solved,
		TrialValues: res.Values,
	}
	rounds := make([]int, 0, len(res.Values))
	for _, t := range res.Values {
		rounds = append(rounds, t.Rounds)
		out.TotalTx += t.Transmissions
		if t.Rounds > out.RoundsMax {
			out.RoundsMax = t.Rounds
		}
	}
	out.RoundsMean = meanInt(rounds)
	out.RoundsP50 = percentileInt(rounds, 0.50)
	out.RoundsP95 = percentileInt(rounds, 0.95)
	if rec != nil {
		out.Trace = []simTraceEvent{}
		for _, r := range rec.Records {
			if r.Kind == trace.KindRound {
				out.Trace = append(out.Trace, simTraceEvent{Round: int(r.Round), Transmitters: int(r.Tx), Receptions: int(r.Recv)})
			}
		}
	}
	body, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	body = append(body, '\n')
	return &Result{Body: body, ContentType: "application/json"}, nil
}

// meanInt is the arithmetic mean; 0 for an empty slice.
func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// percentileInt is the nearest-rank percentile of xs; 0 for empty input.
func percentileInt(xs []int, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx])
}
