// Command crsim runs a single contention resolution simulation and prints
// the outcome (and optionally a per-round trace).
//
// Usage:
//
//	crsim -n 256 -deploy disk -algo fixed -channel sinr -seed 1 -trace
//
// Deployments, algorithms, and channels are resolved by name against
// internal/catalog — the same registry crserve job specs validate against:
//
//	Deployments: disk, square, grid, clusters, chain, pairs.
//	Algorithms:  fixed, sweep, decay, backoff, dampened, cdhalving, estimate.
//	Channels:    sinr, rayleigh, radio, radio-cd.
package main

import (
	"flag"
	"fmt"
	"os"

	"fadingcr/internal/catalog"
	"fadingcr/internal/cli"
	"fadingcr/internal/core"
	"fadingcr/internal/geom"
	"fadingcr/internal/obs"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
	"fadingcr/internal/stats"
	"fadingcr/internal/trace"
	"fadingcr/internal/viz"
	"fadingcr/internal/xrand"
)

func main() {
	os.Exit(mainExitCode(os.Args[1:]))
}

// mainExitCode runs the command and maps its error to the process exit
// status (help is a success; see internal/cli), keeping main testable.
func mainExitCode(args []string) int {
	err := run(args)
	if err != nil && !cli.IsHelp(err) {
		fmt.Fprintln(os.Stderr, "crsim:", err)
	}
	return cli.ExitCode(err)
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("crsim", flag.ContinueOnError)
	var (
		n          = fs.Int("n", 128, "number of participating nodes")
		deploy     = fs.String("deploy", "disk", "deployment: disk|square|grid|clusters|chain|pairs")
		algo       = fs.String("algo", "fixed", "algorithm: fixed|sweep|decay|backoff|dampened|cdhalving|estimate|interleaved|knockout-sweep|staggered")
		channel    = fs.String("channel", "sinr", "channel: sinr|rayleigh|radio|radio-cd")
		seed       = fs.Uint64("seed", 1, "master seed (deployment and protocol)")
		p          = fs.Float64("p", core.DefaultP, "broadcast probability for -algo fixed")
		alpha      = fs.Float64("alpha", 3, "path-loss exponent α > 2")
		beta       = fs.Float64("beta", 1.5, "SINR threshold β")
		noise      = fs.Float64("noise", 1, "ambient noise N")
		maxRounds  = fs.Int("max-rounds", 0, "round budget (0 = auto)")
		showTrace  = fs.Bool("trace", false, "print per-round transmitter/reception counts")
		csvPath    = fs.String("csv", "", "write the per-round trace as CSV to this file")
		plot       = fs.Bool("plot", false, "render an ASCII scatter of the deployment and activity sparklines")
		deployFile = fs.String("deploy-file", "", "load node positions from this CSV (x,y per line) instead of -deploy")
		trials     = fs.Int("trials", 1, "number of independent runs; > 1 prints summary statistics")
		traceOut   = fs.String("trace-out", "", "write a structured event trace of the run to this file (analyse with crtrace)")
	)
	// -trace-format and -trace-classes also apply to -trace-out; -trace-dir
	// applies with -trials > 1.
	tracePolicy := trace.AddFlags(fs, 1)
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return cli.Usage(err)
	}
	finish, err := obsFlags.Start("crsim")
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); err == nil {
			err = ferr
		}
	}()

	var d *geom.Deployment
	if *deployFile != "" {
		f, err := os.Open(*deployFile)
		if err != nil {
			return err
		}
		pts, rerr := geom.ReadPoints(f)
		f.Close()
		if rerr != nil {
			return rerr
		}
		d, err = geom.NewDeployment(pts)
		if err != nil {
			return err
		}
		*deploy = *deployFile
	} else {
		d, err = catalog.Deployment(*deploy, *seed, *n)
		if err != nil {
			return cli.Usage(err)
		}
	}
	builder, err := catalog.Builder(*algo, *p, d.N())
	if err != nil {
		return cli.Usage(err)
	}

	params := sinr.Params{Alpha: *alpha, Beta: *beta, Noise: *noise}
	params.Power = sinr.MinSingleHopPower(params.Alpha, params.Beta, params.Noise, d.R, sinr.DefaultSingleHopMargin)

	built, err := catalog.Channel(*channel, params, d, *seed+1)
	if err != nil {
		return cli.Usage(err)
	}
	ch := built.Channel
	cfg := sim.Config{CollisionDetection: built.CollisionDetection}

	cfg.MaxRounds = *maxRounds
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = catalog.DefaultMaxRounds(d.N())
	}
	// hdr is the trace identity template for structured capture; per-run
	// code fills in Trial and the protocol seed.
	hdr := trace.Header{
		Schema:     trace.SchemaVersion,
		Cmd:        "crsim",
		N:          d.N(),
		DeploySeed: *seed,
		Algo:       builder.Name(),
		Channel:    *channel,
		MaxRounds:  cfg.MaxRounds,
		Points:     d.Points,
	}

	rec := &trace.Recorder{}
	if *showTrace || *csvPath != "" || *plot {
		cfg.Tracer = rec
	}
	if *traceOut != "" && *trials == 1 {
		rec.PerNode = true
		rec.Classes = tracePolicy.Classes
		rec.Header = hdr
		rec.Header.Seed = *seed + 2
		cfg.Tracer = rec
		trace.Attach(rec, ch)
	}

	fmt.Printf("deployment: %s, n=%d, R=%.4g (%d possible link classes)\n", *deploy, d.N(), d.R, d.LinkClassCount())
	fmt.Printf("channel:    %s (α=%.3g β=%.3g N=%.3g P=%.4g)\n", *channel, params.Alpha, params.Beta, params.Noise, params.Power)
	fmt.Printf("algorithm:  %s\n", builder.Name())

	if *trials > 1 {
		var capture *trace.Capture
		if tracePolicy.Dir != "" {
			capture, err = trace.NewCapture("crsim", *tracePolicy)
			if err != nil {
				return err
			}
		}
		return runTrials(ch, builder, *seed, cfg, *trials, capture, hdr)
	}

	res, err := sim.Run(ch, builder, *seed+2, cfg)
	if err != nil {
		return err
	}
	if res.Solved {
		fmt.Printf("SOLVED in round %d by node %d (%d total transmissions)\n", res.Rounds, res.Winner, res.Transmissions)
	} else {
		fmt.Printf("UNSOLVED after %d rounds (%d total transmissions)\n", res.Rounds, res.Transmissions)
	}

	if *plot {
		fmt.Printf("\ndeployment (x-y plane, %d nodes):\n%s\n", d.N(), viz.Scatter(d.Points, nil, 64, 18))
		var actives, txs []int
		for _, r := range rec.Records {
			if r.Kind == trace.KindRound {
				actives = append(actives, int(r.Active))
				txs = append(txs, int(r.Tx))
			}
		}
		fmt.Printf("active nodes per round:  %s\n", viz.Sparkline(actives))
		fmt.Printf("transmitters per round:  %s\n", viz.Sparkline(txs))
	}
	if *showTrace {
		for _, r := range rec.Records {
			if r.Kind == trace.KindRound {
				fmt.Printf("  round %4d: tx=%4d recv=%4d active=%4d\n", r.Round, r.Tx, r.Recv, r.Active)
			}
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", *csvPath)
	}
	if *traceOut != "" {
		if err := writeStructuredTrace(&rec.Trace, *traceOut, tracePolicy.Format); err != nil {
			return err
		}
	}
	return nil
}

// writeStructuredTrace serialises a trace to path. The status line goes to
// stderr: stdout stays byte-identical with tracing on or off.
func writeStructuredTrace(t *trace.Trace, path string, f trace.Format) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	err = f.Write(t, out)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "crsim: structured trace written to %s\n", path)
	return nil
}

// runTrials executes several independent runs and prints summary statistics.
// Trials share one channel (the Rayleigh fade stream is stateful across
// runs), so capture attaches and detaches the recorder around each sampled
// trial; the loop stays sequential and its stdout is byte-identical with
// capture on or off.
func runTrials(ch sim.Channel, builder sim.Builder, seed uint64, cfg sim.Config, trials int, capture *trace.Capture, hdr trace.Header) error {
	var rounds []float64
	unsolved := 0
	for trial := 0; trial < trials; trial++ {
		protoSeed := xrand.Split(seed, uint64(trial))
		var rec *trace.Recorder
		if capture != nil {
			if rec = capture.Recorder(trial); rec != nil {
				h := hdr
				h.Trial = rec.Header.Trial
				h.Seed = protoSeed
				rec.Header = h
				cfg.Tracer = rec
				trace.Attach(rec, ch)
			}
		}
		res, err := sim.Run(ch, builder, protoSeed, cfg)
		if rec != nil {
			trace.Detach(ch)
			cfg.Tracer = nil
		}
		if err != nil {
			return err
		}
		if rec != nil {
			if err := capture.Commit(trial, rec, res.Solved); err != nil {
				return err
			}
		}
		if !res.Solved {
			unsolved++
		}
		rounds = append(rounds, float64(res.Rounds))
	}
	s, err := stats.Summarize(rounds)
	if err != nil {
		return err
	}
	fmt.Printf("trials:     %d (%d unsolved within %d rounds)\n", trials, unsolved, cfg.MaxRounds)
	fmt.Printf("rounds:     mean=%.1f median=%.1f p95=%.1f max=%.0f\n",
		s.Mean, s.Median, stats.QuantileOf(rounds, 0.95), s.Max)
	if capture != nil {
		fmt.Fprintf(os.Stderr, "crsim: %d trace files written to %s (%d dropped by retention)\n",
			len(capture.Written()), capture.Policy().Dir, capture.Dropped())
	}
	return nil
}
