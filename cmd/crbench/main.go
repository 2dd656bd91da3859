// Command crbench regenerates the reproduction experiments of DESIGN.md §6
// and prints their tables.
//
// Usage:
//
//	crbench                       # run everything at full scale
//	crbench -ids E1,E3 -quick     # selected experiments, small sweeps
//	crbench -format markdown -o results.md
//	crbench -parallel 4 -timeout 10m
//
// Trial loops run on the parallel Monte Carlo engine (internal/runner);
// -parallel never changes results, only wall-clock time. crshard runs the
// same experiments split into shards, locally or over crserve daemons.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"fadingcr/internal/cli"
	"fadingcr/internal/experiments"
	"fadingcr/internal/obs"
	"fadingcr/internal/trace"
)

func main() {
	os.Exit(mainExitCode(os.Args[1:]))
}

// mainExitCode runs the command and maps its error to the process exit
// status (help is a success; see internal/cli), keeping main testable.
func mainExitCode(args []string) int {
	err := run(args, os.Stdout)
	if err != nil && !cli.IsHelp(err) {
		fmt.Fprintln(os.Stderr, "crbench:", err)
	}
	return cli.ExitCode(err)
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("crbench", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list the registered experiments and exit")
		ids      = fs.String("ids", "all", "comma-separated experiment ids (e.g. E1,E3) or 'all'")
		quick    = fs.Bool("quick", false, "small sweeps for a fast smoke run")
		seed     = fs.Uint64("seed", 1, "master seed")
		trials   = fs.Int("trials", 0, "trials per data point (0 = experiment default)")
		format   = fs.String("format", "text", "output format: text|markdown")
		out      = fs.String("o", "", "write output to this file instead of stdout")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines per trial loop (results are identical at any value)")
		timeout  = fs.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none)")
	)
	tracePolicy := trace.AddFlags(fs, 100)
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return cli.Usage(err)
	}
	// One shared parsing/validation path with crserve and crshard: the spec
	// resolves ids and the trial count in one place.
	selected, cfg, err := experiments.ConfigFromSpec(experiments.Spec{IDs: *ids, Seed: *seed, Trials: *trials, Quick: *quick})
	if err != nil {
		return cli.Usage(err)
	}
	finish, err := obsFlags.Start("crbench")
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); err == nil {
			err = ferr
		}
	}()
	if *format != "text" && *format != "markdown" {
		return cli.Usagef("unknown format %q", *format)
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-4s %s\n     %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout) //crlint:allow nowallclock CLI -timeout flag bounds wall time only
		defer cancel()
	}
	effective := *parallel
	if effective <= 0 {
		effective = runtime.GOMAXPROCS(0)
	}

	cfg.Parallelism = *parallel
	cfg.Context = ctx
	if tracePolicy.Dir != "" {
		cfg.Trace, err = trace.NewCapture("crbench", *tracePolicy)
		if err != nil {
			return err
		}
	}
	runStart := time.Now() //crlint:allow nowallclock CLI elapsed-time summary
	for _, e := range selected {
		start := time.Now() //crlint:allow nowallclock per-experiment elapsed-time line
		tables, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := experiments.RenderTables(w, e, tables, *format == "markdown"); err != nil {
			return err
		}
		// Timing goes to stderr so table output is byte-identical run to
		// run and to crshard's assembled tables.
		//crlint:allow nowallclock per-experiment elapsed-time line
		fmt.Fprintf(os.Stderr, "(%s completed in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "\n%d experiment(s) in %v (parallelism %d)\n",
		len(selected), time.Since(runStart).Round(time.Millisecond), effective) //crlint:allow nowallclock CLI elapsed-time summary
	if cfg.Trace != nil {
		// Stderr, so table output stays byte-identical with tracing on or off.
		fmt.Fprintf(os.Stderr, "crbench: %d trace files written to %s (%d dropped by retention)\n",
			len(cfg.Trace.Written()), tracePolicy.Dir, cfg.Trace.Dropped())
	}
	return nil
}
