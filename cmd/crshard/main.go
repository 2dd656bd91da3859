// Command crshard coordinates a distributed experiment run: it splits every
// trial loop into -shards contiguous trial ranges, fans the shards out to
// local workers and/or remote crserve daemons, merges the shard results, and
// re-renders the experiment tables — byte-identical to an unsharded crbench
// run of the same spec, at any shard count, worker count, or endpoint mix.
//
// Usage:
//
//	crshard -ids E1,E12 -quick -shards 8                  # local workers
//	crshard -shards 16 -endpoints http://a:8080,http://b:8080
//	crshard -shards 8 -checkpoint-dir ckpt                # resumable
//	crshard -shards 8 -checkpoint-dir ckpt -resume        # pick up a run
//
// Per-shard results are checkpointed to -checkpoint-dir as they complete;
// -resume loads matching checkpoints instead of recomputing those shards.
// A run that lost some shards (daemon down, timeout budget exhausted) exits
// nonzero listing the failed shards; rerunning with -resume completes just
// the missing ones. crshard captures no traces: `crbench -trace-dir` with
// the same spec writes the run's per-trial traces.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"fadingcr/internal/cli"
	"fadingcr/internal/experiments"
	"fadingcr/internal/shard"
)

func main() {
	os.Exit(mainExitCode(os.Args[1:]))
}

// mainExitCode runs the command and maps its error to the process exit
// status (help is a success; see internal/cli), keeping main testable.
func mainExitCode(args []string) int {
	err := run(args, os.Stdout)
	if err != nil && !cli.IsHelp(err) {
		fmt.Fprintln(os.Stderr, "crshard:", err)
	}
	return cli.ExitCode(err)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("crshard", flag.ContinueOnError)
	var (
		ids    = fs.String("ids", "all", "comma-separated experiment ids (e.g. E1,E3) or 'all'")
		quick  = fs.Bool("quick", false, "small sweeps for a fast smoke run")
		seed   = fs.Uint64("seed", 1, "master seed")
		trials = fs.Int("trials", 0, "trials per data point (0 = experiment default)")
		format = fs.String("format", "text", "output format: text|markdown")
		out    = fs.String("o", "", "write output to this file instead of stdout")

		shards    = fs.Int("shards", 2, "number of contiguous trial-range shards per trial loop")
		workers   = fs.Int("workers", 0, "local worker executors (0 = 1 when no endpoints are given, else 0)")
		endpoints = fs.String("endpoints", "", "comma-separated crserve base URLs to dispatch shards to (e.g. http://127.0.0.1:8080)")
		parallel  = fs.Int("parallel", runtime.GOMAXPROCS(0), "goroutines per local worker's trial loop (results are identical at any value)")

		checkpointDir = fs.String("checkpoint-dir", "", "write per-shard result checkpoints into this directory")
		resume        = fs.Bool("resume", false, "load matching checkpoints from -checkpoint-dir instead of recomputing those shards")

		shardTimeout = fs.Duration("shard-timeout", 0, "per-attempt wall-clock budget for one shard (0 = none)")
		retries      = fs.Int("retries", 2, "re-attempts per executor per shard after a failure")
		backoff      = fs.Duration("backoff", 200*time.Millisecond, "base delay between a shard's retry attempts (doubles per attempt)")
		timeout      = fs.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return cli.Usage(err)
	}
	if *format != "text" && *format != "markdown" {
		return cli.Usagef("unknown format %q", *format)
	}
	if *resume && *checkpointDir == "" {
		return cli.Usagef("-resume requires -checkpoint-dir")
	}

	var urls []string
	if *endpoints != "" {
		for _, u := range strings.Split(*endpoints, ",") {
			u = strings.TrimRight(strings.TrimSpace(u), "/")
			if u == "" {
				continue
			}
			urls = append(urls, u)
		}
	}

	req := shard.Request{
		Spec:   experiments.Spec{IDs: *ids, Seed: *seed, Trials: *trials, Quick: *quick},
		Shards: *shards,
	}
	if err := req.Validate(); err != nil {
		return cli.Usage(err)
	}

	var execs []shard.Executor
	for _, u := range urls {
		execs = append(execs, &shard.Endpoint{URL: u})
	}
	nWorkers := *workers
	if nWorkers == 0 && len(execs) == 0 {
		nWorkers = 1 // a bare `crshard` still runs, on one local worker
	}
	if nWorkers < 0 {
		return cli.Usagef("-workers must be >= 0 (got %d)", nWorkers)
	}
	for i := 0; i < nWorkers; i++ {
		execs = append(execs, &shard.Local{ID: fmt.Sprintf("local-%d", i), Parallelism: *parallel})
	}
	if len(execs) == 0 {
		return cli.Usagef("no executors: give -workers > 0 or -endpoints")
	}

	coord := shard.Coordinator{
		Executors:    execs,
		Retries:      *retries,
		Backoff:      *backoff,
		ShardTimeout: *shardTimeout,
		Log:          os.Stderr,
	}
	if *checkpointDir != "" {
		coord.Checkpoints = &shard.CheckpointDir{Dir: *checkpointDir}
		coord.Resume = *resume
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout) //crlint:allow nowallclock CLI -timeout flag bounds wall time only
		defer cancel()
	}

	runStart := time.Now() //crlint:allow nowallclock CLI elapsed-time summary
	merged, err := coord.Run(ctx, req)
	if err != nil {
		return err
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
	if err := shard.Assemble(ctx, w, req, merged, *format == "markdown"); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "crshard: %d shard(s) over %d executor(s) in %v (aggregate hash %s)\n",
		*shards, len(execs), time.Since(runStart).Round(time.Millisecond), //crlint:allow nowallclock CLI elapsed-time summary
		merged.Hash())
	return nil
}
