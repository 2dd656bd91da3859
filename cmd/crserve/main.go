// Command crserve is the simulation-farm daemon: an HTTP/JSON job service
// over the repository's Monte Carlo engine (internal/serve). Clients
// submit the same workloads crsim and crbench run from the command line
// and get deterministic, cacheable results back — the same job spec and
// seed always produce byte-identical bodies, at any -workers value.
//
// Usage:
//
//	crserve                                # listen on 127.0.0.1:8344
//	crserve -addr :8080 -workers 4
//	crserve -queue-depth 64 -cache-entries 512
//	crserve -pprof -metrics metrics.ndjson
//
// Endpoints:
//
//	POST   /v1/jobs              submit a job (JSON spec)
//	GET    /v1/jobs/{id}         status
//	GET    /v1/jobs/{id}/result  result body
//	GET    /v1/jobs/{id}/stream  NDJSON progress stream
//	DELETE /v1/jobs/{id}         cancel
//	GET    /healthz /readyz /metrics
//
// SIGINT/SIGTERM drain gracefully: intake stops (readyz turns 503),
// accepted jobs run to completion within -drain-timeout, then the
// process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"fadingcr/internal/cli"
	"fadingcr/internal/obs"
	"fadingcr/internal/serve"
)

func main() {
	os.Exit(mainExitCode(os.Args[1:], nil, nil))
}

// mainExitCode runs the daemon and maps its error to the process exit
// status (0 ok/help, 2 flag misuse, 1 runtime failure), keeping main
// testable. ready (if non-nil) receives the bound address once the
// daemon serves; shutdown (if non-nil) triggers the same graceful drain
// a signal would — both are test hooks.
func mainExitCode(args []string, ready chan<- string, shutdown <-chan struct{}) int {
	err := run(args, ready, shutdown)
	if err != nil && !cli.IsHelp(err) {
		fmt.Fprintln(os.Stderr, "crserve:", err)
	}
	return cli.ExitCode(err)
}

func run(args []string, ready chan<- string, shutdown <-chan struct{}) (err error) {
	fs := flag.NewFlagSet("crserve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8344", "TCP listen address")
		workers      = fs.Int("workers", 2, "jobs run concurrently (results are identical at any value)")
		queueDepth   = fs.Int("queue-depth", 16, "jobs that may wait beyond the running ones before submits get 429")
		cacheEntries = fs.Int("cache-entries", 128, "result-cache capacity in entries (negative disables caching)")
		jobParallel  = fs.Int("job-parallel", runtime.GOMAXPROCS(0), "worker goroutines per job's trial loop (results are identical at any value)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight jobs")
		pprofFlag    = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return cli.Usage(err)
	}
	if *workers < 1 {
		return cli.Usagef("-workers must be ≥ 1, got %d", *workers)
	}
	if *queueDepth < 1 {
		return cli.Usagef("-queue-depth must be ≥ 1, got %d", *queueDepth)
	}
	if *jobParallel < 1 {
		return cli.Usagef("-job-parallel must be ≥ 1, got %d", *jobParallel)
	}
	if *drainTimeout <= 0 {
		return cli.Usagef("-drain-timeout must be positive, got %v", *drainTimeout)
	}
	finish, err := obsFlags.Start("crserve")
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); err == nil {
			err = ferr
		}
	}()

	d, err := serve.StartDaemon(serve.DaemonConfig{
		Addr: *addr,
		Executor: serve.Options{
			Workers:        *workers,
			QueueDepth:     *queueDepth,
			CacheEntries:   *cacheEntries,
			JobParallelism: *jobParallel,
		},
		LogWriter:   os.Stderr,
		EnablePprof: *pprofFlag,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "crserve: listening on %s (workers %d, queue %d, cache %d)\n",
		d.Addr(), *workers, *queueDepth, *cacheEntries)
	if ready != nil {
		ready <- d.Addr().String()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case <-shutdown:
	}
	stop() // a second signal during the drain kills the process the hard way

	fmt.Fprintf(os.Stderr, "crserve: draining (budget %v)\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout) //crlint:allow nowallclock graceful-drain budget bounds wall time only
	defer cancel()
	if err := d.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(os.Stderr, "crserve: drained, bye")
	return nil
}
