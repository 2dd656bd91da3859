// Trace-federation goldens. Like the HTTP executor tests, these live in the
// external test package so they can mix Local executors with real crserve
// daemons behind Endpoint.
package shard_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fadingcr/internal/experiments"
	"fadingcr/internal/shard"
	"fadingcr/internal/trace"
)

// tracedRequest is the golden trace-federation workload: E1's trial loops at
// quick scale, traced on every trial.
func tracedRequest(shards int) shard.Request {
	return shard.Request{
		Spec:   experiments.Spec{IDs: "E1", Quick: true, Trials: 2, Seed: 7},
		Shards: shards,
		Trace:  &trace.Policy{},
	}
}

// captureUnsharded executes the request's experiments exactly like an
// unsharded `crbench -trace-dir` run — same capture command, same policy —
// and returns the capture directory.
func captureUnsharded(t *testing.T, req shard.Request) string {
	t.Helper()
	dir := t.TempDir()
	selected, cfg, err := experiments.ConfigFromSpec(req.Spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Context = context.Background()
	cfg.Trace, err = trace.NewCapture("crbench", trace.Policy{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range selected {
		if _, err := e.Run(cfg); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	return dir
}

// dirSnapshot reads a trace directory into name → contents.
func dirSnapshot(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		snap[e.Name()] = data
	}
	return snap
}

// requireSameDir asserts two trace directories hold identical file sets with
// identical bytes.
func requireSameDir(t *testing.T, label string, want, got map[string][]byte) {
	t.Helper()
	names := func(m map[string][]byte) []string {
		var ns []string
		for n := range m {
			ns = append(ns, n)
		}
		sort.Strings(ns)
		return ns
	}
	w, g := names(want), names(got)
	if strings.Join(w, "\n") != strings.Join(g, "\n") {
		t.Fatalf("%s: federated file set differs:\n--- unsharded ---\n%s\n--- federated ---\n%s",
			label, strings.Join(w, "\n"), strings.Join(g, "\n"))
	}
	for _, n := range w {
		if !bytes.Equal(want[n], got[n]) {
			t.Errorf("%s: trace file %s bytes differ from the unsharded capture", label, n)
		}
	}
}

// TestGoldenTraceFederationMatchesUnsharded is the tentpole's golden: a
// sharded traced run — at shard counts 1, 3, and 8, over local workers and
// a local+HTTP endpoint mix — federates a trace directory whose file set
// and bytes are identical to an unsharded `crbench -trace-dir` capture, and
// the assembled stdout is byte-identical to an untraced run.
func TestGoldenTraceFederationMatchesUnsharded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments and daemons")
	}
	want := dirSnapshot(t, captureUnsharded(t, tracedRequest(1)))
	if len(want) == 0 {
		t.Fatal("unsharded capture wrote no trace files; the golden is vacuous")
	}

	var untraced bytes.Buffer
	{
		req := tracedRequest(1)
		req.Trace = nil
		coord := shard.Coordinator{Executors: []shard.Executor{&shard.Local{Parallelism: 2}}}
		m, err := coord.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if m.Traces != nil || m.TracePolicy != nil {
			t.Fatal("untraced run carries federated traces")
		}
		if err := shard.Assemble(context.Background(), &untraced, req, m, false); err != nil {
			t.Fatal(err)
		}
	}

	mixes := map[string][]shard.Executor{
		"local": {
			&shard.Local{ID: "w0", Parallelism: 2},
			&shard.Local{ID: "w1", Parallelism: 2},
		},
		"local+http": {
			&shard.Local{ID: "w0", Parallelism: 2},
			&shard.Endpoint{URL: startDaemon(t)},
		},
	}
	for name, executors := range mixes {
		for _, shards := range []int{1, 3, 8} {
			label := name
			req := tracedRequest(shards)
			coord := shard.Coordinator{Executors: executors}
			m, err := coord.Run(context.Background(), req)
			if err != nil {
				t.Fatalf("%s/%d shards: %v", label, shards, err)
			}
			out := t.TempDir()
			n, err := m.WriteTraceDir(out)
			if err != nil {
				t.Fatalf("%s/%d shards: %v", label, shards, err)
			}
			if n != len(want) {
				t.Errorf("%s/%d shards: federated %d trace files, unsharded capture has %d", label, shards, n, len(want))
			}
			requireSameDir(t, label, want, dirSnapshot(t, out))

			// Tracing is observational: assembled stdout must not move a byte.
			var got bytes.Buffer
			if err := shard.Assemble(context.Background(), &got, req, m, false); err != nil {
				t.Fatal(err)
			}
			if got.String() != untraced.String() {
				t.Errorf("%s/%d shards: traced stdout differs from untraced stdout", label, shards)
			}
		}
	}
}

// TestResumeRejectsDifferentlyTracedCheckpoints pins the checkpoint trace
// guard: RequestHash ignores the trace spec, so an untraced run's checkpoints
// load cleanly for a traced resume of the same spec — and must be ignored
// and recomputed, or the resumed run would silently lose its trace files.
func TestResumeRejectsDifferentlyTracedCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	ckpt := &shard.CheckpointDir{Dir: t.TempDir()}
	untraced := tracedRequest(2)
	untraced.Trace = nil
	warm := shard.Coordinator{Executors: []shard.Executor{&shard.Local{Parallelism: 2}}, Checkpoints: ckpt}
	if _, err := warm.Run(context.Background(), untraced); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	resumed := shard.Coordinator{
		Executors:   []shard.Executor{&shard.Local{Parallelism: 2}},
		Checkpoints: ckpt,
		Resume:      true,
		Log:         &log,
	}
	m, err := resumed.Run(context.Background(), tracedRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "ignoring checkpoint") {
		t.Errorf("untraced checkpoints silently resumed into a traced run:\n%s", log.String())
	}
	want := dirSnapshot(t, captureUnsharded(t, tracedRequest(1)))
	out := t.TempDir()
	if _, err := m.WriteTraceDir(out); err != nil {
		t.Fatal(err)
	}
	requireSameDir(t, "traced resume", want, dirSnapshot(t, out))
}
