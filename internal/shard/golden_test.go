package shard

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"fadingcr/internal/experiments"
)

// goldenRequest is the satellite spec the byte-identity goldens run: two
// real experiments (E1's scalar trial loops, E12's multi-column sweep) at
// quick scale.
func goldenRequest(shards int) Request {
	return Request{
		Spec:   experiments.Spec{IDs: "E1,E12", Quick: true, Trials: 2, Seed: 7},
		Shards: shards,
	}
}

// renderUnsharded runs the request's experiments directly (no sharding
// anywhere) and renders them exactly like crbench does.
func renderUnsharded(t *testing.T, req Request) string {
	t.Helper()
	selected, cfg, err := experiments.ConfigFromSpec(req.Spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Context = context.Background()
	var buf bytes.Buffer
	for _, e := range selected {
		tables, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if err := experiments.RenderTables(&buf, e, tables, false); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestGoldenShardedMatchesUnsharded is the tentpole's binding invariant:
// coordinator + assembler output is byte-identical to the unsharded run at
// shard counts 1, 3, and 8 over two local workers, and the merged aggregate
// hash is identical at every shard count.
func TestGoldenShardedMatchesUnsharded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	want := renderUnsharded(t, goldenRequest(1))
	hashes := map[string]int{}
	for _, shards := range []int{1, 3, 8} {
		req := goldenRequest(shards)
		coord := Coordinator{Executors: []Executor{
			&Local{ID: "w0", Parallelism: 2},
			&Local{ID: "w1", Parallelism: 2},
		}}
		m, err := coord.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		var buf bytes.Buffer
		if err := Assemble(context.Background(), &buf, req, m, false); err != nil {
			t.Fatalf("%d shards: assemble: %v", shards, err)
		}
		if got := buf.String(); got != want {
			t.Errorf("%d shards: output differs from unsharded:\n--- unsharded ---\n%s\n--- %d shards ---\n%s", shards, want, shards, got)
		}
		hashes[m.Hash()] = shards
	}
	if len(hashes) != 1 {
		t.Errorf("aggregate wire hash varies with shard count: %v", hashes)
	}
}

// failAfterExec wraps Local but fails every shard once the kill budget is
// spent, simulating a worker that dies partway through a run.
type failAfterExec struct {
	inner  *Local
	budget int
}

func (f *failAfterExec) Name() string { return "mortal" }

func (f *failAfterExec) RunShard(ctx context.Context, req Request, index int) ([]byte, error) {
	if f.budget <= 0 {
		return nil, fmt.Errorf("killed before shard %d", index)
	}
	f.budget--
	return f.inner.RunShard(ctx, req, index)
}

// TestGoldenKillAndResume kills the run after two shards, asserts the
// partial failure is surfaced with the exact missing shards, then resumes
// from the checkpoints with a healthy worker and requires byte-identical
// output and an identical aggregate hash to the unsharded run.
func TestGoldenKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	const shards = 5
	req := goldenRequest(shards)
	ckpt := &CheckpointDir{Dir: t.TempDir()}

	mortal := &failAfterExec{inner: &Local{Parallelism: 2}, budget: 2}
	first := Coordinator{
		Executors:   []Executor{mortal},
		Checkpoints: ckpt,
		Retries:     0,
		Backoff:     time.Millisecond,
	}
	_, err := first.Run(context.Background(), req)
	if err == nil {
		t.Fatal("killed run reported success")
	}
	if !strings.Contains(err.Error(), "3/5 shard(s) failed") || !strings.Contains(err.Error(), "killed before") {
		t.Fatalf("partial failure report:\n%v", err)
	}

	// The survivor's shards are checkpointed; a resumed run with a healthy
	// worker completes only the missing ones (the fake would fail them).
	resumed := Coordinator{
		Executors:   []Executor{&Local{Parallelism: 2}},
		Checkpoints: ckpt,
		Resume:      true,
	}
	m, err := resumed.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	var buf bytes.Buffer
	if err := Assemble(context.Background(), &buf, req, m, false); err != nil {
		t.Fatal(err)
	}
	if want := renderUnsharded(t, req); buf.String() != want {
		t.Errorf("kill-and-resume output differs from unsharded:\n--- unsharded ---\n%s\n--- resumed ---\n%s", want, buf.String())
	}

	// Cross-check the aggregate hash against an uninterrupted sharded run.
	clean := Coordinator{Executors: []Executor{&Local{Parallelism: 2}}}
	cm, err := clean.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if m.Hash() != cm.Hash() {
		t.Errorf("resumed hash %s != clean hash %s", m.Hash(), cm.Hash())
	}
}

// TestResumeRejectsDifferentlyTracedCheckpoints: a checkpoint that carries a
// trace bundle after its end line, as traced runs of wire schema 2 wrote
// them, does not decode, so a resumed run logs "ignoring checkpoint" for
// each such shard, recomputes it, and assembles the unsharded bytes.
func TestResumeRejectsDifferentlyTracedCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	const shards = 3
	req := goldenRequest(shards)
	ckpt := &CheckpointDir{Dir: t.TempDir()}
	warm := Coordinator{Executors: []Executor{&Local{Parallelism: 2}}, Checkpoints: ckpt}
	if _, err := warm.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		path := ckpt.path(shards, i)
		raw, err := os.ReadFile(path)
		if err == nil {
			err = os.WriteFile(path, append(raw, traceBundle...), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	var log bytes.Buffer
	resumed := Coordinator{
		Executors:   []Executor{&Local{Parallelism: 2}},
		Checkpoints: ckpt,
		Resume:      true,
		Log:         &log,
	}
	m, err := resumed.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for msg, want := range map[string]int{
		`"msg":"ignoring checkpoint"`:  shards,
		"trailing data after end line": shards,
		`"msg":"shard done"`:           shards,
		`"msg":"resumed shards`:        0,
	} {
		if got := strings.Count(log.String(), msg); got != want {
			t.Errorf("log holds %s %d times, want %d:\n%s", msg, got, want, log.String())
		}
	}
	var buf bytes.Buffer
	if err := Assemble(context.Background(), &buf, req, m, false); err != nil {
		t.Fatal(err)
	}
	if want := renderUnsharded(t, req); buf.String() != want {
		t.Errorf("resumed output differs from unsharded:\n--- unsharded ---\n%s\n--- resumed ---\n%s", want, buf.String())
	}
}
