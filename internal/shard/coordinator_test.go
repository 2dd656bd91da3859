package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeExec is an in-memory Executor producing structurally valid wire bytes
// (zero-loop results bound to the request hash), with scriptable failures.
type fakeExec struct {
	name string
	// fail, when non-nil, decides whether a given call errors.
	fail func(index int, call int) error
	// block, when true, parks every RunShard until ctx ends.
	block bool
	// started is closed on the first RunShard call when non-nil.
	started   chan struct{}
	startOnce sync.Once

	mu    sync.Mutex
	calls map[int]int // shard index → attempts on this executor
}

func (f *fakeExec) Name() string { return f.name }

func (f *fakeExec) RunShard(ctx context.Context, req Request, index int) ([]byte, error) {
	if f.started != nil {
		f.startOnce.Do(func() { close(f.started) })
	}
	f.mu.Lock()
	if f.calls == nil {
		f.calls = map[int]int{}
	}
	f.calls[index]++
	call := f.calls[index]
	f.mu.Unlock()
	if f.block {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if f.fail != nil {
		if err := f.fail(index, call); err != nil {
			return nil, err
		}
	}
	res := &Result{SpecHash: RequestHash(req), Shards: req.Shards, Index: index, Seed: req.Spec.Seed}
	return res.Bytes()
}

func (f *fakeExec) attempts(index int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[index]
}

func (f *fakeExec) totalCalls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.calls {
		n += c
	}
	return n
}

func TestCoordinatorRunsEveryShardOnce(t *testing.T) {
	req := quickRequest(5)
	a := &fakeExec{name: "a"}
	b := &fakeExec{name: "b"}
	coord := Coordinator{Executors: []Executor{a, b}}
	m, err := coord.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 5 || m.SpecHash != RequestHash(req) {
		t.Errorf("merged header: %+v", m)
	}
	for i := 0; i < 5; i++ {
		if got := a.attempts(i) + b.attempts(i); got != 1 {
			t.Errorf("shard %d ran %d times, want 1", i, got)
		}
	}
}

func TestCoordinatorRetriesTransientFailures(t *testing.T) {
	req := quickRequest(3)
	flaky := &fakeExec{name: "flaky", fail: func(index, call int) error {
		if call == 1 {
			return fmt.Errorf("transient %d", index)
		}
		return nil
	}}
	coord := Coordinator{Executors: []Executor{flaky}, Retries: 2, Backoff: time.Millisecond}
	if _, err := coord.Run(context.Background(), req); err != nil {
		t.Fatalf("retriable failures not recovered: %v", err)
	}
	for i := 0; i < 3; i++ {
		if got := flaky.attempts(i); got != 2 {
			t.Errorf("shard %d attempted %d times, want 2", i, got)
		}
	}
}

func TestCoordinatorPartialFailureListsShards(t *testing.T) {
	req := quickRequest(4)
	broken := &fakeExec{name: "broken", fail: func(index, call int) error {
		if index >= 2 {
			return errors.New("disk on fire")
		}
		return nil
	}}
	coord := Coordinator{Executors: []Executor{broken}, Retries: 0, Backoff: time.Millisecond}
	_, err := coord.Run(context.Background(), req)
	if err == nil {
		t.Fatal("partial failure not surfaced")
	}
	msg := err.Error()
	for _, want := range []string{"2/4 shard(s) failed", "shard 2:", "shard 3:", "broken", "disk on fire"} {
		if !strings.Contains(msg, want) {
			t.Errorf("failure report missing %q:\n%s", want, msg)
		}
	}
}

// TestCoordinatorRedispatchesStragglers pins the dead-worker recovery path:
// an executor that hangs on its claimed shard must not stall the run — once
// its attempt times out, the healthy executor takes the shard over and
// finishes it.
func TestCoordinatorRedispatchesStragglers(t *testing.T) {
	req := quickRequest(3)
	dead := &fakeExec{name: "dead", block: true, started: make(chan struct{})}
	live := &fakeExec{name: "live", fail: func(index, call int) error {
		// Hold the first result until the dead executor has certainly
		// claimed (and is hanging on) some shard, so the re-dispatch path
		// is exercised deterministically.
		<-dead.started
		return nil
	}}
	coord := Coordinator{
		Executors:    []Executor{dead, live},
		Retries:      0,
		Backoff:      time.Millisecond,
		ShardTimeout: 50 * time.Millisecond,
	}
	m, err := coord.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("dead executor stalled the run: %v", err)
	}
	if m.Shards != 3 {
		t.Errorf("merged %d shards, want 3", m.Shards)
	}
	if live.totalCalls() < 3 {
		t.Errorf("live executor ran %d shards, want all 3", live.totalCalls())
	}
	if dead.totalCalls() < 1 {
		t.Error("dead executor never claimed a shard; straggler path untested")
	}
}

func TestCoordinatorInvalidResultBytesAreRejected(t *testing.T) {
	req := quickRequest(2)
	// An executor whose bytes decode but belong to a different run must be
	// treated as a failure, not merged.
	var liar liarExec
	coord := Coordinator{Executors: []Executor{&liar}, Retries: 0, Backoff: time.Millisecond}
	_, err := coord.Run(context.Background(), req)
	if err == nil || !strings.Contains(err.Error(), "result is for run") {
		t.Errorf("foreign result accepted: %v", err)
	}
}

type liarExec struct{}

func (liarExec) Name() string { return "liar" }
func (liarExec) RunShard(_ context.Context, req Request, index int) ([]byte, error) {
	res := &Result{SpecHash: "0000dead0000", Shards: req.Shards, Index: index, Seed: req.Spec.Seed}
	return res.Bytes()
}

func TestCoordinatorResumeSkipsCheckpointedShards(t *testing.T) {
	req := quickRequest(3)
	dir := t.TempDir()
	ckpt := &CheckpointDir{Dir: dir}

	// First run writes checkpoints for every shard.
	first := &fakeExec{name: "first"}
	coord := Coordinator{Executors: []Executor{first}, Checkpoints: ckpt}
	if _, err := coord.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "shard-*.ndjson"))
	if len(files) != 3 {
		t.Fatalf("checkpoint dir holds %d files, want 3", len(files))
	}

	// Drop one checkpoint: the resumed run must recompute exactly that shard.
	if err := os.Remove(ckpt.path(3, 1)); err != nil {
		t.Fatal(err)
	}
	second := &fakeExec{name: "second"}
	resumeCoord := Coordinator{Executors: []Executor{second}, Checkpoints: ckpt, Resume: true}
	if _, err := resumeCoord.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if second.attempts(0) != 0 || second.attempts(2) != 0 {
		t.Error("resume recomputed checkpointed shards")
	}
	if second.attempts(1) != 1 {
		t.Errorf("resume ran the missing shard %d times, want 1", second.attempts(1))
	}
}

func TestCoordinatorResumeIgnoresForeignCheckpoints(t *testing.T) {
	req := quickRequest(2)
	dir := t.TempDir()
	ckpt := &CheckpointDir{Dir: dir}
	// A checkpoint from a different run (wrong spec hash) in the right slot.
	foreign := &Result{SpecHash: "feedfacecafe", Shards: 2, Index: 0, Seed: 1}
	raw, err := foreign.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Store(2, 0, raw); err != nil {
		t.Fatal(err)
	}
	// And a plainly corrupt one in the other slot.
	if err := ckpt.Store(2, 1, []byte("not a wire stream\n")); err != nil {
		t.Fatal(err)
	}

	exec := &fakeExec{name: "exec"}
	var log strings.Builder
	coord := Coordinator{Executors: []Executor{exec}, Checkpoints: ckpt, Resume: true, Log: &log}
	if _, err := coord.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if exec.attempts(0) != 1 || exec.attempts(1) != 1 {
		t.Errorf("foreign/corrupt checkpoints not recomputed: attempts %d/%d", exec.attempts(0), exec.attempts(1))
	}
	if !strings.Contains(log.String(), "ignoring checkpoint") {
		t.Errorf("bad checkpoints not surfaced in the log:\n%s", log.String())
	}
}

func TestCoordinatorWithoutResumeIgnoresExistingCheckpoints(t *testing.T) {
	req := quickRequest(2)
	dir := t.TempDir()
	ckpt := &CheckpointDir{Dir: dir}
	warm := &fakeExec{name: "warm"}
	coord := Coordinator{Executors: []Executor{warm}, Checkpoints: ckpt}
	if _, err := coord.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	cold := &fakeExec{name: "cold"}
	again := Coordinator{Executors: []Executor{cold}, Checkpoints: ckpt} // Resume unset
	if _, err := again.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if cold.totalCalls() != 2 {
		t.Errorf("non-resume run executed %d shards, want 2 (checkpoints must be opt-in reads)", cold.totalCalls())
	}
}

func TestCoordinatorContextCancellation(t *testing.T) {
	req := quickRequest(2)
	hang := &fakeExec{name: "hang", block: true}
	coord := Coordinator{Executors: []Executor{hang}, Retries: 0}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := coord.Run(ctx, req)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled coordinator never returned")
	}
}

func TestCoordinatorRequiresExecutors(t *testing.T) {
	coord := Coordinator{}
	if _, err := coord.Run(context.Background(), quickRequest(2)); err == nil || !strings.Contains(err.Error(), "no executors") {
		t.Errorf("executorless run: %v", err)
	}
}
