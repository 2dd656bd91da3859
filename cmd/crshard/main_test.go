package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fadingcr/internal/experiments"
)

// TestRunShardedMatchesUnsharded: crshard's tables are byte for byte the
// unsharded render crbench prints, at any shard and local worker count.
func TestRunShardedMatchesUnsharded(t *testing.T) {
	spec := []string{"-ids", "E2,E5", "-quick", "-trials", "2", "-seed", "9"}
	selected, cfg, err := experiments.ConfigFromSpec(experiments.Spec{IDs: "E2,E5", Quick: true, Trials: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, e := range selected {
		tables, err := e.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := experiments.RenderTables(&want, e, tables, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, extra := range [][]string{{"-shards", "1"}, {"-shards", "3"}, {"-shards", "3", "-workers", "2"}} {
		var got strings.Builder
		if err := run(append(append([]string(nil), spec...), extra...), &got); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("crshard %v output differs from the unsharded render:\n--- unsharded ---\n%s\n--- crshard ---\n%s", extra, want.String(), got.String())
		}
	}
}

func TestRunLocalWorkers(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-ids", "E5", "-quick", "-trials", "2", "-seed", "9", "-shards", "3", "-workers", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"==== E5", "Claim:"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunCheckpointThenResume(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-ids", "E5", "-quick", "-trials", "2", "-seed", "9", "-shards", "3", "-checkpoint-dir", dir}
	var first strings.Builder
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "shard-*.ndjson")); len(files) != 3 {
		t.Fatalf("checkpoint dir holds %d files, want 3", len(files))
	}
	var resumed strings.Builder
	if err := run(append(args, "-resume"), &resumed); err != nil {
		t.Fatal(err)
	}
	if first.String() != resumed.String() {
		t.Error("resumed output differs from the original run")
	}
}

func TestRunWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	var out strings.Builder
	if err := run([]string{"-ids", "E5", "-quick", "-trials", "2", "-shards", "2", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "==== E5") {
		t.Error("file output missing experiment header")
	}
	if out.Len() != 0 {
		t.Errorf("stdout not empty when -o is set: %q", out.String())
	}
}

func TestMainExitCodes(t *testing.T) {
	// Same convention as crbench (internal/cli): 0 for help and success,
	// 2 for misuse, 1 for runtime failures.
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"help short", []string{"-h"}, 0},
		{"help long", []string{"-help"}, 0},
		{"success", []string{"-ids", "E5", "-quick", "-trials", "2", "-shards", "2"}, 0},
		{"bad flag", []string{"-definitely-not-a-flag"}, 2},
		{"bad id", []string{"-ids", "E999"}, 2},
		{"bad format", []string{"-format", "pdf"}, 2},
		{"zero shards", []string{"-ids", "E5", "-shards", "0"}, 2},
		{"resume without dir", []string{"-ids", "E5", "-resume"}, 2},
		{"negative workers", []string{"-ids", "E5", "-shards", "2", "-workers", "-1"}, 2},
		// crshard captures no traces, spans or fleet metrics: each retired
		// flag is a usage error, not a run that silently skips it.
		{"trace dir", []string{"-ids", "E5", "-quick", "-trials", "2", "-trace-dir", t.TempDir()}, 2},
		{"span log", []string{"-ids", "E5", "-quick", "-trials", "2", "-span-log", filepath.Join(t.TempDir(), "spans.ndjson")}, 2},
		{"metrics fleet", []string{"-metrics-fleet", "-endpoints", "http://127.0.0.1:1"}, 2},
		{"unreachable endpoint", []string{"-ids", "E5", "-quick", "-trials", "2", "-shards", "2",
			"-endpoints", "http://127.0.0.1:1", "-retries", "0", "-backoff", "1ms"}, 1},
	}
	for _, tc := range cases {
		if got := mainExitCode(tc.args); got != tc.want {
			t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.want)
		}
	}
}
