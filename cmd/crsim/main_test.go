package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"fadingcr/internal/obs"
)

func TestRunDefaults(t *testing.T) {
	if err := run([]string{"-n", "32", "-seed", "3"}); err != nil {
		t.Fatalf("default run: %v", err)
	}
}

// TestRunSpreadsRoundsOverCores: crsim's SINR rounds spread their
// listener tiles over the cores, and its stdout is byte-identical at
// GOMAXPROCS 1 and 2, unfaded and faded, with one trial and two; the
// rounds whose listeners span two tiles, which sinr.deliveries_parallel
// counts, are the same at both.
func TestRunSpreadsRoundsOverCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	parallelRounds := obs.Default.Counter("sinr.deliveries_parallel")
	for _, args := range [][]string{
		{"-n", "4500", "-seed", "3"},
		{"-n", "4500", "-seed", "3", "-trials", "2"},
		{"-n", "4500", "-seed", "5", "-channel", "rayleigh"},
	} {
		var outs [2][]byte
		var rounds [2]int64
		for i, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			before := parallelRounds.Load()
			outs[i] = runCapturingStdout(t, args)
			rounds[i] = parallelRounds.Load() - before
		}
		if string(outs[0]) != string(outs[1]) {
			t.Errorf("crsim %v: stdout differs between GOMAXPROCS 1 and 2:\n%s\n---\n%s", args, outs[0], outs[1])
		}
		if rounds[0] == 0 || rounds[0] != rounds[1] {
			t.Errorf("crsim %v: %d and %d rounds spanned two tiles at GOMAXPROCS 1 and 2, want the same, and some", args, rounds[0], rounds[1])
		}
	}
}

func TestRunAllDeployments(t *testing.T) {
	for _, deploy := range []string{"disk", "square", "grid", "clusters", "chain", "pairs"} {
		if err := run([]string{"-n", "24", "-deploy", deploy}); err != nil {
			t.Errorf("deploy %s: %v", deploy, err)
		}
	}
	if err := run([]string{"-deploy", "nope"}); err == nil {
		t.Error("unknown deployment accepted")
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	for _, algo := range []string{"fixed", "sweep", "decay", "backoff", "dampened", "interleaved", "knockout-sweep", "staggered"} {
		if err := run([]string{"-n", "16", "-algo", algo, "-channel", "radio"}); err != nil {
			t.Errorf("algo %s: %v", algo, err)
		}
	}
	if err := run([]string{"-n", "16", "-algo", "cdhalving", "-channel", "radio-cd"}); err != nil {
		t.Errorf("cdhalving: %v", err)
	}
	if err := run([]string{"-algo", "nope"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestRunChannels(t *testing.T) {
	for _, ch := range []string{"sinr", "rayleigh", "radio"} {
		if err := run([]string{"-n", "16", "-channel", ch}); err != nil {
			t.Errorf("channel %s: %v", ch, err)
		}
	}
	if err := run([]string{"-channel", "nope"}); err == nil {
		t.Error("unknown channel accepted")
	}
}

func TestRunWritesCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := run([]string{"-n", "16", "-csv", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "round,transmitters,receptions,active") {
		t.Errorf("CSV header missing: %q", string(data[:min(len(data), 60)]))
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestRunDeployFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pts.csv")
	if err := os.WriteFile(path, []byte("x,y\n0,0\n1,0\n0,3\n8,8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-deploy-file", path}); err != nil {
		t.Fatalf("deploy-file run: %v", err)
	}
	if err := run([]string{"-deploy-file", filepath.Join(t.TempDir(), "missing.csv")}); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte("x,y\n1,2\nbroken,row\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-deploy-file", bad}); err == nil {
		t.Error("malformed file accepted")
	}
}

func TestRunTrialsSummary(t *testing.T) {
	if err := run([]string{"-n", "16", "-trials", "5", "-seed", "8"}); err != nil {
		t.Fatalf("trials run: %v", err)
	}
}

func TestRunPlotAndMaxRounds(t *testing.T) {
	if err := run([]string{"-n", "24", "-plot", "-max-rounds", "500"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRadioCDChannel(t *testing.T) {
	if err := run([]string{"-n", "16", "-channel", "radio-cd", "-algo", "cdhalving"}); err != nil {
		t.Fatal(err)
	}
}

func TestMainExitCodes(t *testing.T) {
	// The shared convention (internal/cli): 0 for -h/-help and success,
	// 2 for misuse (unknown flags or invalid flag values), 1 for runtime
	// failures.
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"help short", []string{"-h"}, 0},
		{"help long", []string{"-help"}, 0},
		{"success", []string{"-n", "16", "-seed", "3"}, 0},
		{"bad flag", []string{"-definitely-not-a-flag"}, 2},
		{"bad deploy", []string{"-deploy", "nope"}, 2},
		{"bad algo", []string{"-algo", "nope"}, 2},
		{"bad channel", []string{"-channel", "nope"}, 2},
		{"missing deploy file", []string{"-deploy-file", "/no/such/file.csv"}, 1},
		{"bad trace format", []string{"-n", "16", "-trace-format", "xml"}, 2},
		{"bad trace format with dir", []string{"-n", "16", "-trials", "2", "-trace-format", "xml", "-trace-dir", t.TempDir()}, 2},
	}
	for _, tc := range cases {
		if got := mainExitCode(tc.args); got != tc.want {
			t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestRunWritesMetricsAndProfiles(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.ndjson")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	err := run([]string{"-n", "24", "-seed", "5",
		"-metrics", metrics, "-cpuprofile", cpu, "-memprofile", mem})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("metrics report has %d lines, want a run header plus metric events:\n%s", len(lines), data)
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("metrics line %d %q: %v", i+1, line, err)
		}
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["event"] != "run" || first["cmd"] != "crsim" {
		t.Errorf("header = %v, want a crsim run event", first)
	}
	if !strings.Contains(string(data), `"name":"sim.rounds"`) ||
		!strings.Contains(string(data), `"name":"sinr.deliveries"`) {
		t.Error("report missing the sim.rounds / sinr.deliveries metrics")
	}
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}
