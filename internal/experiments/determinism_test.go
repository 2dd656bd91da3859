package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fadingcr/internal/obs"
)

// renderAll renders an experiment's tables to one string for comparison.
func renderAll(t *testing.T, id string, cfg Config) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("%s missing", id)
	}
	tables, err := e.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var b strings.Builder
	for _, tab := range tables {
		b.WriteString(tab.Text())
	}
	return b.String()
}

// TestParallelismInvariance is the determinism regression of the parallel
// Monte Carlo engine: for a representative experiment (E1 quick) the
// rendered result tables must be byte-identical at parallelism 1, 4, and 8
// for the same master seed. Every trial derives its randomness from
// (Seed, trial index) alone and results are reassembled in trial order, so
// parallelism must never change output.
func TestParallelismInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	base := Config{Seed: 42, Quick: true, Trials: 6}
	sequential := renderAll(t, "E1", Config{Seed: base.Seed, Quick: true, Trials: base.Trials, Parallelism: 1})
	for _, par := range []int{4, 8} {
		cfg := base
		cfg.Parallelism = par
		if got := renderAll(t, "E1", cfg); got != sequential {
			t.Errorf("E1 tables at parallelism %d differ from parallelism 1", par)
		}
	}
}

// TestParallelismInvarianceAcrossSuite spot-checks the converted
// per-experiment loops (analyzer traces, hitting games, paired embeddings,
// energy medians, capacity sweeps) at a second parallelism.
func TestParallelismInvarianceAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, id := range []string{"E4", "E6", "E14", "E15", "E16", "E18"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			seq := renderAll(t, id, Config{Seed: 11, Quick: true, Trials: 3, Parallelism: 1})
			par := renderAll(t, id, Config{Seed: 11, Quick: true, Trials: 3, Parallelism: 8})
			if seq != par {
				t.Errorf("%s tables differ between parallelism 1 and 8", id)
			}
		})
	}
}

// TestMetricsInvariance is the determinism regression of the observability
// layer: a representative experiment must render byte-identical tables with
// metrics recording plus an NDJSON report enabled versus all recording
// disabled. Instrumentation observes runs off the simulated-randomness path
// (DESIGN.md §8), so turning it on or off must never leak into results.
func TestMetricsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	cfg := Config{Seed: 42, Quick: true, Trials: 6}

	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(true) })
	withMetrics := renderAll(t, "E1", cfg)
	// Export a report mid-comparison, as a CLI -metrics run would.
	path := filepath.Join(t.TempDir(), "metrics.ndjson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Default.EmitTo(obs.NewSink(f)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("empty metrics report")
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("metrics line %d %q: %v", i+1, line, err)
		}
	}

	obs.SetEnabled(false)
	withoutMetrics := renderAll(t, "E1", cfg)
	obs.SetEnabled(true)

	if withMetrics != withoutMetrics {
		t.Error("E1 tables differ between metrics recording enabled and disabled")
	}
}
