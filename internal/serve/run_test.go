package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fadingcr/internal/obs"
)

// TestJobsPickTheirRoundWorkers: the runner gives a one-trial sim job's lone
// trial one goroutine, so the job spreads its SINR rounds over its
// parallelism instead, with the body unchanged; a two-trial sim job and an
// experiment job spread trials and keep the sequential engine.
func TestJobsPickTheirRoundWorkers(t *testing.T) {
	parallelRounds := obs.Default.Counter("sinr.deliveries_parallel")
	sim := func(trials int) Spec {
		return Spec{Sim: &SimSpec{N: 64, Deploy: "disk", Algo: "fixed"}, Seed: 7, Trials: trials}
	}
	for _, c := range []struct {
		name     string
		spec     Spec
		parallel bool
	}{
		{"one-trial sim", sim(1), true},
		{"two-trial sim", sim(2), false},
		{"experiment", Spec{Experiment: "E1", Quick: true, Trials: 2}, false},
	} {
		spec := c.spec.Normalized()
		sequential, err := runSpec(context.Background(), spec, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		before := parallelRounds.Load()
		res, err := runSpec(context.Background(), spec, 2, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := parallelRounds.Load() - before; (got > 0) != c.parallel {
			t.Errorf("%s at parallelism 2: sinr.deliveries_parallel moved by %d, want parallel rounds %v", c.name, got, c.parallel)
		}
		if !bytes.Equal(res.Body, sequential.Body) {
			t.Errorf("%s: body differs between parallelism 1 and 2", c.name)
		}
	}
}

// TestSimJobTraceBodyGolden pins the body of a traced sim job byte for
// byte (testdata/sim-trace.json).
func TestSimJobTraceBodyGolden(t *testing.T) {
	spec, err := DecodeSpec(strings.NewReader(`{"sim":{"n":64,"deploy":"disk","algo":"fixed"},"seed":7,"trace":true}`))
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := runSpec(context.Background(), spec, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "sim-trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body, want) {
		t.Errorf("traced sim job body differs from testdata/sim-trace.json:\n%s", res.Body)
	}
}
