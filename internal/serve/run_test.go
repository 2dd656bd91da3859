package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJobsPickTheirRoundWorkers: a sim job's body, with one trial or two,
// and an experiment job's are byte-identical at parallelism 1 and 2.
func TestJobsPickTheirRoundWorkers(t *testing.T) {
	sim := func(trials int) Spec {
		return Spec{Sim: &SimSpec{N: 64, Deploy: "disk", Algo: "fixed"}, Seed: 7, Trials: trials}
	}
	for _, c := range []struct {
		name string
		spec Spec
	}{
		{"one-trial sim", sim(1)},
		{"two-trial sim", sim(2)},
		{"experiment", Spec{Experiment: "E1", Quick: true, Trials: 2}},
	} {
		spec := c.spec.Normalized()
		sequential, err := runSpec(context.Background(), spec, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := runSpec(context.Background(), spec, 2, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
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
