package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fadingcr/internal/core"
	"fadingcr/internal/geom"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
	"fadingcr/internal/trace"
)

// writeTrace runs one traced execution and writes it under dir.
func writeTrace(t *testing.T, dir, name string, f trace.Format, deploySeed, protoSeed uint64) string {
	t.Helper()
	const n = 10
	d, err := geom.UniformDisk(deploySeed, n)
	if err != nil {
		t.Fatal(err)
	}
	params := sinr.Params{Alpha: 3, Beta: 1.5, Noise: 1}
	params.Power = sinr.MinSingleHopPower(params.Alpha, params.Beta, params.Noise, d.R, sinr.DefaultSingleHopMargin)
	ch, err := sinr.New(params, d.Points)
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{PerNode: true, Classes: true}
	rec.Header = trace.Header{
		Schema: trace.SchemaVersion, Cmd: "crtrace_test", N: n,
		Seed: protoSeed, DeploySeed: deploySeed,
		Algo: "fixedprob", Channel: "sinr", MaxRounds: 2000, Points: d.Points,
	}
	trace.Attach(rec, ch)
	if _, err := sim.Run(ch, core.FixedProbability{}, protoSeed, sim.Config{MaxRounds: 2000, Tracer: rec}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Write(&rec.Trace, out); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSummary(t *testing.T) {
	dir := t.TempDir()
	a := writeTrace(t, dir, "a.ndjson", trace.FormatNDJSON, 3, 7)
	b := writeTrace(t, dir, "b.crtrace", trace.FormatBinary, 3, 8)
	var out, errw strings.Builder
	if code := run([]string{"summary", a, b}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"traces    2", "solved", "rounds", "energy"} {
		if !strings.Contains(got, want) {
			t.Errorf("summary output missing %q:\n%s", want, got)
		}
	}
}

func TestDiffIdenticalAndDivergent(t *testing.T) {
	dir := t.TempDir()
	a := writeTrace(t, dir, "a.ndjson", trace.FormatNDJSON, 5, 11)
	b := writeTrace(t, dir, "b.crtrace", trace.FormatBinary, 5, 11)
	c := writeTrace(t, dir, "c.ndjson", trace.FormatNDJSON, 5, 12)

	var out, errw strings.Builder
	if code := run([]string{"diff", a, b}, &out, &errw); code != 0 {
		t.Fatalf("same-seed diff exit %d: %s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "identical") {
		t.Errorf("diff output = %q", out.String())
	}

	out.Reset()
	if code := run([]string{"diff", a, c}, &out, &errw); code != 1 {
		t.Fatalf("divergent diff exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "diverge") {
		t.Errorf("diff output = %q", out.String())
	}
}

func TestRender(t *testing.T) {
	dir := t.TempDir()
	a := writeTrace(t, dir, "a.ndjson", trace.FormatNDJSON, 2, 9)
	var out, errw strings.Builder
	if code := run([]string{"render", a}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"deployment:", "transmitters", "result:", "link classes"} {
		if !strings.Contains(got, want) {
			t.Errorf("render output missing %q:\n%s", want, got)
		}
	}
}

func TestUsageAndErrors(t *testing.T) {
	var out, errw strings.Builder
	if code := run(nil, &out, &errw); code != 2 {
		t.Errorf("no-args exit %d, want 2", code)
	}
	if code := run([]string{"-h"}, &out, &errw); code != 0 {
		t.Errorf("-h exit %d, want 0", code)
	}
	if code := run([]string{"bogus"}, &out, &errw); code != 2 {
		t.Errorf("unknown command exit %d, want 2", code)
	}
	if code := run([]string{"diff", "only-one"}, &out, &errw); code != 2 {
		t.Errorf("diff arity exit %d, want 2", code)
	}
	if code := run([]string{"summary", filepath.Join(t.TempDir(), "missing.ndjson")}, &out, &errw); code != 1 {
		t.Errorf("missing file exit %d, want 1", code)
	}
	errw.Reset()
	if code := run([]string{"summary", "-h"}, &out, &errw); code != 0 {
		t.Errorf("summary -h exit %d, want 0", code)
	}
	if !strings.Contains(errw.String(), "width") {
		t.Errorf("summary -h printed no flag usage: %q", errw.String())
	}
}
