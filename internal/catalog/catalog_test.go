package catalog

import (
	"testing"

	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
)

func TestEveryListedDeploymentBuilds(t *testing.T) {
	for _, kind := range Deployments() {
		d, err := Deployment(kind, 7, 32)
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if d.N() < 32 && kind != "chain" {
			t.Errorf("%s: only %d nodes for n=32", kind, d.N())
		}
	}
	if _, err := Deployment("nope", 7, 32); err == nil {
		t.Error("unknown deployment accepted")
	}
}

func TestDeploymentIsSeedDeterministic(t *testing.T) {
	a, err := Deployment("disk", 42, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Deployment("disk", 42, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs across same-seed builds: %v vs %v", i, a.Points[i], b.Points[i])
		}
	}
}

func TestEveryListedAlgorithmBuilds(t *testing.T) {
	for _, algo := range Algorithms() {
		b, err := Builder(algo, 0, 32)
		if err != nil {
			t.Errorf("%s: %v", algo, err)
			continue
		}
		if b.Name() == "" {
			t.Errorf("%s: empty builder name", algo)
		}
	}
	if _, err := Builder("nope", 0, 32); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestEveryListedChannelBuildsAndRuns(t *testing.T) {
	d, err := Deployment("disk", 7, 16)
	if err != nil {
		t.Fatal(err)
	}
	params := sinr.DefaultParams()
	params.Power = sinr.MinSingleHopPower(params.Alpha, params.Beta, params.Noise, d.R, sinr.DefaultSingleHopMargin)
	for _, kind := range Channels() {
		bc, err := Channel(kind, params, d, 99)
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if got := bc.CollisionDetection; got != (kind == "radio-cd") {
			t.Errorf("%s: CollisionDetection = %v", kind, got)
		}
		if sc, ok := bc.Channel.(*sinr.Channel); ok != (kind == "sinr" || kind == "rayleigh") || ok && sc.Faded() != (kind == "rayleigh") {
			t.Errorf("%s: built %T", kind, bc.Channel)
		}
		algo := "fixed"
		if kind == "radio-cd" {
			algo = "cdhalving"
		}
		builder, err := Builder(algo, 0, d.N())
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{MaxRounds: DefaultMaxRounds(d.N()), CollisionDetection: bc.CollisionDetection}
		if _, err := sim.Run(bc.Channel, builder, 5, cfg); err != nil {
			t.Errorf("%s: run: %v", kind, err)
		}
	}
	if _, err := Channel("nope", params, d, 99); err == nil {
		t.Error("unknown channel accepted")
	}
}

func TestDefaultMaxRoundsGrowsWithN(t *testing.T) {
	if a, b := DefaultMaxRounds(16), DefaultMaxRounds(1<<16); a >= b {
		t.Errorf("budget not growing: n=16 → %d, n=65536 → %d", a, b)
	}
	if DefaultMaxRounds(1) < 2000 {
		t.Errorf("budget below floor: %d", DefaultMaxRounds(1))
	}
}
