package core

import (
	"strings"
	"testing"

	"fadingcr/internal/baselines"
	"fadingcr/internal/geom"
	"fadingcr/internal/sim"
)

func TestWithKnockoutName(t *testing.T) {
	w := WithKnockout{Inner: baselines.ProbabilitySweep{}}
	if got := w.Name(); !strings.Contains(got, "knockout(") || !strings.Contains(got, "sweep") {
		t.Errorf("Name = %q", got)
	}
}

func TestWithKnockoutBuildPanicsOnNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil inner accepted")
		}
	}()
	WithKnockout{}.Populate(2, 1)
}

func TestWithKnockoutSilencesAfterReception(t *testing.T) {
	k := WithKnockout{Inner: alwaysTx{}}.Populate(1, 1).(*knockoutPopulation)
	live, tx := []int{0}, []bool{false}
	if count, _ := k.Act(1, live, tx); count != 1 || !tx[0] {
		t.Fatal("fresh node did not run the inner protocol")
	}
	live = k.Hear(1, live, []int{-1}, sim.Unknown)
	if count, _ := k.Act(2, live, tx); count != 1 || !k.Active(0) {
		t.Fatal("empty reception silenced the node")
	}
	live = k.Hear(2, live, []int{5}, sim.Unknown)
	if k.Active(0) {
		t.Fatal("reception did not deactivate the node")
	}
	// A knocked-out node retires: it is never asked to act again.
	if len(live) != 0 {
		t.Fatal("knocked-out node stayed live")
	}
}

func TestWithKnockoutEquivalentToFixedProbability(t *testing.T) {
	// knockout(constant-p forever) is definitionally the paper's algorithm;
	// both must solve comparably on the same deployment.
	d, err := geom.UniformDisk(7, 64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sinrChannel(t, d), WithKnockout{Inner: constantP{}}, 3, sim.Config{MaxRounds: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("knockout(constant-p) unsolved: %+v", res)
	}
}

// constantP broadcasts with DefaultP forever (no knock-out of its own).
type constantP struct{}

func (constantP) Name() string { return "constant-p" }

// Populate strips the paper's algorithm of its built-in knock-out with a
// shim that ignores Hear.
func (constantP) Populate(n int, seed uint64) sim.Population {
	return deafShim{FixedProbability{}.Populate(n, seed)}
}

// deafShim forwards actions but drops receptions, turning the paper's
// algorithm back into memoryless constant-p broadcasting.
type deafShim struct{ sim.Population }

func (deafShim) Hear(_ int, live []int, _ []int, _ sim.Feedback) []int { return live }

func TestWithKnockoutAcceleratesSweepOnSINR(t *testing.T) {
	// The headline of E17 in miniature: on the fading channel, the sweep
	// with knock-out beats the plain sweep at n = 256.
	if testing.Short() {
		t.Skip("slow")
	}
	median := func(b sim.Builder) float64 {
		var rounds []int
		for trial := 0; trial < 11; trial++ {
			d, err := geom.UniformDisk(uint64(300+trial), 256)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(sinrChannel(t, d), b, uint64(trial), sim.Config{MaxRounds: 100000})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Solved {
				t.Fatalf("%s unsolved", b.Name())
			}
			rounds = append(rounds, res.Rounds)
		}
		for i := 1; i < len(rounds); i++ {
			for j := i; j > 0 && rounds[j] < rounds[j-1]; j-- {
				rounds[j], rounds[j-1] = rounds[j-1], rounds[j]
			}
		}
		return float64(rounds[len(rounds)/2])
	}
	plain := median(baselines.ProbabilitySweep{})
	knocked := median(WithKnockout{Inner: baselines.ProbabilitySweep{}})
	if knocked >= plain {
		t.Errorf("knockout(sweep) median %v not below plain sweep %v", knocked, plain)
	}
}
