package core

import (
	"math"
	"strings"
	"testing"

	"fadingcr/internal/geom"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
)

// sinrChannel builds a single-hop SINR channel over the deployment with the
// repository's default physical constants.
func sinrChannel(t *testing.T, d *geom.Deployment) *sinr.Channel {
	t.Helper()
	params := sinr.Params{Alpha: 3, Beta: 1.5, Noise: 1}
	params.Power = sinr.MinSingleHopPower(params.Alpha, params.Beta, params.Noise, d.R, sinr.DefaultSingleHopMargin)
	ch, err := sinr.New(params, d.Points)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestFixedProbabilityName(t *testing.T) {
	if got := (FixedProbability{}).Name(); !strings.Contains(got, "0.2") {
		t.Errorf("Name = %q, want default p mentioned", got)
	}
	if got := (FixedProbability{P: 0.5}).Name(); !strings.Contains(got, "0.5") {
		t.Errorf("Name = %q, want p=0.5 mentioned", got)
	}
}

func TestFixedProbabilityBuildPanicsOnBadP(t *testing.T) {
	for _, p := range []float64{-0.1, 1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("p=%v: no panic", p)
				}
			}()
			FixedProbability{P: p}.Populate(3, 1)
		}()
	}
}

func TestFixedProbabilityNodeKnockout(t *testing.T) {
	pop := FixedProbability{P: 0.5}.Populate(1, 7).(*fixedPopulation)
	if !pop.Active(0) {
		t.Fatal("node starts inactive")
	}
	live := pop.Hear(1, []int{0}, []int{-1}, sim.Unknown)
	if !pop.Active(0) || len(live) != 1 {
		t.Error("hearing nothing deactivated the node")
	}
	live = pop.Hear(2, live, []int{3}, sim.Unknown)
	if pop.Active(0) {
		t.Error("receiving a message did not deactivate the node")
	}
	if len(live) != 0 {
		t.Error("knocked-out node did not retire")
	}
	// An inactive node never transmits again.
	tx := []bool{false}
	for r := 3; r < 200; r++ {
		if count, _ := pop.Act(r, []int{0}, tx); count != 0 || tx[0] {
			t.Fatal("inactive node transmitted")
		}
	}
}

func TestFixedProbabilityTransmitRate(t *testing.T) {
	pop := FixedProbability{P: 0.25}.Populate(1, 3)
	live, tx := []int{0}, []bool{false}
	hits := 0
	const rounds = 20000
	for r := 1; r <= rounds; r++ {
		if count, _ := pop.Act(r, live, tx); count == 1 {
			hits++
		}
	}
	rate := float64(hits) / rounds
	if rate < 0.22 || rate > 0.28 {
		t.Errorf("empirical transmit rate %v far from 0.25", rate)
	}
}

func TestFixedProbabilitySolvesOnSINR(t *testing.T) {
	for _, n := range []int{2, 4, 16, 64, 256} {
		d, err := geom.UniformDisk(uint64(n), n)
		if err != nil {
			t.Fatal(err)
		}
		ch := sinrChannel(t, d)
		res, err := sim.Run(ch, FixedProbability{}, 99, sim.Config{MaxRounds: 4000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Solved {
			t.Errorf("n=%d: unsolved after %d rounds", n, res.Rounds)
			continue
		}
		if res.Winner < 0 || res.Winner >= n {
			t.Errorf("n=%d: winner %d out of range", n, res.Winner)
		}
	}
}

func TestFixedProbabilitySolvesOnChain(t *testing.T) {
	d, err := geom.ExponentialChain(3, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	ch := sinrChannel(t, d)
	res, err := sim.Run(ch, FixedProbability{}, 5, sim.Config{MaxRounds: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Errorf("chain deployment unsolved after %d rounds", res.Rounds)
	}
}

func TestFixedProbabilityDeterministic(t *testing.T) {
	d, err := geom.UniformDisk(11, 50)
	if err != nil {
		t.Fatal(err)
	}
	run := func() sim.Result {
		res, err := sim.Run(sinrChannel(t, d), FixedProbability{}, 1234, sim.Config{MaxRounds: 4000})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
	c, err := sim.Run(sinrChannel(t, d), FixedProbability{}, 1235, sim.Config{MaxRounds: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Log("different seeds produced identical results (possible but unlikely)")
	}
}

func TestFixedProbabilityNodesIndependent(t *testing.T) {
	// Two nodes built from one seed must not mirror each other's coin flips.
	pop := FixedProbability{P: 0.5}.Populate(2, 42)
	live, tx := []int{0, 1}, make([]bool, 2)
	same := 0
	const rounds = 200
	for r := 1; r <= rounds; r++ {
		pop.Act(r, live, tx)
		if tx[0] == tx[1] {
			same++
		}
	}
	if same > rounds*3/4 || same < rounds/4 {
		t.Errorf("nodes agreed on %d/%d rounds; streams look correlated", same, rounds)
	}
}

func TestFixedProbabilityScalingShape(t *testing.T) {
	// Theorem 1 sanity: median rounds for n=256 should be well below the
	// classical log²n budget and grow slowly: compare n=16 vs n=256 — the
	// ratio of medians should be far below the ratio 256/16 = 16 (it should
	// be ~log(256)/log(16) = 2).
	if testing.Short() {
		t.Skip("scaling shape test is slow")
	}
	median := func(n int) float64 {
		var rounds []int
		for trial := 0; trial < 21; trial++ {
			d, err := geom.UniformDisk(uint64(100+trial), n)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(sinrChannel(t, d), FixedProbability{}, uint64(trial), sim.Config{MaxRounds: 10000})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Solved {
				t.Fatalf("n=%d trial %d unsolved", n, trial)
			}
			rounds = append(rounds, res.Rounds)
		}
		// insertion sort; tiny slice
		for i := 1; i < len(rounds); i++ {
			for j := i; j > 0 && rounds[j] < rounds[j-1]; j-- {
				rounds[j], rounds[j-1] = rounds[j-1], rounds[j]
			}
		}
		return float64(rounds[len(rounds)/2])
	}
	m16, m256 := median(16), median(256)
	if ratio := m256 / m16; ratio > 8 {
		t.Errorf("median rounds n=256/n=16 = %v/%v (ratio %v); growth looks super-logarithmic", m256, m16, ratio)
	}
	if m256 > 40*math.Log2(256) {
		t.Errorf("median rounds at n=256 is %v, far above C·log n", m256)
	}
}
