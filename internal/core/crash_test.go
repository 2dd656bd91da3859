package core

import (
	"strings"
	"testing"

	"fadingcr/internal/geom"
	"fadingcr/internal/sim"
)

func TestCrashFaultsName(t *testing.T) {
	c := CrashFaults{Inner: FixedProbability{}, Rate: 0.01}
	if got := c.Name(); !strings.Contains(got, "crash(") || !strings.Contains(got, "0.01") {
		t.Errorf("Name = %q", got)
	}
}

func TestCrashFaultsBuildPanics(t *testing.T) {
	for _, c := range []CrashFaults{
		{Inner: nil, Rate: 0.1},
		{Inner: FixedProbability{}, Rate: -0.1},
		{Inner: FixedProbability{}, Rate: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v did not panic", c)
				}
			}()
			c.Populate(2, 1)
		}()
	}
}

func TestCrashFaultsZeroRateTransparent(t *testing.T) {
	// Rate 0: behaviour equals the inner protocol; the run must solve.
	d, err := geom.UniformDisk(3, 48)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sinrChannel(t, d), CrashFaults{Inner: FixedProbability{}, Rate: 0}, 5,
		sim.Config{MaxRounds: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("rate-0 crash wrapper unsolved: %+v", res)
	}
}

func TestCrashFaultsNodeStopsForever(t *testing.T) {
	c := CrashFaults{Inner: alwaysTx{}, Rate: 0.5}.Populate(1, 9).(*crashPopulation)
	live, tx := []int{0}, []bool{false}
	for r := 1; r <= 200 && !c.crashed[0]; r++ {
		c.Act(r, live, tx)
		if c.crashed[0] && tx[0] {
			t.Fatal("crashed node transmitted")
		}
		live = c.Hear(r, live, []int{-1}, sim.Unknown)
	}
	if !c.crashed[0] {
		t.Fatal("node never crashed at rate 0.5 over 200 rounds")
	}
	if c.Active(0) {
		t.Error("crashed node reports active")
	}
	// Once crashed, forever silent: the node retires.
	if len(live) != 0 {
		t.Error("crashed node stayed live")
	}
}

func TestCrashFaultsAlgorithmSurvivesErosion(t *testing.T) {
	// 1% per-round crash rate at n=128: the algorithm must still solve in
	// the great majority of trials (the field erodes, contention drops, a
	// survivor transmits alone).
	solved := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		d, err := geom.UniformDisk(uint64(40+trial), 128)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sinrChannel(t, d),
			CrashFaults{Inner: FixedProbability{}, Rate: 0.01}, uint64(trial),
			sim.Config{MaxRounds: 4000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Solved {
			solved++
		}
	}
	if solved < trials*3/4 {
		t.Errorf("solved only %d/%d trials under 1%% crash faults", solved, trials)
	}
}

func TestCrashFaultsIndependentAcrossNodes(t *testing.T) {
	// With 200 nodes at rate 0.3, after one round roughly 30% crash — not
	// all, not none (the per-node streams are independent).
	const n = 200
	c := CrashFaults{Inner: FixedProbability{}, Rate: 0.3}.Populate(n, 4).(*crashPopulation)
	live := make([]int, n)
	for u := range live {
		live[u] = u
	}
	c.Act(1, live, make([]bool, n))
	crashed := 0
	for _, down := range c.crashed {
		if down {
			crashed++
		}
	}
	if crashed < 30 || crashed > 90 {
		t.Errorf("%d/200 crashed in round 1 at rate 0.3", crashed)
	}
}
