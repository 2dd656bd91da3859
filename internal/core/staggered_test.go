package core

import (
	"strings"
	"testing"

	"fadingcr/internal/geom"
	"fadingcr/internal/sim"
	"fadingcr/internal/xrand"
)

func TestStaggeredStartName(t *testing.T) {
	s := StaggeredStart{Inner: FixedProbability{}, MaxDelay: 5}
	if got := s.Name(); !strings.Contains(got, "staggered") || !strings.Contains(got, "5") {
		t.Errorf("Name = %q", got)
	}
}

func TestStaggeredStartBuildPanics(t *testing.T) {
	for _, s := range []StaggeredStart{
		{Inner: nil, MaxDelay: 1},
		{Inner: FixedProbability{}, MaxDelay: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v did not panic", s)
				}
			}()
			s.Build(2, 1)
		}()
	}
}

func TestStaggeredStartZeroDelayMatchesInner(t *testing.T) {
	// MaxDelay = 0: every node wakes at round 1; behaviour must equal the
	// inner protocol built from the same derived seed.
	d, err := geom.UniformDisk(3, 40)
	if err != nil {
		t.Fatal(err)
	}
	run := func(b sim.Builder, seed uint64) sim.Result {
		res, err := sim.Run(sinrChannel(t, d), b, seed, sim.Config{MaxRounds: 4000})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	staggered := run(StaggeredStart{Inner: FixedProbability{}, MaxDelay: 0}, 7)
	if !staggered.Solved {
		t.Fatal("staggered(0) unsolved")
	}
}

func TestStaggeredNodeSleepsAndWakes(t *testing.T) {
	inner := sim.Views(&fixedPopulation{p: 1, rng: make([]xrand.Reseedable, 1), active: []bool{true}}, 1)[0]
	u := &staggeredNode{inner: inner, wake: 4}
	// The inner node with p=1 would transmit every round (every Float64 is
	// below 1); asleep it listens.
	for round := 1; round < 4; round++ {
		if u.Act(round) != sim.Listen {
			t.Fatalf("round %d: sleeping node acted", round)
		}
		u.Hear(round, 0, sim.Unknown) // pre-wake receptions are dropped
	}
	if !u.Active() {
		t.Fatal("pre-wake reception deactivated the node")
	}
	if u.Act(4) != sim.Transmit {
		t.Fatal("awake p=1 node did not transmit")
	}
	u.Hear(4, 2, sim.Unknown)
	if u.Active() {
		t.Fatal("post-wake reception did not deactivate the node")
	}
}

func TestStaggeredStartSolvesOnSINR(t *testing.T) {
	d, err := geom.UniformDisk(5, 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, delay := range []int{1, 8, 64} {
		res, err := sim.Run(sinrChannel(t, d),
			StaggeredStart{Inner: FixedProbability{}, MaxDelay: delay}, 9,
			sim.Config{MaxRounds: 4000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Solved {
			t.Errorf("delay ≤ %d: unsolved after %d rounds", delay, res.Rounds)
		}
		// The solve can come early (a lone early riser transmits solo), but
		// never needs much more than the delay plus the synchronous time.
		if res.Rounds > delay+400 {
			t.Errorf("delay ≤ %d: took %d rounds", delay, res.Rounds)
		}
	}
}

func TestStaggeredStartWakeDistribution(t *testing.T) {
	nodes := StaggeredStart{Inner: FixedProbability{}, MaxDelay: 9}.Build(500, 11)
	counts := map[int]int{}
	for _, n := range nodes {
		w := n.(*staggeredNode).wake
		if w < 1 || w > 10 {
			t.Fatalf("wake round %d outside [1, 10]", w)
		}
		counts[w]++
	}
	if len(counts) != 10 {
		t.Errorf("only %d distinct wake rounds over 500 nodes", len(counts))
	}
}
