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
			s.Populate(2, 1)
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
	s := StaggeredStart{Inner: FixedProbability{}, MaxDelay: 3}.Populate(1, 1).(*staggeredPopulation)
	// The inner node with p=1 would transmit every round (every Float64 is
	// below 1); asleep it listens. It wakes in round 4.
	s.inner = &fixedPopulation{p: 1, rng: make([]xrand.Reseedable, 1), active: []bool{true}}
	s.delay[0] = 3
	live, tx := []int{0}, []bool{true}
	for round := 1; round < 4; round++ {
		if count, _ := s.Act(round, live, tx); count != 0 || tx[0] {
			t.Fatalf("round %d: sleeping node acted", round)
		}
		live = s.Hear(round, live, []int{0}, sim.Unknown) // pre-wake receptions are dropped
	}
	if !s.Active(0) || len(live) != 1 {
		t.Fatal("pre-wake reception deactivated the node")
	}
	if count, last := s.Act(4, live, tx); count != 1 || last != 0 || !tx[0] {
		t.Fatal("awake p=1 node did not transmit")
	}
	live = s.Hear(4, live, []int{2}, sim.Unknown)
	if s.Active(0) || len(live) != 0 {
		t.Fatal("post-wake reception did not deactivate and retire the node")
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
	s := StaggeredStart{Inner: FixedProbability{}, MaxDelay: 9}.Populate(500, 11).(*staggeredPopulation)
	counts := map[int]int{}
	for _, d := range s.delay {
		w := 1 + d
		if w < 1 || w > 10 {
			t.Fatalf("wake round %d outside [1, 10]", w)
		}
		counts[w]++
	}
	if len(counts) != 10 {
		t.Errorf("only %d distinct wake rounds over 500 nodes", len(counts))
	}
}
