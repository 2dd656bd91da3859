package baselines

import (
	"math"
	"testing"

	"fadingcr/internal/sim"
)

func TestCDBinaryEstimateName(t *testing.T) {
	if got := (CDBinaryEstimate{}).Name(); got != "cd-binary-estimate" {
		t.Errorf("Name = %q", got)
	}
}

func TestCDBinaryEstimateSolves(t *testing.T) {
	for _, n := range []int{2, 8, 64, 512, 4096} {
		ch := mustRadio(t, n, true)
		res, err := sim.Run(ch, CDBinaryEstimate{}, uint64(n)+3, sim.Config{MaxRounds: 10000, CollisionDetection: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Solved {
			t.Errorf("n=%d: unsolved in %d rounds", n, res.Rounds)
		}
	}
}

func TestCDBinaryEstimateMedianIsTiny(t *testing.T) {
	// Expected rounds are O(log log n) + O(1): medians should stay in the
	// single digits far beyond where even log n algorithms have grown.
	median := func(n int) float64 {
		var rounds []int
		for seed := uint64(0); seed < 21; seed++ {
			ch := mustRadio(t, n, true)
			res, err := sim.Run(ch, CDBinaryEstimate{}, seed, sim.Config{MaxRounds: 10000, CollisionDetection: true})
			if err != nil || !res.Solved {
				t.Fatalf("n=%d seed=%d: %+v err=%v", n, seed, res, err)
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
	m256, m4096 := median(256), median(4096)
	if m4096 > m256+10 {
		t.Errorf("median grew %v → %v from n=256 to n=4096; want ~log log growth", m256, m4096)
	}
	if m4096 > 12+3*math.Log2(math.Log2(4096)) {
		t.Errorf("median at n=4096 is %v; want O(log log n) + O(1)", m4096)
	}
}

func TestEstimateControllerLockstep(t *testing.T) {
	// All nodes must probe the same exponent every round regardless of
	// their private coins.
	n := 64
	e := CDBinaryEstimate{}.Populate(n, 5).(*estimate)
	live := make([]int, n)
	for u := range live {
		live[u] = u
	}
	tx, recv := make([]bool, n), make([]int, n)
	feedbacks := []sim.Feedback{sim.Collision, sim.Collision, sim.Silence, sim.Collision, sim.Silence, sim.Silence}
	for round, fb := range feedbacks {
		want := e.ctrl[0].exponent()
		for u := range e.ctrl {
			if got := e.ctrl[u].exponent(); got != want {
				t.Fatalf("round %d: exponents diverged (%d vs %d)", round, got, want)
			}
		}
		e.Act(round+1, live, tx)
		live = e.Hear(round+1, live, recv, fb)
	}
}

func TestEstimateControllerDoublingThenSearch(t *testing.T) {
	c := newEstimateController()
	if c.exponent() != 1 || c.mode != modeDoubling {
		t.Fatalf("fresh controller: j=%d mode=%d", c.exponent(), c.mode)
	}
	// Collisions double the exponent: 1 → 2 → 4 → 8.
	for _, want := range []int{2, 4, 8} {
		c.observe(sim.Collision)
		if c.exponent() != want {
			t.Fatalf("doubling: j=%d, want %d", c.exponent(), want)
		}
	}
	// Silence at 8 brackets [4, 8] and probes the midpoint 6.
	c.observe(sim.Silence)
	if c.mode != modeSearch || c.exponent() != 6 {
		t.Fatalf("after bracket: mode=%d j=%d, want search/6", c.mode, c.exponent())
	}
	// Collision at 6: lo=7 → probe (7+8)/2 = 7.
	c.observe(sim.Collision)
	if c.exponent() != 7 {
		t.Fatalf("search step: j=%d, want 7", c.exponent())
	}
	// Silence at 7: hi=6 < lo=7 → sweep around 7.
	c.observe(sim.Silence)
	if c.mode != modeSweep {
		t.Fatalf("mode=%d, want sweep", c.mode)
	}
	if got := c.exponent(); got != 6 {
		t.Fatalf("first sweep probe j=%d, want center−width = 6", got)
	}
}

func TestEstimateControllerSweepWidens(t *testing.T) {
	c := newEstimateController()
	// Drive straight into a sweep around a known centre.
	c.mode = modeSweep
	c.center, c.width, c.offset = 5, 1, -1
	var seen []int
	for i := 0; i < 14; i++ {
		c.stepSweep()
		seen = append(seen, c.exponent())
	}
	// First pass: 4,5,6 (width 1); second: 3,4,5,6,7 (width 2); then width 3.
	want := []int{4, 5, 6, 3, 4, 5, 6, 7, 2, 3, 4, 5, 6, 7}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("sweep sequence %v, want %v", seen, want)
		}
	}
}

func TestEstimateControllerSweepClampsAtZero(t *testing.T) {
	c := newEstimateController()
	c.mode = modeSweep
	c.center, c.width, c.offset = 1, 2, -1
	for i := 0; i < 10; i++ {
		c.stepSweep()
		if c.exponent() < 0 {
			t.Fatalf("negative exponent %d", c.exponent())
		}
	}
}
