package baselines

import (
	"math"
	"strings"
	"testing"

	"fadingcr/internal/radio"
	"fadingcr/internal/sim"
)

func mustRadio(t *testing.T, n int, cd bool) *radio.Channel {
	t.Helper()
	ch, err := radio.New(n, cd)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestNames(t *testing.T) {
	cases := []struct {
		b    sim.Builder
		want string
	}{
		{ProbabilitySweep{}, "probability-sweep"},
		{Decay{N: 64}, "decay"},
		{BinaryExponentialBackoff{}, "backoff"},
		{DampenedSweep{N: 64}, "dampened"},
		{CollisionDetectHalving{}, "cd-halving"},
	}
	for _, c := range cases {
		if got := c.b.Name(); !strings.Contains(got, c.want) {
			t.Errorf("Name = %q, want substring %q", got, c.want)
		}
	}
}

func TestSweepProbabilitySchedule(t *testing.T) {
	// Epochs: r1 → (k=1, j=1); r2,3 → (k=2, j=1,2); r4,5,6 → (k=3, j=1..3).
	want := []float64{0.5, 0.5, 0.25, 0.5, 0.25, 0.125, 0.5, 0.25, 0.125, 0.0625}
	for r := 1; r <= len(want); r++ {
		if got := SweepProbability(r); math.Abs(got-want[r-1]) > 1e-12 {
			t.Errorf("SweepProbability(%d) = %v, want %v", r, got, want[r-1])
		}
	}
	if got := SweepProbability(0); got != 0 {
		t.Errorf("SweepProbability(0) = %v, want 0", got)
	}
}

func TestSweepProbabilityEpochsReachSmallValues(t *testing.T) {
	// By the end of epoch k the probability has reached 2^{-k}; the minimum
	// over the first k(k+1)/2 rounds must therefore be 2^{-k}.
	k := 20
	minP := 1.0
	for r := 1; r <= k*(k+1)/2; r++ {
		if p := SweepProbability(r); p < minP {
			minP = p
		}
	}
	if want := math.Pow(2, -20); minP != want {
		t.Errorf("min probability over 20 epochs = %v, want %v", minP, want)
	}
}

// TestLdexpIsPow: the baselines take their probabilities 2^{-j} from
// math.Ldexp(1, -j), which must return math.Pow(2, -j)'s bits for every
// integer exponent they can reach and then some, so a toolchain change
// cannot silently move E3's tables.
func TestLdexpIsPow(t *testing.T) {
	for j := -1100; j <= 1100; j++ {
		if got, want := math.Ldexp(1, j), math.Pow(2, float64(j)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("math.Ldexp(1, %d) = %v, math.Pow(2, %d) = %v", j, got, j, want)
		}
	}
}

func TestDecayPhaseLength(t *testing.T) {
	if got := (Decay{N: 64}).PhaseLength(); got != 7 {
		t.Errorf("PhaseLength(64) = %d, want 7", got)
	}
	if got := (Decay{N: 65}).PhaseLength(); got != 8 {
		t.Errorf("PhaseLength(65) = %d, want 8", got)
	}
}

func TestDecayBuildPanicsOnSmallN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Decay{N:1} did not panic")
		}
	}()
	Decay{N: 1}.Populate(3, 1)
}

func TestDampenedSweepParameters(t *testing.T) {
	d := DampenedSweep{N: 1 << 16}
	if got := d.Levels(); got != 16 {
		t.Errorf("Levels = %d, want 16", got)
	}
	if got := d.Repeats(); got != 4 {
		t.Errorf("Repeats = %d, want 4 (16/log2(16))", got)
	}
}

func TestDampenedSweepBuildPanicsOnSmallN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("DampenedSweep{N:2} did not panic")
		}
	}()
	DampenedSweep{N: 2}.Populate(3, 1)
}

// TestAllSolveOnRadio: every baseline solves contention resolution on its
// native channel for a spread of n, within a generous budget.
func TestAllSolveOnRadio(t *testing.T) {
	for _, n := range []int{2, 3, 8, 32, 128} {
		builders := []sim.Builder{
			ProbabilitySweep{},
			Decay{N: n},
			BinaryExponentialBackoff{},
			DampenedSweep{N: max(4, n)},
		}
		for _, b := range builders {
			ch := mustRadio(t, n, false)
			res, err := sim.Run(ch, b, uint64(n), sim.Config{MaxRounds: 100000})
			if err != nil {
				t.Fatalf("%s n=%d: %v", b.Name(), n, err)
			}
			if !res.Solved {
				t.Errorf("%s n=%d: unsolved in %d rounds", b.Name(), n, res.Rounds)
			}
		}
	}
}

func TestCollisionDetectHalvingSolves(t *testing.T) {
	for _, n := range []int{2, 8, 64, 512} {
		ch := mustRadio(t, n, true)
		res, err := sim.Run(ch, CollisionDetectHalving{}, uint64(n), sim.Config{MaxRounds: 10000, CollisionDetection: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Solved {
			t.Errorf("n=%d: unsolved in %d rounds", n, res.Rounds)
			continue
		}
		// Θ(log n) w.h.p.: even a loose cap distinguishes it from log².
		if float64(res.Rounds) > 30*math.Log2(float64(n))+30 {
			t.Errorf("n=%d: %d rounds, want O(log n)", n, res.Rounds)
		}
	}
}

func TestCollisionDetectHalvingCandidateNeverAllWithdraw(t *testing.T) {
	// Run many seeds; after every round at least one candidate remains.
	for seed := uint64(0); seed < 20; seed++ {
		n := 16
		h := CollisionDetectHalving{}.Populate(n, seed).(*halving)
		ch := mustRadio(t, n, true)
		live := make([]int, n)
		for u := range live {
			live[u] = u
		}
		tx := make([]bool, n)
		recv := make([]int, n)
		for round := 1; round <= 100; round++ {
			count, _ := h.Act(round, live, tx)
			if count == 1 {
				break
			}
			ch.Deliver(tx, recv)
			detect := sim.Silence
			if count > 1 {
				detect = sim.Collision
			}
			live = h.Hear(round, live, recv, detect)
			candidates := 0
			for u := range n {
				if h.Active(u) {
					candidates++
				}
			}
			if candidates == 0 {
				t.Fatalf("seed %d round %d: all candidates withdrew", seed, round)
			}
		}
	}
}

func TestCollisionDetectHalvingActive(t *testing.T) {
	h := CollisionDetectHalving{}.Populate(1, 1).(*halving)
	if !h.Active(0) {
		t.Error("fresh node not active")
	}
	h.candidate[0] = false
	if h.Active(0) {
		t.Error("withdrawn node still active")
	}
}

// TestObliviousIgnoreFeedback: the oblivious baselines' actions do not
// depend on what they hear.
func TestObliviousIgnoreFeedback(t *testing.T) {
	builders := []sim.Builder{ProbabilitySweep{}, Decay{N: 16}, BinaryExponentialBackoff{}, DampenedSweep{N: 16}}
	for _, b := range builders {
		a, c := b.Populate(1, 9), b.Populate(1, 9)
		live, ta, tc := []int{0}, []bool{false}, []bool{false}
		for r := 1; r <= 300; r++ {
			a.Act(r, live, ta)
			c.Act(r, live, tc)
			if ta[0] != tc[0] {
				t.Errorf("%s: actions diverged at round %d despite equal seeds", b.Name(), r)
				break
			}
			a.Hear(r, live, []int{-1}, sim.Unknown)
			c.Hear(r, live, []int{0}, sim.Collision) // feed c different observations
		}
	}
}

// TestBEBTransmitsOncePerWindow: each node transmits exactly once in every
// window 2, 4, 8, … rounds long.
func TestBEBTransmitsOncePerWindow(t *testing.T) {
	pop := BinaryExponentialBackoff{}.Populate(1, 123)
	live, tx := []int{0}, []bool{false}
	windows := []struct{ start, length int }{{1, 2}, {3, 4}, {7, 8}, {15, 16}, {31, 32}}
	round := 1
	for _, w := range windows {
		sent := 0
		for ; round < w.start+w.length; round++ {
			if count, _ := pop.Act(round, live, tx); count == 1 {
				sent++
			}
		}
		if sent != 1 {
			t.Errorf("window starting %d: %d transmissions, want 1", w.start, sent)
		}
	}
}

// TestScalingSeparation: the headline comparison in miniature — at n = 256
// the collision-detection algorithm (log n shape) must finish far faster
// than the probability sweep (log² n shape), medians over a few trials.
func TestScalingSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	const n = 256
	median := func(b sim.Builder, cd bool) float64 {
		var rounds []int
		for trial := 0; trial < 11; trial++ {
			ch := mustRadio(t, n, cd)
			res, err := sim.Run(ch, b, uint64(1000+trial), sim.Config{MaxRounds: 100000, CollisionDetection: cd})
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
	mCD := median(CollisionDetectHalving{}, true)
	mSweep := median(ProbabilitySweep{}, false)
	if mCD*2 > mSweep {
		t.Errorf("cd-halving median %v not clearly below sweep median %v", mCD, mSweep)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
