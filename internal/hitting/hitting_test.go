package hitting

import (
	"math"
	"testing"
	"testing/quick"

	"fadingcr/internal/core"
	"fadingcr/internal/sim"
)

func TestNewRefereeValidation(t *testing.T) {
	if _, err := NewReferee(1, 1); err == nil {
		t.Error("k=1 accepted")
	}
	r, err := NewReferee(10, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, b := r.Target()
	if a == b || a < 1 || a > 10 || b < 1 || b > 10 {
		t.Errorf("target (%d, %d) invalid", a, b)
	}
	if r.K() != 10 {
		t.Errorf("K = %d, want 10", r.K())
	}
}

func TestNewRefereeTargetUniformish(t *testing.T) {
	// Over many seeds the two target elements must not be constant and both
	// orderings must occur.
	seen := map[[2]int]bool{}
	for seed := uint64(0); seed < 200; seed++ {
		r, err := NewReferee(5, seed)
		if err != nil {
			t.Fatal(err)
		}
		a, b := r.Target()
		seen[[2]int{a, b}] = true
	}
	if len(seen) < 10 {
		t.Errorf("only %d distinct targets over 200 seeds (of 20 possible)", len(seen))
	}
}

func TestNewRefereeWithTargetValidation(t *testing.T) {
	for _, c := range []struct{ k, a, b int }{
		{1, 1, 2}, {5, 0, 2}, {5, 1, 6}, {5, 3, 3},
	} {
		if _, err := NewRefereeWithTarget(c.k, c.a, c.b); err == nil {
			t.Errorf("NewRefereeWithTarget(%d, %d, %d) accepted", c.k, c.a, c.b)
		}
	}
}

func TestProposeJudging(t *testing.T) {
	r, err := NewRefereeWithTarget(10, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		proposal []int
		want     bool
	}{
		{nil, false},                                  // hits neither
		{[]int{1, 2, 4}, false},                       // hits neither
		{[]int{3}, true},                              // hits exactly one
		{[]int{7, 1}, true},                           // hits exactly one
		{[]int{3, 7}, false},                          // hits both
		{[]int{3, 3, 7}, false},                       // duplicates count once; still both
		{[]int{3, 3}, true},                           // duplicate of a single hit
		{[]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, false}, // full set hits both
	}
	for _, c := range cases {
		got, err := r.Propose(c.proposal)
		if err != nil {
			t.Fatalf("Propose(%v): %v", c.proposal, err)
		}
		if got != c.want {
			t.Errorf("Propose(%v) = %v, want %v", c.proposal, got, c.want)
		}
	}
	if _, err := r.Propose([]int{0}); err == nil {
		t.Error("out-of-range element 0 accepted")
	}
	if _, err := r.Propose([]int{11}); err == nil {
		t.Error("out-of-range element 11 accepted")
	}
}

// TestProposeNeverFalseWinProperty: a proposal containing both or neither
// target elements never wins, one containing exactly one always does.
func TestProposeNeverFalseWinProperty(t *testing.T) {
	f := func(seed uint64, mask uint16) bool {
		const k = 16
		r, err := NewReferee(k, seed)
		if err != nil {
			return false
		}
		var proposal []int
		for id := 1; id <= k; id++ {
			if mask&(1<<(id-1)) != 0 {
				proposal = append(proposal, id)
			}
		}
		won, err := r.Propose(proposal)
		if err != nil {
			return false
		}
		a, b := r.Target()
		inA, inB := mask&(1<<(a-1)) != 0, mask&(1<<(b-1)) != 0
		return won == (inA != inB)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlayHalfDensityWinsFast(t *testing.T) {
	// Per-round win probability is exactly 1/2; over 200 trials the mean
	// winning round should be near 2 and the game always ends well inside
	// the budget.
	total := 0
	for seed := uint64(0); seed < 200; seed++ {
		r, err := NewReferee(64, seed)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewFixedDensityPlayer(64, 0.5, seed+1000)
		if err != nil {
			t.Fatal(err)
		}
		rounds, won, err := Play(r, p, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if !won {
			t.Fatalf("seed %d: half-density player lost", seed)
		}
		total += rounds
	}
	mean := float64(total) / 200
	if mean < 1.4 || mean > 2.8 {
		t.Errorf("mean winning round %v far from 2", mean)
	}
}

func TestPlayBudgetExhaustion(t *testing.T) {
	r, err := NewRefereeWithTarget(4, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A player that always proposes both targets can never win.
	rounds, won, err := Play(r, proposeBoth{}, 25)
	if err != nil {
		t.Fatal(err)
	}
	if won || rounds != 25 {
		t.Errorf("rounds=%d won=%v, want 25/false", rounds, won)
	}
	if _, _, err := Play(r, proposeBoth{}, 0); err == nil {
		t.Error("maxRounds=0 accepted")
	}
}

type proposeBoth struct{}

func (proposeBoth) Propose(int) []int { return []int{1, 2} }
func (proposeBoth) Reject(int)        {}

func TestPlayPropagatesProposalError(t *testing.T) {
	r, _ := NewRefereeWithTarget(4, 1, 2)
	if _, _, err := Play(r, badProposer{}, 10); err == nil {
		t.Error("invalid proposal did not surface an error")
	}
}

type badProposer struct{}

func (badProposer) Propose(int) []int { return []int{99} }
func (badProposer) Reject(int)        {}

func TestFixedDensityPlayerValidation(t *testing.T) {
	if _, err := NewFixedDensityPlayer(1, 0.5, 1); err == nil {
		t.Error("k=1 accepted")
	}
	for _, q := range []float64{0, 1, -0.5, 2} {
		if _, err := NewFixedDensityPlayer(8, q, 1); err == nil {
			t.Errorf("q=%v accepted", q)
		}
	}
}

func TestFixedDensityQuantileGrowsLogarithmically(t *testing.T) {
	// Lemma 13 empirically: the (1 − 1/k)-quantile of the winning round for
	// the optimal constant-density player is ≈ log₂ k, so it should roughly
	// double from k=16 to k=256.
	quantile := func(k, trials int) float64 {
		var rounds []int
		for seed := 0; seed < trials; seed++ {
			r, err := NewReferee(k, uint64(seed))
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewFixedDensityPlayer(k, 0.5, uint64(seed+99999))
			if err != nil {
				t.Fatal(err)
			}
			got, won, err := Play(r, p, 10000)
			if err != nil || !won {
				t.Fatalf("k=%d seed=%d: won=%v err=%v", k, seed, won, err)
			}
			rounds = append(rounds, got)
		}
		for i := 1; i < len(rounds); i++ {
			for j := i; j > 0 && rounds[j] < rounds[j-1]; j-- {
				rounds[j], rounds[j-1] = rounds[j-1], rounds[j]
			}
		}
		idx := int(float64(len(rounds)) * (1 - 1/float64(k)))
		if idx >= len(rounds) {
			idx = len(rounds) - 1
		}
		return float64(rounds[idx])
	}
	q16 := quantile(16, 600)
	q256 := quantile(256, 600)
	if q16 < 2 || q16 > 9 {
		t.Errorf("quantile at k=16 is %v, want ≈ log2(16) = 4", q16)
	}
	if q256 < q16 {
		t.Errorf("quantile decreased with k: %v → %v", q16, q256)
	}
	if q256 > 4*q16+4 {
		t.Errorf("quantile grew super-logarithmically: %v → %v", q16, q256)
	}
}

func TestSimulationPlayerReduction(t *testing.T) {
	// The reduction player built from the paper's algorithm proposes
	// p-density sets and wins within a comfortable budget.
	r, err := NewReferee(32, 5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewSimulationPlayer(core.FixedProbability{}, 32, 6)
	if err != nil {
		t.Fatal(err)
	}
	rounds, won, err := Play(r, p, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !won {
		t.Fatal("simulation player never won")
	}
	if rounds > 200 {
		t.Errorf("simulation player needed %d rounds; expected O(1/p(1-p)) ≈ tens", rounds)
	}
}

func TestSimulationPlayerProposalDensity(t *testing.T) {
	p, err := NewSimulationPlayer(core.FixedProbability{P: 0.25}, 400, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 proposal should contain ≈ 100 of 400 ids; silence feedback
	// keeps every node active, so round 2 similar.
	sizes := 0
	for round := 1; round <= 10; round++ {
		prop := p.Propose(round)
		for _, id := range prop {
			if id < 1 || id > 400 {
				t.Fatalf("proposal id %d out of range", id)
			}
		}
		sizes += len(prop)
		p.Reject(round)
	}
	mean := float64(sizes) / 10
	if mean < 70 || mean > 130 {
		t.Errorf("mean proposal size %v far from 100", mean)
	}
}

func TestSimulationPlayerValidation(t *testing.T) {
	if _, err := NewSimulationPlayer(core.FixedProbability{}, 1, 1); err == nil {
		t.Error("k=1 accepted")
	}
}

func TestPlayTwoPlayer(t *testing.T) {
	res, err := PlayTwoPlayer(core.FixedProbability{}, 11, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Won {
		t.Fatal("two-player game never broke symmetry")
	}
	if res.Winner != 0 && res.Winner != 1 {
		t.Errorf("winner = %d", res.Winner)
	}
	// Expected 1/(2p(1-p)) ≈ 3.1 rounds at p = 0.2; generous cap.
	if res.Rounds > 500 {
		t.Errorf("two-player game took %d rounds", res.Rounds)
	}
}

func TestPlayTwoPlayerBudget(t *testing.T) {
	// alwaysTransmit never breaks symmetry.
	res, err := PlayTwoPlayer(alwaysTransmit{}, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Won || res.Rounds != 30 || res.Winner != -1 {
		t.Errorf("res = %+v, want lost after 30", res)
	}
}

// alwaysTransmit is a protocol whose nodes transmit in every round; it is
// its own population.
type alwaysTransmit struct{}

func (alwaysTransmit) Name() string                                          { return "always-transmit" }
func (alwaysTransmit) Populate(int, uint64) sim.Population                   { return alwaysTransmit{} }
func (alwaysTransmit) Hear(_ int, live []int, _ []int, _ sim.Feedback) []int { return live }

func (alwaysTransmit) Act(_ int, live []int, tx []bool) (count, last int) {
	for _, u := range live {
		tx[u] = true
	}
	if len(live) == 0 {
		return 0, -1
	}
	return len(live), live[len(live)-1]
}

// TestTwoPlayerMatchesHittingGameShape: the two-player (1 − 1/k)-success
// horizon for the fixed-probability algorithm grows like log k — the
// empirical face of Lemma 14 + Lemma 13.
func TestTwoPlayerMatchesHittingGameShape(t *testing.T) {
	horizon := func(k, trials int) float64 {
		var rounds []int
		for seed := 0; seed < trials; seed++ {
			res, err := PlayTwoPlayer(core.FixedProbability{}, uint64(seed), 100000)
			if err != nil || !res.Won {
				t.Fatalf("seed %d: %+v err=%v", seed, res, err)
			}
			rounds = append(rounds, res.Rounds)
		}
		for i := 1; i < len(rounds); i++ {
			for j := i; j > 0 && rounds[j] < rounds[j-1]; j-- {
				rounds[j], rounds[j-1] = rounds[j-1], rounds[j]
			}
		}
		idx := int(float64(len(rounds)) * (1 - 1/float64(k)))
		if idx >= len(rounds) {
			idx = len(rounds) - 1
		}
		return float64(rounds[idx])
	}
	h16 := horizon(16, 800)
	h256 := horizon(256, 800)
	want16 := math.Log(16.) / (2 * core.DefaultP * (1 - core.DefaultP)) // ≈ 8.7/0.32
	if h16 > 3*want16 {
		t.Errorf("horizon(16) = %v, want ≈ %v", h16, want16)
	}
	if h256 < h16 {
		t.Errorf("horizon decreased with k: %v → %v", h16, h256)
	}
}
