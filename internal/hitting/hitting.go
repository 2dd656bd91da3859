// Package hitting implements the combinatorial machinery behind the paper's
// Ω(log n) lower bound (Section 4):
//
//   - the restricted k-hitting game of [20]: a referee fixes a hidden target
//     set T ⊂ {1, …, k} with |T| = 2; each round the player proposes a set
//     P ⊆ {1, …, k} and wins as soon as |P ∩ T| = 1, learning nothing from
//     losing rounds. Lemma 13: any player winning with probability ≥ 1 − 1/k
//     needs Ω(log k) rounds.
//   - two-player contention resolution (Lemma 14): two symmetric nodes must
//     break symmetry — the game is won the first time exactly one transmits,
//     and in all previous rounds no messages are received.
//   - the reduction of Lemma 14: any contention resolution algorithm yields
//     a hitting-game player by simulating the algorithm on k nodes,
//     proposing each round's broadcaster set, and feeding every simulated
//     node silence. The simulated states of the two target nodes remain
//     consistent with a genuine two-node execution, so the algorithm's
//     guarantee transfers to the game — and the game's Ω(log k) bound
//     transfers back.
package hitting

import (
	"errors"
	"fmt"

	"fadingcr/internal/sim"
	"fadingcr/internal/xrand"
)

// Referee administers one instance of the restricted k-hitting game. Ids are
// 1-based: valid elements are 1 … k.
type Referee struct {
	k      int
	target [2]int
}

// NewReferee draws a uniformly random 2-element target from {1, …, k}.
func NewReferee(k int, seed uint64) (*Referee, error) {
	if k < 2 {
		return nil, errors.New("hitting: k must be ≥ 2")
	}
	rng := xrand.New(seed)
	a := 1 + rng.IntN(k)
	b := 1 + rng.IntN(k-1)
	if b >= a {
		b++
	}
	return &Referee{k: k, target: [2]int{a, b}}, nil
}

// NewRefereeWithTarget fixes the target explicitly (for tests and
// adversarial experiments).
func NewRefereeWithTarget(k, a, b int) (*Referee, error) {
	if k < 2 {
		return nil, errors.New("hitting: k must be ≥ 2")
	}
	if a < 1 || a > k || b < 1 || b > k || a == b {
		return nil, fmt.Errorf("hitting: invalid target (%d, %d) for k=%d", a, b, k)
	}
	return &Referee{k: k, target: [2]int{a, b}}, nil
}

// K returns the universe size.
func (r *Referee) K() int { return r.k }

// Target returns the hidden target pair; only experiment post-processing
// should look at it.
func (r *Referee) Target() (int, int) { return r.target[0], r.target[1] }

// Propose judges one proposal: the player wins iff exactly one of the two
// target elements is in the proposal. Elements outside 1 … k are rejected
// with an error; duplicate elements are counted once.
func (r *Referee) Propose(proposal []int) (won bool, err error) {
	hitA, hitB := false, false
	for _, id := range proposal {
		if id < 1 || id > r.k {
			return false, fmt.Errorf("hitting: proposal element %d outside [1, %d]", id, r.k)
		}
		if id == r.target[0] {
			hitA = true
		}
		if id == r.target[1] {
			hitB = true
		}
	}
	return hitA != hitB, nil
}

// Player is a hitting-game strategy.
type Player interface {
	// Propose returns the proposal for the given 1-based round.
	Propose(round int) []int
	// Reject informs the player that its last proposal did not win. This is
	// the only feedback the game provides.
	Reject(round int)
}

// Play runs a game to completion or the round budget. It returns the
// 1-based winning round, or (maxRounds, false) if the player never won.
func Play(r *Referee, p Player, maxRounds int) (rounds int, won bool, err error) {
	if maxRounds < 1 {
		return 0, false, fmt.Errorf("hitting: maxRounds %d must be ≥ 1", maxRounds)
	}
	for round := 1; round <= maxRounds; round++ {
		w, err := r.Propose(p.Propose(round))
		if err != nil {
			return round, false, err
		}
		if w {
			return round, true, nil
		}
		p.Reject(round)
	}
	return maxRounds, false, nil
}

// FixedDensityPlayer proposes each element independently with a fixed
// probability q each round. With q = 1/2 the per-round win probability is
// exactly 1/2 regardless of k, so the (1 − 1/k)-success horizon is log₂ k —
// the matching upper bound for Lemma 13.
type FixedDensityPlayer struct {
	k   int
	q   float64
	rng interface{ Float64() float64 }
}

// NewFixedDensityPlayer builds the player; q must be in (0, 1).
func NewFixedDensityPlayer(k int, q float64, seed uint64) (*FixedDensityPlayer, error) {
	if k < 2 {
		return nil, errors.New("hitting: k must be ≥ 2")
	}
	if q <= 0 || q >= 1 {
		return nil, fmt.Errorf("hitting: density %v outside (0, 1)", q)
	}
	return &FixedDensityPlayer{k: k, q: q, rng: xrand.New(seed)}, nil
}

// Propose implements Player.
func (p *FixedDensityPlayer) Propose(round int) []int {
	var out []int
	for id := 1; id <= p.k; id++ {
		if p.rng.Float64() < p.q {
			out = append(out, id)
		}
	}
	return out
}

// Reject implements Player (the player is oblivious).
func (p *FixedDensityPlayer) Reject(round int) {}

// SimulationPlayer is the Lemma 14 reduction: it simulates a contention
// resolution algorithm on k virtual nodes with ids 1 … k. Each game round it
// advances the simulation one round, proposes exactly the set of virtual
// nodes that broadcast, and — when the proposal loses — completes the round
// by simulating every node receiving nothing. As the paper argues, the
// simulated states of any two nodes remain consistent with a two-node
// execution in which no message has yet been delivered, so a winning
// proposal corresponds to the algorithm breaking two-player symmetry.
type SimulationPlayer struct {
	pop  sim.Population
	live []int
	tx   []bool
	recv []int // every entry −1: the simulated nodes receive nothing
}

// NewSimulationPlayer builds the reduction player for algorithm b on k
// virtual nodes. It steps b's population a round at a time.
func NewSimulationPlayer(b sim.Builder, k int, seed uint64) (*SimulationPlayer, error) {
	if k < 2 {
		return nil, errors.New("hitting: k must be ≥ 2")
	}
	p := &SimulationPlayer{pop: b.Populate(k, seed), live: make([]int, k), tx: make([]bool, k), recv: make([]int, k)}
	for u := range p.live {
		p.live[u] = u
		p.recv[u] = -1
	}
	return p, nil
}

// Propose implements Player: the ids (1-based) of the virtual broadcasters.
func (p *SimulationPlayer) Propose(round int) []int {
	p.pop.Act(round, p.live, p.tx)
	var out []int
	for _, u := range p.live {
		if p.tx[u] {
			out = append(out, u+1)
		}
	}
	return out
}

// Reject implements Player: every virtual node receives nothing.
func (p *SimulationPlayer) Reject(round int) {
	p.live = p.pop.Hear(round, p.live, p.recv, sim.Unknown)
}
