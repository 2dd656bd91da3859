// Package baselines implements the contention resolution algorithms the
// paper compares against, from scratch:
//
//   - ProbabilitySweep — the classical radio-network strategy needing no
//     knowledge of n: epoch k sweeps probabilities 2^{-1} … 2^{-k}. Solves
//     with high probability in Θ(log² n) rounds.
//   - Decay — Bar-Yehuda–Goldreich–Itai decay adapted to wake-up, given an
//     upper bound N ≥ n: phases of ⌈log₂ N⌉+1 rounds halving the broadcast
//     probability from 1. Θ(log² n) rounds w.h.p. (Θ(log n) in expectation).
//   - BinaryExponentialBackoff — the Ethernet-style folklore strategy: in
//     epoch k each node transmits in one uniformly chosen slot of a window
//     of length 2^k.
//   - DampenedSweep — a faithful-shape variant of Jurdziński & Stachowiak's
//     O(log² n / log log n) algorithm [6]; see its doc comment for exactly
//     what is and is not taken from the published algorithm.
//   - CollisionDetectHalving — leader election for the radio network model
//     with receiver collision detection: Θ(log n) rounds w.h.p., the bound
//     the fading channel matches without any collision detection.
//
// All builders implement sim.Builder and run on any sim.Channel; the
// oblivious ones (sweep, decay, backoff) ignore receptions entirely, exactly
// as their radio-network originals do.
package baselines

import (
	"fmt"
	"math"
	"math/rand/v2"

	"fadingcr/internal/sim"
	"fadingcr/internal/xrand"
)

// ProbabilitySweep is the classical no-knowledge strategy: in epoch
// k = 1, 2, 3, …, it uses broadcast probability 2^{-j} in the j-th round of
// the epoch (j = 1 … k). Once the epoch length reaches log₂ n, each epoch
// contains a probability within a factor 2 of 1/n, which yields a solo
// broadcast with constant probability; Θ(log n) successful epochs of length
// Θ(log n) give the Θ(log² n) bound.
type ProbabilitySweep struct{}

var _ sim.Builder = ProbabilitySweep{}

// Name implements sim.Builder.
func (ProbabilitySweep) Name() string { return "probability-sweep" }

// Build implements sim.Builder.
func (ProbabilitySweep) Build(n int, seed uint64) []sim.Node {
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = &sweepNode{rng: xrand.New(xrand.Split(seed, uint64(i)))}
	}
	return nodes
}

type sweepNode struct {
	rng *rand.Rand
}

func (u *sweepNode) Act(round int) sim.Action {
	if xrand.Bernoulli(u.rng, SweepProbability(round)) {
		return sim.Transmit
	}
	return sim.Listen
}

func (u *sweepNode) Hear(int, int, sim.Feedback) {}

// SweepProbability returns the broadcast probability ProbabilitySweep uses
// in the given 1-based round: round r falls in epoch k (the smallest k with
// k(k+1)/2 ≥ r) at position j = r − k(k−1)/2, and the probability is 2^{-j}.
func SweepProbability(round int) float64 {
	if round < 1 {
		return 0
	}
	// Invert the triangular numbers: k = ⌈(−1+√(1+8r))/2⌉.
	k := int(math.Ceil((-1 + math.Sqrt(1+8*float64(round))) / 2))
	j := round - k*(k-1)/2
	return math.Ldexp(1, -j)
}

// Decay is the BGI decay protocol given an upper bound N ≥ n on the number
// of participants. Execution is divided into phases of ⌈log₂ N⌉+1 rounds; in
// the j-th round of each phase every node broadcasts with probability
// 2^{-(j−1)}, i.e. the probability decays from 1 by halving. Each phase
// yields a solo broadcast with constant probability, so Θ(log(1/ε)) phases
// reach failure probability ε — Θ(log² N) rounds for ε = 1/N.
type Decay struct {
	// N is the upper bound on the participant count; must be ≥ 2.
	N int
}

var _ sim.Builder = Decay{}

// Name implements sim.Builder.
func (d Decay) Name() string { return fmt.Sprintf("decay(N=%d)", d.N) }

// PhaseLength returns the number of rounds per decay phase, ⌈log₂ N⌉+1.
func (d Decay) PhaseLength() int {
	return int(math.Ceil(math.Log2(float64(d.N)))) + 1
}

// Build implements sim.Builder. It panics if N < 2 (a static
// misconfiguration, not a runtime condition).
func (d Decay) Build(n int, seed uint64) []sim.Node {
	if d.N < 2 {
		panic(fmt.Sprintf("baselines: Decay.N = %d must be ≥ 2", d.N))
	}
	phase := d.PhaseLength()
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = &decayNode{rng: xrand.New(xrand.Split(seed, uint64(i))), phase: phase}
	}
	return nodes
}

type decayNode struct {
	rng   *rand.Rand
	phase int
}

func (u *decayNode) Act(round int) sim.Action {
	j := (round - 1) % u.phase // 0-based position in phase
	p := math.Ldexp(1, -j)
	if xrand.Bernoulli(u.rng, p) {
		return sim.Transmit
	}
	return sim.Listen
}

func (u *decayNode) Hear(int, int, sim.Feedback) {}

// BinaryExponentialBackoff is the folklore windowed strategy: epoch k
// (k = 1, 2, …) is a window of 2^k consecutive rounds in which each node
// transmits exactly once, at a uniformly random position. Included for
// context; its contention resolution time is super-logarithmic.
type BinaryExponentialBackoff struct{}

var _ sim.Builder = BinaryExponentialBackoff{}

// Name implements sim.Builder.
func (BinaryExponentialBackoff) Name() string { return "binary-exponential-backoff" }

// Build implements sim.Builder.
func (BinaryExponentialBackoff) Build(n int, seed uint64) []sim.Node {
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = &bebNode{rng: xrand.New(xrand.Split(seed, uint64(i)))}
	}
	return nodes
}

type bebNode struct {
	rng *rand.Rand
	// epoch bookkeeping: slot is the chosen transmit position within the
	// current window, end the last round of the window.
	slot, end int
}

func (u *bebNode) Act(round int) sim.Action {
	if round > u.end {
		// Entering the next window. Windows are 2, 4, 8, … rounds long,
		// starting at round 1.
		length := 2
		start := 1
		for start+length-1 < round {
			start += length
			length *= 2
		}
		u.end = start + length - 1
		u.slot = start + u.rng.IntN(length)
	}
	if round == u.slot {
		return sim.Transmit
	}
	return sim.Listen
}

func (u *bebNode) Hear(int, int, sim.Feedback) {}

// DampenedSweep reproduces the round-complexity *shape* of Jurdziński &
// Stachowiak's O(log² n / log log n) fading-channel algorithm [6]. Like the
// published algorithm it (a) requires a polynomial upper bound N ≥ n, and
// (b) accelerates the standard sweep so a full pass over the probability
// scale takes Θ(log N · log N / log log N) rounds instead of Θ(log² N): each
// probability level 2^{-k} (k = 1 … ⌈log₂ N⌉) is visited
// m = ⌈log₂ N / log₂ log₂ N⌉ times per pass rather than Θ(log N) times. The
// published algorithm's dampening mechanism — slowing the sweep near the
// critical density using spatial reuse — is abstracted into this repeat
// count; the intricate backbone construction of [6] is NOT reproduced. The
// variant preserves what experiment E3 compares: total rounds
// Θ(log² n / log log n) with knowledge of N, versus the paper's Θ(log n)
// without.
type DampenedSweep struct {
	// N is the upper bound on the participant count; must be ≥ 4 so that
	// log log N is meaningful.
	N int
}

var _ sim.Builder = DampenedSweep{}

// Name implements sim.Builder.
func (d DampenedSweep) Name() string { return fmt.Sprintf("dampened-sweep(N=%d)", d.N) }

// Repeats returns m, the number of consecutive rounds spent on each
// probability level: ⌈log₂ N / log₂ log₂ N⌉, at least 1.
func (d DampenedSweep) Repeats() int {
	logN := math.Log2(float64(d.N))
	den := math.Log2(logN)
	m := int(math.Ceil(logN / den))
	if m < 1 {
		m = 1
	}
	return m
}

// Levels returns the number of probability levels per pass, ⌈log₂ N⌉.
func (d DampenedSweep) Levels() int {
	return int(math.Ceil(math.Log2(float64(d.N))))
}

// Build implements sim.Builder. It panics if N < 4.
func (d DampenedSweep) Build(n int, seed uint64) []sim.Node {
	if d.N < 4 {
		panic(fmt.Sprintf("baselines: DampenedSweep.N = %d must be ≥ 4", d.N))
	}
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = &dampenedNode{
			rng:     xrand.New(xrand.Split(seed, uint64(i))),
			levels:  d.Levels(),
			repeats: d.Repeats(),
		}
	}
	return nodes
}

type dampenedNode struct {
	rng             *rand.Rand
	levels, repeats int
}

func (u *dampenedNode) Act(round int) sim.Action {
	pass := u.levels * u.repeats
	pos := (round - 1) % pass  // position within the pass
	level := pos/u.repeats + 1 // probability level 1 … levels
	p := math.Ldexp(1, -level)
	if xrand.Bernoulli(u.rng, p) {
		return sim.Transmit
	}
	return sim.Listen
}

func (u *dampenedNode) Hear(int, int, sim.Feedback) {}

// CollisionDetectHalving is leader election on a radio channel with
// receiver collision detection; run it with sim.Config.CollisionDetection
// set. Every node starts as a candidate. Each round, each candidate
// transmits with probability 1/2. A candidate that listened and detected a
// collision withdraws — the transmitters carry on, so the candidate set
// halves in expectation per round while never becoming empty, and a solo
// broadcast occurs within O(log n) rounds w.h.p. This is the Θ(log n)
// collision-detection bound the paper cites ([20]); the fading channel
// achieves the same bound with no collision detection at all.
type CollisionDetectHalving struct{}

var _ sim.Builder = CollisionDetectHalving{}

// Name implements sim.Builder.
func (CollisionDetectHalving) Name() string { return "cd-halving" }

// Build implements sim.Builder.
func (CollisionDetectHalving) Build(n int, seed uint64) []sim.Node {
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = &cdNode{rng: xrand.New(xrand.Split(seed, uint64(i))), candidate: true}
	}
	return nodes
}

type cdNode struct {
	rng       *rand.Rand
	candidate bool
	sentLast  bool
}

func (u *cdNode) Act(round int) sim.Action {
	u.sentLast = u.candidate && xrand.Bernoulli(u.rng, 0.5)
	if u.sentLast {
		return sim.Transmit
	}
	return sim.Listen
}

func (u *cdNode) Hear(round int, from int, detect sim.Feedback) {
	if u.candidate && !u.sentLast && detect == sim.Collision {
		u.candidate = false
	}
}

// Candidate reports whether the node is still contending; it implements the
// same Activeness shape as the core algorithm's nodes for tracing.
func (u *cdNode) Active() bool { return u.candidate }
