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
// With CDBinaryEstimate (estimate.go), all builders implement sim.Builder
// and run on any sim.Channel; the oblivious ones (sweep, decay, backoff)
// ignore receptions entirely, exactly as their radio-network originals do.
// Each builds its nodes as one sim.Population, with per-node state in
// slices; the five above compute the round's shared probability or backoff
// window once per round.
package baselines

import (
	"fmt"
	"math"

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

// Populate implements sim.Builder.
func (ProbabilitySweep) Populate(n int, seed uint64) sim.Population {
	return &coins{prob: SweepProbability, rng: xrand.Streams(seed, n)}
}

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

// Populate implements sim.Builder. It panics if N < 2.
func (d Decay) Populate(n int, seed uint64) sim.Population {
	if d.N < 2 {
		panic(fmt.Sprintf("baselines: Decay.N = %d must be ≥ 2", d.N))
	}
	phase := d.PhaseLength()
	prob := func(round int) float64 {
		j := (round - 1) % phase // 0-based position in phase
		return math.Ldexp(1, -j)
	}
	return &coins{prob: prob, rng: xrand.Streams(seed, n)}
}

// BinaryExponentialBackoff is the folklore windowed strategy: epoch k
// (k = 1, 2, …) is a window of 2^k consecutive rounds in which each node
// transmits exactly once, at a uniformly random position. Included for
// context; its contention resolution time is super-logarithmic.
type BinaryExponentialBackoff struct{}

var _ sim.Builder = BinaryExponentialBackoff{}

// Name implements sim.Builder.
func (BinaryExponentialBackoff) Name() string { return "binary-exponential-backoff" }

// Populate implements sim.Builder.
func (BinaryExponentialBackoff) Populate(n int, seed uint64) sim.Population {
	return &backoff{rng: xrand.Streams(seed, n), slots: make([]backoffSlot, n)}
}

// backoff holds the backoff nodes: node u's private stream and its place in
// its current window.
type backoff struct {
	rng   []xrand.Reseedable
	slots []backoffSlot
}

// backoffSlot is one node's window bookkeeping: at is the chosen transmit
// round within the current window, end the window's last round.
type backoffSlot struct {
	at, end int
}

// backoffWindow returns the window holding round: its first round and its
// length. Windows are 2, 4, 8, … rounds long, starting at round 1.
func backoffWindow(round int) (start, length int) {
	length = 2
	start = 1
	for start+length-1 < round {
		start += length
		length *= 2
	}
	return start, length
}

// Act implements sim.Population: entering a window, a node draws its slot
// uniformly from it; it transmits in that slot alone. All nodes share the
// round's window.
//
//crlint:hotpath
func (b *backoff) Act(round int, live []int, tx []bool) (count, last int) {
	start, length := backoffWindow(round)
	rng, slots := b.rng, b.slots
	last = -1
	for _, u := range live {
		s := &slots[u]
		if round > s.end {
			s.end = start + length - 1
			s.at = start + rng[u].IntN(length)
		}
		t := round == s.at
		tx[u] = t
		if t {
			count++
			last = u
		}
	}
	return count, last
}

// Hear implements sim.Population: backoff ignores feedback.
func (b *backoff) Hear(_ int, live []int, _ []int, _ sim.Feedback) []int { return live }

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

// Populate implements sim.Builder. It panics if N < 4.
func (d DampenedSweep) Populate(n int, seed uint64) sim.Population {
	if d.N < 4 {
		panic(fmt.Sprintf("baselines: DampenedSweep.N = %d must be ≥ 4", d.N))
	}
	levels, repeats := d.Levels(), d.Repeats()
	pass := levels * repeats
	prob := func(round int) float64 {
		pos := (round - 1) % pass // position within the pass
		level := pos/repeats + 1  // probability level 1 … levels
		return math.Ldexp(1, -level)
	}
	return &coins{prob: prob, rng: xrand.Streams(seed, n)}
}

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

// Populate implements sim.Builder.
func (CollisionDetectHalving) Populate(n int, seed uint64) sim.Population {
	h := &halving{rng: xrand.Streams(seed, n), candidate: make([]bool, n), sentLast: make([]bool, n)}
	for u := range h.candidate {
		h.candidate[u] = true
	}
	return h
}

// halving holds the cd-halving nodes: node u's private stream, whether it
// is still a candidate, and whether it transmitted in the last round.
type halving struct {
	rng       []xrand.Reseedable
	candidate []bool
	sentLast  []bool
}

// Act implements sim.Population: a candidate transmits with probability
// 1/2, drawing one Float64 as xrand.Bernoulli does; a withdrawn node
// listens and draws nothing. Every node remembers whether it transmitted.
//
//crlint:hotpath
func (h *halving) Act(_ int, live []int, tx []bool) (count, last int) {
	rng, candidate, sentLast := h.rng, h.candidate, h.sentLast
	last = -1
	for _, u := range live {
		t := candidate[u] && rng[u].Float64() < 0.5
		sentLast[u] = t
		tx[u] = t
		if t {
			count++
			last = u
		}
	}
	return count, last
}

// Hear implements sim.Population: a candidate that listened through a
// collision withdraws. Only a collision changes any node, so other rounds
// skip the pass. Withdrawn nodes stay live and keep listening, so
// sim.receptions still counts their receptions.
//
//crlint:hotpath
func (h *halving) Hear(_ int, live []int, _ []int, detect sim.Feedback) []int {
	if detect == sim.Collision {
		candidate, sentLast := h.candidate, h.sentLast
		for _, u := range live {
			if !sentLast[u] {
				candidate[u] = false
			}
		}
	}
	return live
}

// Active implements sim.ActivePopulation: whether node u is still a
// candidate. A Tracer's nodes thereby have the same Activeness shape as
// the core algorithm's.
func (h *halving) Active(u int) bool { return h.candidate[u] }

// coins is the population of the oblivious probability schedules: in each
// round every node transmits with the round's probability prob(round),
// shared by all nodes, drawn from its private stream. Sweep, decay and the
// dampened sweep are coins with different schedules.
type coins struct {
	prob func(round int) float64
	rng  []xrand.Reseedable
}

// Act implements sim.Population. It decides the round as xrand.Bernoulli
// would for each node: at p ≤ 0 or p ≥ 1 every node listens or every node
// transmits, without a draw; any other p draws one Float64 per node.
//
//crlint:hotpath
func (c *coins) Act(round int, live []int, tx []bool) (count, last int) {
	p := c.prob(round)
	if p <= 0 || p >= 1 {
		all := p >= 1
		for _, u := range live {
			tx[u] = all
		}
		if !all || len(live) == 0 {
			return 0, -1
		}
		return len(live), live[len(live)-1]
	}
	rng := c.rng
	last = -1
	for _, u := range live {
		t := rng[u].Float64() < p
		tx[u] = t
		if t {
			count++
			last = u
		}
	}
	return count, last
}

// Hear implements sim.Population: the schedules ignore feedback.
func (c *coins) Hear(_ int, live []int, _ []int, _ sim.Feedback) []int { return live }
