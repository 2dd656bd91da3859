// Package core implements the paper's primary contribution: the
// fixed-probability contention resolution algorithm of Section 1, together
// with the analysis instrumentation of Sections 3.1–3.3 (link classes, good
// nodes, well-separated subsets, and class-bound vectors) used to validate
// the proof structure empirically.
//
// The algorithm could hardly be simpler — quoting the paper:
//
//	Each participating node starts in an active state; at the beginning of
//	each round, each node that is still active broadcasts with a constant
//	probability p; if an active node receives a message, it becomes
//	inactive.
//
// On a fading (SINR) channel this resolves contention in O(log n + log R)
// rounds with high probability (Theorem 1), beating the Ω(log² n) bound of
// the classical radio network model.
package core

import (
	"fmt"
	"math/rand/v2"

	"fadingcr/internal/sim"
	"fadingcr/internal/xrand"
)

// DefaultP is the broadcast probability used when a FixedProbability builder
// does not specify one. The analysis only requires *some* constant
// probability (fixed in Lemma 3 as c/(4·c_max)); 0.2 sits in the empirically
// flat region of experiment E9.
const DefaultP = 0.2

// FixedProbability builds the paper's algorithm. The zero value is valid and
// uses DefaultP.
type FixedProbability struct {
	// P is the per-round broadcast probability of an active node; must be
	// in (0, 1). Zero selects DefaultP.
	P float64
}

var _ sim.Builder = FixedProbability{}

// Name implements sim.Builder.
func (f FixedProbability) Name() string {
	return fmt.Sprintf("fixed-probability(p=%.3g)", f.p())
}

func (f FixedProbability) p() float64 {
	if f.P == 0 {
		return DefaultP
	}
	return f.P
}

// Build implements sim.Builder. It panics if P is outside (0, 1); builders
// are constructed by experiment code with compile-time constants, so this is
// a programming error rather than a runtime condition.
func (f FixedProbability) Build(n int, seed uint64) []sim.Node {
	p := f.p()
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("core: broadcast probability %v outside (0, 1)", p))
	}
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = &fpNode{
			rng:    xrand.New(xrand.Split(seed, uint64(i))),
			p:      p,
			active: true,
		}
	}
	return nodes
}

// fpNode is the per-node state machine: a single "active" bit plus a private
// random stream.
type fpNode struct {
	rng    *rand.Rand
	p      float64
	active bool
}

// Act implements sim.Node: an active node transmits with probability p.
func (u *fpNode) Act(round int) sim.Action {
	if u.active && xrand.Bernoulli(u.rng, u.p) {
		return sim.Transmit
	}
	return sim.Listen
}

// Hear implements sim.Node: receiving any message knocks the node out.
func (u *fpNode) Hear(round int, from int, detect sim.Feedback) {
	if from >= 0 {
		u.active = false
	}
}

// Retired implements sim.Retirer: a knocked-out node never transmits
// again, ignores Hear, and draws no randomness (Act tests the active bit
// first).
func (u *fpNode) Retired() bool { return !u.active }

// Active reports whether the node is still contending. It implements the
// Activeness interface used by tracers.
func (u *fpNode) Active() bool { return u.active }

// Activeness is implemented by nodes that expose whether they are still
// contending; the analysis tracer uses it to reconstruct the active set.
type Activeness interface {
	Active() bool
}
