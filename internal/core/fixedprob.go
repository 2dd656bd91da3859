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

// Populate implements sim.Builder. It panics if P is outside (0, 1).
func (f FixedProbability) Populate(n int, seed uint64) sim.Population {
	p := f.p()
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("core: broadcast probability %v outside (0, 1)", p))
	}
	pop := &fixedPopulation{p: p, rng: xrand.Streams(seed, n), active: make([]bool, n)}
	for u := range pop.active {
		pop.active[u] = true
	}
	return pop
}

// fixedPopulation holds the algorithm's nodes: node u is an "active" bit
// and a private random stream seeded xrand.Split(seed, u).
type fixedPopulation struct {
	p      float64
	rng    []xrand.Reseedable
	active []bool
}

// Act implements sim.Population: an active node transmits with probability
// p, drawing one Float64 as xrand.Bernoulli does for p in (0, 1); a
// knocked-out one listens and draws nothing.
//
//crlint:hotpath
func (pop *fixedPopulation) Act(_ int, live []int, tx []bool) (count, last int) {
	rng, active, p := pop.rng, pop.active, pop.p
	last = -1
	for _, u := range live {
		t := active[u] && rng[u].Float64() < p
		tx[u] = t
		if t {
			count++
			last = u
		}
	}
	return count, last
}

// Hear implements sim.Population: receiving any message knocks the node
// out, and it retires, since it never transmits again, ignores Hear and
// draws no randomness.
//
//crlint:hotpath
func (pop *fixedPopulation) Hear(_ int, live []int, recv []int, _ sim.Feedback) []int {
	active := pop.active
	k := 0
	for _, u := range live {
		if recv[u] >= 0 {
			active[u] = false
			continue
		}
		live[k] = u
		k++
	}
	return live[:k]
}

// Active implements sim.ActivePopulation: whether node u is still
// contending. A Tracer's nodes thereby implement Activeness.
func (pop *fixedPopulation) Active(u int) bool { return pop.active[u] }

// Activeness is what a Tracer's node has when its population exposes
// whether each node is still contending (sim.ActivePopulation); the
// analysis tracer uses it to reconstruct the active set.
type Activeness interface {
	Active() bool
}

// active reports whether node u of p still contends: p's own answer when it
// is a sim.ActivePopulation, and true otherwise, since such a protocol never
// stops contending.
func active(p sim.Population, u int) bool {
	if ap, ok := p.(sim.ActivePopulation); ok {
		return ap.Active(u)
	}
	return true
}
