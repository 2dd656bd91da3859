package core

import (
	"fmt"

	"fadingcr/internal/sim"
	"fadingcr/internal/xrand"
)

// Interleaved runs two protocols in alternation: protocol A owns the odd
// rounds, protocol B the even rounds, each seeing its own contiguous round
// numbering. This realises the paper's remark in Section 3.1: when R is
// unknown (so the O(log n + log R) bound of the fixed-probability algorithm
// cannot be compared against O(log² n) strategies a priori), "our algorithm
// can be interleaved with an existing algorithm" — the combination solves
// contention resolution in O(min(T_A, T_B)) · 2 rounds, inheriting the
// better bound of the two up to a factor 2.
//
// Note the alternation is sound for contention resolution because a solo
// broadcast in *any* round solves the problem, regardless of which
// sub-protocol produced it, and each sub-protocol's view (its own rounds
// only) remains a faithful execution of that protocol.
type Interleaved struct {
	// A runs in rounds 1, 3, 5, …; B in rounds 2, 4, 6, ….
	A, B sim.Builder
}

var _ sim.Builder = Interleaved{}

// Name implements sim.Builder.
func (il Interleaved) Name() string {
	return fmt.Sprintf("interleaved(%s ⊕ %s)", il.A.Name(), il.B.Name())
}

// Populate implements sim.Builder: A's population seeded
// xrand.Split(seed, 0) and B's seeded xrand.Split(seed, 1). It panics if
// either sub-builder is nil (a static misconfiguration).
func (il Interleaved) Populate(n int, seed uint64) sim.Population {
	if il.A == nil || il.B == nil {
		panic("core: Interleaved requires both sub-builders")
	}
	return &interleavedPopulation{
		sides: [2]sim.Population{il.A.Populate(n, xrand.Split(seed, 0)), il.B.Populate(n, xrand.Split(seed, 1))},
		out:   [2][]bool{make([]bool, n), make([]bool, n)},
		sub:   make([]int, n),
	}
}

// interleavedPopulation multiplexes two populations: engine round r is
// side 0's (A's) round (r+1)/2 when odd, side 1's (B's) round r/2 when
// even. out[s][u] reports whether side s has retired node u; a node
// retires once both sides have. sub is scratch for the round's side.
type interleavedPopulation struct {
	sides [2]sim.Population
	out   [2][]bool
	sub   []int
}

// side returns the side that owns round, and gathers into p.sub the listed
// nodes it has not retired.
//
//crlint:hotpath
func (p *interleavedPopulation) side(round int, live []int) (s int, sub []int) {
	s = 1 - round%2
	sub = p.sub[:0]
	for _, u := range live {
		if !p.out[s][u] {
			sub = append(sub, u)
		}
	}
	return s, sub
}

// Act implements sim.Population: the round's side acts over the nodes it
// has not retired, and the nodes it has retired listen.
//
//crlint:hotpath
func (p *interleavedPopulation) Act(round int, live []int, tx []bool) (count, last int) {
	s, sub := p.side(round, live)
	for _, u := range live {
		tx[u] = false
	}
	return p.sides[s].Act((round+1)/2, sub, tx)
}

// Hear implements sim.Population: the round's side hears over the nodes it
// has not retired and may retire some of them; live keeps every node that
// either side has not retired.
//
//crlint:hotpath
func (p *interleavedPopulation) Hear(round int, live []int, recv []int, detect sim.Feedback) []int {
	s, sub := p.side(round, live)
	out, other := p.out[s], p.out[1-s]
	for _, u := range sub {
		out[u] = true
	}
	for _, u := range p.sides[s].Hear((round+1)/2, sub, recv, detect) {
		out[u] = false
	}
	j := 0
	for _, u := range live {
		if !out[u] || !other[u] {
			live[j] = u
			j++
		}
	}
	return live[:j]
}

// Active implements sim.ActivePopulation: whether either side's node is
// still contending; a side whose population reports no activity counts as
// contending.
func (p *interleavedPopulation) Active(u int) bool {
	return active(p.sides[0], u) || active(p.sides[1], u)
}
