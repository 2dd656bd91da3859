package core

import (
	"fmt"

	"fadingcr/internal/sim"
	"fadingcr/internal/xrand"
)

// StaggeredStart is a robustness wrapper beyond the paper's synchronous-start
// model: each node wakes at an independent uniformly random round in
// [1, 1+MaxDelay] and runs the inner protocol from its own round 1 from
// there. Before waking, a node neither transmits nor processes receptions —
// the radio is off. The wrapper probes whether the knock-out cascade
// tolerates the "nodes activated at different times" regime common in real
// wake-up scenarios; contention resolution's solve condition (first solo
// broadcast among the participants) is unchanged.
type StaggeredStart struct {
	// Inner is the wrapped protocol; must be non-nil.
	Inner sim.Builder
	// MaxDelay ≥ 0 is the largest wake-up offset in rounds.
	MaxDelay int
}

var _ sim.Builder = StaggeredStart{}

// Name implements sim.Builder.
func (s StaggeredStart) Name() string {
	return fmt.Sprintf("staggered(%s, ≤%d)", s.Inner.Name(), s.MaxDelay)
}

// Populate implements sim.Builder: the inner population seeded
// xrand.Split(seed, 0), and wake offsets drawn in node order from
// xrand.New(xrand.Split(seed, 1)). It panics on a nil inner builder or
// negative delay (static misconfigurations).
func (s StaggeredStart) Populate(n int, seed uint64) sim.Population {
	if s.Inner == nil {
		panic("core: StaggeredStart requires an inner builder")
	}
	if s.MaxDelay < 0 {
		panic(fmt.Sprintf("core: StaggeredStart.MaxDelay %d must be ≥ 0", s.MaxDelay))
	}
	p := &staggeredPopulation{
		inner:  s.Inner.Populate(n, xrand.Split(seed, 0)),
		delay:  make([]int, n),
		start:  make([]int, s.MaxDelay+2),
		sorted: make([]int, n),
		keep:   make([]bool, n),
	}
	rng := xrand.New(xrand.Split(seed, 1))
	for u := range p.delay {
		p.delay[u] = rng.IntN(s.MaxDelay + 1)
	}
	return p
}

// staggeredPopulation runs node u of its inner population delay[u] rounds
// late: engine round r is its inner round r − delay[u], and it sleeps until
// that is 1. Each call sorts the nodes it is given by delay, group d at
// sorted[start[d]:start[d+1]], and drives the inner population once per
// awake group. A node retires when its inner node does.
type staggeredPopulation struct {
	inner  sim.Population
	delay  []int
	start  []int
	sorted []int
	keep   []bool
}

// group sorts live by delay into p.sorted (a stable counting sort), and
// returns how many groups are awake in round — those of the delays below
// round — and the grouped nodes of the rest.
//
//crlint:hotpath
func (p *staggeredPopulation) group(round int, live []int) (awake int, asleep []int) {
	start, delay := p.start, p.delay
	clear(start)
	for _, u := range live {
		start[delay[u]]++
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}
	for i := len(live) - 1; i >= 0; i-- {
		d := delay[live[i]]
		start[d]--
		p.sorted[start[d]] = live[i]
	}
	awake = min(round, len(start)-1)
	return awake, p.sorted[start[awake]:len(live)]
}

// Act implements sim.Population: asleep nodes listen, and each awake group
// acts in its own inner round. The last transmitter in live order is the
// highest-numbered one of any group.
//
//crlint:hotpath
func (p *staggeredPopulation) Act(round int, live []int, tx []bool) (count, last int) {
	awake, asleep := p.group(round, live)
	for _, u := range asleep {
		tx[u] = false
	}
	last = -1
	for d := 0; d < awake; d++ {
		if g := p.sorted[p.start[d]:p.start[d+1]]; len(g) > 0 {
			c, l := p.inner.Act(round-d, g, tx)
			count += c
			last = max(last, l)
		}
	}
	return count, last
}

// Hear implements sim.Population: asleep nodes hear nothing — the radio is
// off — and each awake group hears in its own inner round; live keeps the
// asleep nodes and those the inner population kept.
//
//crlint:hotpath
func (p *staggeredPopulation) Hear(round int, live []int, recv []int, detect sim.Feedback) []int {
	awake, asleep := p.group(round, live)
	keep := p.keep
	for _, u := range asleep {
		keep[u] = true
	}
	for d := 0; d < awake; d++ {
		if g := p.sorted[p.start[d]:p.start[d+1]]; len(g) > 0 {
			for _, u := range g {
				keep[u] = false
			}
			for _, u := range p.inner.Hear(round-d, g, recv, detect) {
				keep[u] = true
			}
		}
	}
	j := 0
	for _, u := range live {
		if keep[u] {
			live[j] = u
			j++
		}
	}
	return live[:j]
}

// Active implements sim.ActivePopulation: the inner node's activity; an
// asleep node counts as active, since it will contend once awake.
func (p *staggeredPopulation) Active(u int) bool { return active(p.inner, u) }
