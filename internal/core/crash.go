package core

import (
	"fmt"

	"fadingcr/internal/sim"
	"fadingcr/internal/xrand"
)

// CrashFaults is a failure-injection wrapper: each node independently
// crash-stops with probability Rate at the start of every round, after which
// it neither transmits nor observes anything. Crash-stop faults are the
// standard benign fault model; they can only *reduce* contention, so
// contention resolution remains solvable as long as at least one node
// survives to transmit — the wrapper probes that the algorithms hold up
// when the participant set erodes mid-execution.
type CrashFaults struct {
	// Inner is the wrapped protocol; must be non-nil.
	Inner sim.Builder
	// Rate is the per-node per-round crash probability in [0, 1).
	Rate float64
}

var _ sim.Builder = CrashFaults{}

// Name implements sim.Builder.
func (c CrashFaults) Name() string {
	return fmt.Sprintf("crash(%s, rate=%.3g)", c.Inner.Name(), c.Rate)
}

// Populate implements sim.Builder: the inner population seeded
// xrand.Split(seed, 0), and node u's crash coins drawn from xrand.New(s_u),
// where s_u is the u-th Uint64 of xrand.New(xrand.Split(seed, 1)). It panics
// on a nil inner builder or a rate outside [0, 1) — static
// misconfigurations.
func (c CrashFaults) Populate(n int, seed uint64) sim.Population {
	if c.Inner == nil {
		panic("core: CrashFaults requires an inner builder")
	}
	if c.Rate < 0 || c.Rate >= 1 {
		panic(fmt.Sprintf("core: crash rate %v outside [0, 1)", c.Rate))
	}
	p := &crashPopulation{
		inner:   c.Inner.Populate(n, xrand.Split(seed, 0)),
		rate:    c.Rate,
		rng:     make([]xrand.Reseedable, n),
		crashed: make([]bool, n),
		alive:   make([]int, n),
	}
	seeds := xrand.New(xrand.Split(seed, 1))
	for u := range p.rng {
		p.rng[u].Reseed(seeds.Uint64())
	}
	return p
}

// crashPopulation runs its inner population over the nodes that have not
// crashed. A crashed node retires in the round it crashes; alive is Act's
// scratch list of the nodes that did not.
type crashPopulation struct {
	inner   sim.Population
	rate    float64
	rng     []xrand.Reseedable
	crashed []bool
	alive   []int
}

// Act implements sim.Population: each live node crashes with probability
// rate, drawing one Float64 as xrand.Bernoulli does (a rate of 0 draws
// nothing), and listens from then on; the others run the inner protocol.
//
//crlint:hotpath
func (p *crashPopulation) Act(round int, live []int, tx []bool) (count, last int) {
	alive := p.alive[:0]
	for _, u := range live {
		if p.rate > 0 && p.rng[u].Float64() < p.rate {
			p.crashed[u] = true
			tx[u] = false
			continue
		}
		alive = append(alive, u)
	}
	return p.inner.Act(round, alive, tx)
}

// Hear implements sim.Population: the nodes that crashed retire, and the
// others hear the round through the inner population. It drops the crashed
// nodes from live itself rather than reading Act's scratch, which a later
// Act in the same engine round may have overwritten.
//
//crlint:hotpath
func (p *crashPopulation) Hear(round int, live []int, recv []int, detect sim.Feedback) []int {
	j := 0
	for _, u := range live {
		if !p.crashed[u] {
			live[j] = u
			j++
		}
	}
	return p.inner.Hear(round, live[:j], recv, detect)
}

// Active implements sim.ActivePopulation: a crashed node is out, and any
// other contends as its inner node does.
func (p *crashPopulation) Active(u int) bool {
	return !p.crashed[u] && active(p.inner, u)
}
