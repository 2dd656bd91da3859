package core

import (
	"fmt"

	"fadingcr/internal/sim"
)

// WithKnockout grafts the paper's knock-out rule onto any protocol: a node
// runs the inner protocol until it receives a message, then goes permanently
// silent. The paper's algorithm is exactly WithKnockout applied to
// "broadcast with constant probability p forever"; wrapping the *classical*
// strategies isolates which ingredient buys the speed-up on a fading channel
// — the answer (experiment E17) is the knock-out rule: even the Θ(log² n)
// sweep collapses to near-Θ(log n) once knocked-out nodes leave the channel,
// because spatial reuse lets captures deactivate nodes continuously.
type WithKnockout struct {
	// Inner is the wrapped protocol; must be non-nil.
	Inner sim.Builder
}

var _ sim.Builder = WithKnockout{}

// Name implements sim.Builder.
func (w WithKnockout) Name() string {
	return fmt.Sprintf("knockout(%s)", w.Inner.Name())
}

// Populate implements sim.Builder: the inner population, seeded with seed,
// under the knock-out rule. It panics on a nil inner builder.
func (w WithKnockout) Populate(n int, seed uint64) sim.Population {
	if w.Inner == nil {
		panic("core: WithKnockout requires an inner builder")
	}
	return &knockoutPopulation{inner: w.Inner.Populate(n, seed), out: make([]bool, n)}
}

// knockoutPopulation runs its inner population until a node receives a
// message: out[u] reports that node u has. A knocked-out node retires, and
// so does a node the inner population retires.
type knockoutPopulation struct {
	inner sim.Population
	out   []bool
}

// Act implements sim.Population: the live nodes run the inner protocol.
//
//crlint:hotpath
func (k *knockoutPopulation) Act(round int, live []int, tx []bool) (count, last int) {
	return k.inner.Act(round, live, tx)
}

// Hear implements sim.Population: a node that received a message is
// knocked out, and the others hear the round through the inner population.
//
//crlint:hotpath
func (k *knockoutPopulation) Hear(round int, live []int, recv []int, detect sim.Feedback) []int {
	j := 0
	for _, u := range live {
		if recv[u] >= 0 {
			k.out[u] = true
			continue
		}
		live[j] = u
		j++
	}
	return k.inner.Hear(round, live[:j], recv, detect)
}

// Active implements sim.ActivePopulation: whether node u has not been
// knocked out.
func (k *knockoutPopulation) Active(u int) bool { return !k.out[u] }
