package baselines

import (
	"math"

	"fadingcr/internal/sim"
	"fadingcr/internal/xrand"
)

// CDBinaryEstimate is Willard-style leader election by contention
// estimation on a full-sensing collision-detection channel (every node —
// including transmitters — observes the round's silence/collision
// trichotomy, the standard assumption of the estimation literature). It
// binary-searches the probability exponent j (broadcast probability 2^{-j}):
//
//  1. doubling: probe j = 1, 2, 4, 8, … until a silent round brackets the
//     contention level;
//  2. binary search inside the bracket: collision ⇒ contention above the
//     probe, silence ⇒ below;
//  3. sweep: cycle exponents in a window around the estimate, widening the
//     window each pass so convergence to a mis-estimate (the feedback is
//     stochastic) still terminates.
//
// A solo broadcast anywhere in the process solves contention resolution and
// stops the execution. The expected round count is O(log log n) + O(1) —
// included to complete the collision-detection landscape the paper cites;
// its w.h.p. bound remains Ω(log n) per [20], which experiment E6/E11's
// lower-bound machinery also applies to.
//
// Every node runs the same deterministic controller on the common channel
// feedback, so in a synchronous start all nodes probe the same exponent
// each round; only the per-node transmit coins differ. Each node still
// keeps its own controller: under core.StaggeredStart nodes see different
// feedback histories.
type CDBinaryEstimate struct{}

var _ sim.Builder = CDBinaryEstimate{}

// Name implements sim.Builder.
func (CDBinaryEstimate) Name() string { return "cd-binary-estimate" }

// Populate implements sim.Builder.
func (CDBinaryEstimate) Populate(n int, seed uint64) sim.Population {
	e := &estimate{rng: xrand.Streams(seed, n), ctrl: make([]estimateController, n)}
	for u := range e.ctrl {
		e.ctrl[u] = newEstimateController()
	}
	return e
}

// estimate holds the estimation nodes: node u's private stream and its
// replica of the controller.
type estimate struct {
	rng  []xrand.Reseedable
	ctrl []estimateController
}

// Act implements sim.Population: node u transmits with probability
// 2^{-j} for its controller's exponent j, deciding as xrand.Bernoulli does:
// p = 1 (j = 0) and p = 0 (an exponent past the float range) draw nothing.
//
//crlint:hotpath
func (e *estimate) Act(_ int, live []int, tx []bool) (count, last int) {
	last = -1
	for _, u := range live {
		p := math.Ldexp(1, -e.ctrl[u].exponent())
		t := p >= 1 || (p > 0 && e.rng[u].Float64() < p)
		tx[u] = t
		if t {
			count++
			last = u
		}
	}
	return count, last
}

// Hear implements sim.Population: every node's controller observes the
// round's feedback. No node retires.
//
//crlint:hotpath
func (e *estimate) Hear(_ int, live []int, _ []int, detect sim.Feedback) []int {
	for _, u := range live {
		e.ctrl[u].observe(detect)
	}
	return live
}

// estimateMode is the controller phase.
type estimateMode int

const (
	modeDoubling estimateMode = iota + 1
	modeSearch
	modeSweep
)

// estimateController is the replicated state machine, one replica per
// node. Replicas that receive identical feedback stay in lockstep.
type estimateController struct {
	mode   estimateMode
	j      int // exponent probed this round
	prev   int // last collision exponent during doubling
	lo, hi int // search bracket
	// sweep state
	center, width, offset int
}

func newEstimateController() estimateController {
	return estimateController{mode: modeDoubling, j: 1}
}

// exponent returns the probability exponent to probe this round.
func (c *estimateController) exponent() int { return c.j }

// observe advances the controller on the common feedback. Message never
// arrives: a solo broadcast ends the execution first.
func (c *estimateController) observe(detect sim.Feedback) {
	switch c.mode {
	case modeDoubling:
		if detect == sim.Collision {
			c.prev = c.j
			c.j *= 2
			return
		}
		// Silence: contention lies between the last collision and here.
		c.mode = modeSearch
		c.lo = c.prev
		c.hi = c.j
		c.stepSearch()
	case modeSearch:
		if detect == sim.Collision {
			c.lo = c.j + 1
		} else {
			c.hi = c.j - 1
		}
		c.stepSearch()
	case modeSweep:
		c.stepSweep()
	}
}

// stepSearch probes the bracket midpoint, or settles into the sweep.
func (c *estimateController) stepSearch() {
	if c.lo > c.hi {
		c.mode = modeSweep
		c.center = c.j
		c.width = 1
		c.offset = -1
		c.stepSweep()
		return
	}
	c.j = (c.lo + c.hi) / 2
}

// stepSweep cycles j over [center−width, center+width], widening the window
// after each full pass so a mis-estimate is eventually covered.
func (c *estimateController) stepSweep() {
	c.offset++
	if c.offset > 2*c.width {
		c.width++
		c.offset = 0
	}
	j := c.center - c.width + c.offset
	if j < 0 {
		j = 0
	}
	c.j = j
}
