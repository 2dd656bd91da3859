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
// feedback, so all nodes probe the same exponent each round; only the
// per-node transmit coins differ.
type CDBinaryEstimate struct{}

var _ sim.Builder = CDBinaryEstimate{}

// Name implements sim.Builder.
func (CDBinaryEstimate) Name() string { return "cd-binary-estimate" }

// Build implements sim.Builder.
func (CDBinaryEstimate) Build(n int, seed uint64) []sim.Node {
	rngs := xrand.Streams(seed, n)
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = &estimateNode{rng: &rngs[i], ctrl: newEstimateController()}
	}
	return nodes
}

// estimateMode is the controller phase.
type estimateMode int

const (
	modeDoubling estimateMode = iota + 1
	modeSearch
	modeSweep
)

// estimateController is the shared (replicated) state machine. All replicas
// receive identical feedback and therefore stay in lockstep.
type estimateController struct {
	mode   estimateMode
	j      int // exponent probed this round
	prev   int // last collision exponent during doubling
	lo, hi int // search bracket
	// sweep state
	center, width, offset int
}

func newEstimateController() *estimateController {
	return &estimateController{mode: modeDoubling, j: 1}
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

type estimateNode struct {
	rng  *xrand.Reseedable
	ctrl *estimateController
}

// Act transmits with probability 2^{-j}, deciding as xrand.Bernoulli does:
// p = 1 (j = 0) and p = 0 (an exponent past the float range) draw nothing.
func (u *estimateNode) Act(round int) sim.Action {
	p := math.Ldexp(1, -u.ctrl.exponent())
	if p >= 1 || (p > 0 && u.rng.Float64() < p) {
		return sim.Transmit
	}
	return sim.Listen
}

func (u *estimateNode) Hear(round int, from int, detect sim.Feedback) {
	u.ctrl.observe(detect)
}
