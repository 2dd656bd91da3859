// Package sinr implements the paper's fading channel: reception is governed
// by the signal-to-interference-and-noise-ratio equation (Equation 1 of
// Section 2). A listening node v receives a message from transmitter u, in a
// round where the nodes of I also transmit, iff
//
//	SINR(u, v, I) = (P/d(u,v)^α) / (N + Σ_{w∈I} P/d(w,v)^α) ≥ β,
//
// where P is the fixed transmission power, α > 2 the path-loss exponent,
// N ≥ 0 the ambient noise, and β the decoding threshold.
//
// One Channel type evaluates the equation for every variant the repository
// uses: the paper's uniform-power channel (New), per-node powers
// (NewWithPowers), and an optional Rayleigh-faded extension (per-round
// exponential signal scaling, NewRayleigh) used by robustness experiments.
package sinr

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"fadingcr/internal/geom"
	"fadingcr/internal/xrand"
)

// DefaultSingleHopMargin is the paper's constant c in the single-hop
// condition P > c·β·N·d(u,v)^α; Section 2 notes c ≥ 4 suffices.
const DefaultSingleHopMargin = 4

// Params collects the physical-layer constants of the SINR equation.
type Params struct {
	// Alpha is the path-loss exponent. The paper's analysis requires
	// Alpha > 2; the simulator accepts any Alpha > 0 so experiments can
	// probe the α → 2 degradation.
	Alpha float64
	// Beta is the SINR decoding threshold β > 0. With Beta ≥ 1 at most one
	// transmitter can be decoded by any listener in a round.
	Beta float64
	// Noise is the ambient noise N ≥ 0.
	Noise float64
	// Power is the fixed transmission power P > 0 shared by all nodes.
	Power float64
}

// Validate reports whether the parameters are usable by the channel.
func (p Params) Validate() error {
	switch {
	case !(p.Alpha > 0) || math.IsInf(p.Alpha, 1):
		return fmt.Errorf("sinr: alpha %v must be positive and finite", p.Alpha)
	case !(p.Beta > 0) || math.IsInf(p.Beta, 1):
		return fmt.Errorf("sinr: beta %v must be positive and finite", p.Beta)
	case p.Noise < 0 || math.IsNaN(p.Noise) || math.IsInf(p.Noise, 1):
		return fmt.Errorf("sinr: noise %v must be in [0, ∞)", p.Noise)
	case !(p.Power > 0) || math.IsInf(p.Power, 1):
		return fmt.Errorf("sinr: power %v must be positive and finite", p.Power)
	}
	return nil
}

// Signal returns the received signal strength P/d^α of a transmission over
// distance d > 0.
func (p Params) Signal(d float64) float64 {
	return p.Power * math.Pow(d, -p.Alpha)
}

// attenuation returns d2^{-α/2} = d^{-α} with fast paths for the common
// path-loss exponents (α ∈ {2, 3, 4, 6}); the SINR delivery loop spends
// essentially all its time here, and the fast paths are ~5× cheaper than
// math.Pow.
//
//crlint:hotpath
func attenuation(d2, alpha float64) float64 {
	switch alpha {
	case 2:
		return 1 / d2
	case 3:
		return 1 / (d2 * math.Sqrt(d2))
	case 4:
		return 1 / (d2 * d2)
	case 6:
		return 1 / (d2 * d2 * d2)
	default:
		return math.Pow(d2, -alpha/2)
	}
}

// SINR returns the ratio signal/(Noise + interference).
func (p Params) SINR(signal, interference float64) float64 {
	return signal / (p.Noise + interference)
}

// powerCondition is the right-hand side margin·β·N·maxDist^α of the paper's
// single-hop condition, shared by MinSingleHopPower and SingleHopFeasible so
// the formula cannot drift between the derivation and the check.
func powerCondition(alpha, beta, noise, maxDist, margin float64) float64 {
	return margin * beta * noise * math.Pow(maxDist, alpha)
}

// MinSingleHopPower returns the smallest power satisfying the paper's
// single-hop condition P > margin·β·N·maxDist^α with a small head-room
// factor, so that every node pair can communicate in the absence of
// interference with a constant-factor SINR margin. For N = 0 the condition
// is vacuous and the function returns 1.
func MinSingleHopPower(alpha, beta, noise, maxDist, margin float64) float64 {
	if noise == 0 {
		return 1
	}
	return powerCondition(alpha, beta, noise, maxDist, margin) * 1.01
}

// SingleHopFeasible reports whether the parameters satisfy the single-hop
// condition P > margin·β·N·maxDist^α for the given maximum link length.
func (p Params) SingleHopFeasible(maxDist, margin float64) bool {
	return p.Power > powerCondition(p.Alpha, p.Beta, p.Noise, maxDist, margin)
}

// A ReceptionObserver sees every decoded reception at the moment the
// delivery engine commits it: listener v decodes the message of transmitter
// u with the achieved ratio sinr ≥ β and margin = sinr − β. Within a round,
// observers are invoked in ascending listener order (the threshold pass is
// always sequential), so the call sequence is deterministic in every mode.
// DeliverTo commits receptions at its listed listeners only.
//
// The hook exists for tracing and never feeds back into delivery: observers
// must not call back into the channel, and a nil observer (the default)
// costs one pointer test per decode — the hot paths stay allocation-free.
type ReceptionObserver interface {
	OnReception(listener, from int, sinr, margin float64)
}

// Channel is the SINR channel over a fixed deployment: every node u
// transmits at its own fixed power powers[u] (all equal to Params.Power for
// the paper's channel), and an optional Rayleigh fade source scales each
// signal per round. It is not safe for concurrent use (it owns reusable
// delivery scratch buffers); create one channel per goroutine.
type Channel struct {
	params   Params
	pts      []geom.Point
	powers   []float64
	fade     *fadeSource // nil: the paper's deterministic channel
	ff       *farField   // nil: exact delivery (the default)
	par      int         // ≥ 2: intra-round parallel workers
	all      []int       // 0, 1, …, n−1 (built on first use): every listener
	scratch  deliverScratch
	observer ReceptionObserver
}

// New builds the paper's uniform-power channel for the given parameters
// and node positions. It returns an error if the parameters are invalid or
// fewer than one node is given. WithFarFieldEps selects the approximate ε
// far-field engine (see farfield.go), the only option that can change
// receptions — within its documented error bound.
func New(params Params, pts []geom.Point, opts ...Option) (*Channel, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return newChannel(params, pts, UniformPowers(len(pts), params.Power), opts)
}

// NewWithPowers builds a per-node-power channel. powers[u] is node u's
// transmission power; all must be positive and finite. The Power field of
// params is ignored. The paper's results are for the uniform-power model;
// this variant lets the repository exercise the power-control regime the
// related work ([11]) discusses and probe how sensitive the algorithm is to
// power heterogeneity (e.g. hardware spread).
func NewWithPowers(params Params, pts []geom.Point, powers []float64, opts ...Option) (*Channel, error) {
	probe := params
	probe.Power = 1 // validate the shared constants independently of Power
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, errors.New("sinr: channel needs at least one node")
	}
	if len(powers) != len(pts) {
		return nil, fmt.Errorf("sinr: %d powers for %d nodes", len(powers), len(pts))
	}
	for u, p := range powers {
		if !(p > 0) || math.IsInf(p, 1) {
			return nil, fmt.Errorf("sinr: node %d power %v must be positive and finite", u, p)
		}
	}
	return newChannel(params, pts, append([]float64(nil), powers...), opts)
}

// NewRayleigh builds a Rayleigh-faded channel over the deployment: in every
// round, each transmitter→listener signal is scaled by an independent
// exponential random variable with mean 1 (the power fade of a
// Rayleigh-distributed amplitude). This is a robustness extension beyond
// the paper's model — the paper's "fading" refers to the geometric path
// loss of the SINR equation.
//
// The channel is deterministic given its seed and call sequence. Without
// options it draws every fade of round r from one stream,
// Split(seed, r), in ascending listener-then-transmitter order. The ε
// far-field option or any parallel option (an explicit worker count of 1
// included) instead draws listener v's fades from its own substream,
// Split(Split(seed, r), v), in ascending transmitter order — deterministic
// at any worker count, but a different (equally distributed) stream.
func NewRayleigh(params Params, pts []geom.Point, seed uint64, opts ...Option) (*Channel, error) {
	c, err := New(params, pts, opts...)
	if err != nil {
		return nil, err
	}
	ec, _ := resolveEngine(opts) // New has validated the options
	c.fade = &fadeSource{
		seed:        seed,
		perListener: c.ff != nil || ec.parallel >= 1,
		rngs:        make([]*xrand.Reseedable, c.par),
	}
	for w := range c.fade.rngs {
		// Reseeded before every use; the construction seed is never consumed.
		c.fade.rngs[w] = xrand.NewReseedable(xrand.Split(seed, uint64(w)))
	}
	return c, nil
}

// newChannel is the constructor body shared by New and NewWithPowers; it
// takes ownership of powers.
func newChannel(params Params, pts []geom.Point, powers []float64, opts []Option) (*Channel, error) {
	if len(pts) == 0 {
		return nil, errors.New("sinr: channel needs at least one node")
	}
	ec, err := resolveEngine(opts)
	if err != nil {
		return nil, err
	}
	c := &Channel{
		params:  params,
		pts:     append([]geom.Point(nil), pts...),
		powers:  powers,
		par:     ec.workers(),
		scratch: newDeliverScratch(len(pts)),
	}
	if ec.farFieldEps > 0 {
		minP, maxP := powers[0], powers[0]
		for _, p := range powers[1:] {
			minP = math.Min(minP, p)
			maxP = math.Max(maxP, p)
		}
		c.ff, err = newFarField(c.pts, params.Alpha, params.Noise, minP, maxP, ec.farFieldEps, c.par)
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// fadeSource is a faded channel's per-round fade state: one reusable rng
// per worker, reseeded per round (the single-stream rule, worker 0 only) or
// per listener (the substream rule).
type fadeSource struct {
	seed        uint64
	round       uint64
	perListener bool
	rngs        []*xrand.Reseedable
}

// N returns the number of nodes on the channel.
func (c *Channel) N() int { return len(c.pts) }

// Params returns the channel's physical-layer parameters.
func (c *Channel) Params() Params { return c.params }

// Powers returns a copy of the per-node power assignment.
func (c *Channel) Powers() []float64 {
	return append([]float64(nil), c.powers...)
}

// Faded reports whether the channel applies Rayleigh fades (NewRayleigh).
func (c *Channel) Faded() bool { return c.fade != nil }

// SetObserver installs (or, with nil, removes) the reception observer.
// Observation never changes delivery results — the engine computes the
// identical float sequence with or without an observer. Observed SINR
// values include the round's fades.
func (c *Channel) SetObserver(o ReceptionObserver) { c.observer = o }

// signal returns the unfaded received signal strength powers[u]·d(u,v)^{-α}
// of transmitter u at listener v.
func (c *Channel) signal(u, v int) float64 {
	return c.powers[u] * attenuation(c.pts[u].Dist2(c.pts[v]), c.params.Alpha)
}

// Deliver computes one round of reception. tx[u] reports whether node u
// transmits this round; recv must have length N and is filled so that
// recv[v] is the index of the transmitter whose message v received, or −1 if
// v received nothing (transmitters always have recv[v] = −1: a node cannot
// listen while transmitting). When Beta < 1 several transmitters may clear
// the SINR threshold at one listener; the channel then delivers the
// strongest.
//
//crlint:hotpath
func (c *Channel) Deliver(tx []bool, recv []int) {
	c.DeliverTo(tx, c.allListeners(), recv)
}

// allListeners returns the list 0, 1, …, n−1, building it on the first
// call: a channel that only ever delivers to live listeners never needs
// it.
//
//crlint:hotpath
func (c *Channel) allListeners() []int {
	if c.all == nil {
		//crlint:allow hotalloc built once per channel, on its first full-listener round
		c.all = make([]int, len(c.pts))
		for v := range c.all {
			c.all[v] = v
		}
	}
	return c.all
}

// DeliverTo is Deliver restricted to listeners, an ascending list of
// distinct node indices (it implements sim.ListenerChannel): recv[v] is
// computed for every listed v, bit for bit as Deliver computes it, and
// every other entry of recv is left untouched. The one exception is a
// faded channel on the single fade stream (NewRayleigh without options),
// which draws the round's fades listener by listener: it evaluates every
// listener, as Deliver does, so the stream cannot shift.
//
//crlint:hotpath
func (c *Channel) DeliverTo(tx []bool, listeners []int, recv []int) {
	if len(tx) != len(c.pts) || len(recv) != len(c.pts) {
		panic(fmt.Sprintf("sinr: Deliver slice lengths tx=%d recv=%d, want %d", len(tx), len(recv), len(c.pts)))
	}
	mDeliveries.Inc()
	if c.ff != nil {
		mDeliveriesFarField.Inc()
	}
	var roundSeed uint64
	if c.fade != nil {
		// Every Deliver is a round of the fade stream, even a silent one.
		roundSeed = xrand.Split(c.fade.seed, c.fade.round)
		c.fade.round++
		if !c.fade.perListener {
			c.fade.rngs[0].Reseed(roundSeed)
			listeners = c.allListeners()
		}
	}
	mListeners.Add(int64(len(listeners)))
	txList := c.scratch.indices(tx)
	if len(txList) == 0 {
		for _, v := range listeners {
			recv[v] = -1
		}
		return
	}
	if c.ff != nil {
		c.ff.prepareRound(txList)
	}
	r := deliverRound{tx: tx, txList: txList, nodes: c.gather(c.scratch.txNodes, txList), seed: roundSeed}
	if c.par > 1 {
		//crlint:allow hotalloc deliverParallel's worker closures are the documented O(workers) per-round cost of the opt-in parallel engine
		c.deliverParallel(listeners, r)
	} else {
		c.accumulateTile(0, listeners, r)
	}
	finalizeReceptions(c.params, &c.scratch, c.observer, tx, listeners, recv)
}

// deliverRound is one round's read-only input to the tile kernel.
type deliverRound struct {
	tx     []bool
	txList []int    // the transmitters, ascending
	nodes  []txNode // txList's positions and powers, gathered
	seed   uint64   // the round's fade seed (faded channels)
}

// txNode is one transmitter as the pair loop reads it. Gathering the
// round's transmitters into one contiguous array lets the loop range over
// it without an index indirection or bounds checks per pair.
type txNode struct {
	pt    geom.Point
	power float64
}

// gather fills buf with the positions and powers of the nodes in idx, in
// order; buf must have capacity len(idx).
//
//crlint:hotpath
func (c *Channel) gather(buf []txNode, idx []int) []txNode {
	buf = buf[:len(idx)]
	for i, u := range idx {
		buf[i] = txNode{c.pts[u], c.powers[u]}
	}
	return buf
}

// deliverParallel fans pass one out over runTiles, whose tiles partition
// the positions of the listener list. It is deliberately not
// hotpath-annotated: the kernel closure and goroutines allocate O(workers)
// per round, the documented cost of the parallel option.
func (c *Channel) deliverParallel(listeners []int, r deliverRound) {
	mDeliveriesParallel.Inc()
	runTiles(len(listeners), c.par, func(w, lo, hi int) { c.accumulateTile(w, listeners[lo:hi], r) })
}

// accumulateTile is pass one of Deliver over the listeners in vs, the one
// kernel of every mode: per non-transmitting listener, sum the signals of
// its transmitter set — all transmitters, or the ε engine's near set — in
// ascending transmitter index, tracking the first strict maximum, and park
// the total, the strongest signal and its sender in the scratch arrays for
// the sequential threshold pass. A faded channel multiplies each signal by
// its next fade draw, from the round's single stream (sequential only, so
// the draws run listener-then-transmitter) or from the listener's own
// substream. The worker index selects per-worker scratch, so concurrent
// tiles never share a buffer.
//
//crlint:hotpath
func (c *Channel) accumulateTile(worker int, vs []int, r deliverRound) {
	totals, best, bestU := c.scratch.totals, c.scratch.best, c.scratch.bestU
	alpha := c.params.Alpha
	var rng *rand.Rand
	if c.fade != nil {
		rng = c.fade.rngs[worker].Rand
	}
	pruned := int64(0)
	for _, v := range vs {
		totals[v], best[v], bestU[v] = 0, -1, -1
		if r.tx[v] {
			continue
		}
		near, nodes := r.txList, r.nodes
		if c.ff != nil {
			if near = c.ff.nearSet(worker, v, r.tx, r.txList); len(near) < len(r.txList) {
				pruned += int64(len(r.txList) - len(near))
				nodes = c.gather(c.ff.nodes[worker], near)
			}
		}
		if rng != nil && c.fade.perListener {
			c.fade.rngs[worker].Reseed(xrand.Split(r.seed, uint64(v)))
		}
		pv := c.pts[v]
		b, bi, t := -1.0, -1, 0.0
		for i, nd := range nodes {
			s := nd.power * attenuation(nd.pt.Dist2(pv), alpha)
			if rng != nil {
				s *= expFade(rng)
			}
			t += s
			if s > b {
				b, bi = s, i
			}
		}
		totals[v], best[v] = t, b
		if bi >= 0 {
			bestU[v] = near[bi]
		}
	}
	if pruned > 0 {
		mFarFieldPrunedTx.Add(pruned)
	}
}

// finalizeReceptions is pass two of Deliver: apply the SINR threshold per
// listener in ascending index order, writing receptions and invoking the
// observer. It is always sequential — the observer-ordering contract and
// byte-identical parallel delivery both depend on that.
//
//crlint:hotpath
func finalizeReceptions(params Params, s *deliverScratch, obs ReceptionObserver, tx []bool, listeners, recv []int) {
	totals, best, bestU := s.totals, s.best, s.bestU
	for _, v := range listeners {
		recv[v] = -1
		if tx[v] || bestU[v] < 0 {
			continue
		}
		// Interference for the strongest candidate excludes its own signal.
		if ratio := params.SINR(best[v], totals[v]-best[v]); ratio >= params.Beta {
			recv[v] = bestU[v]
			if obs != nil {
				obs.OnReception(v, bestU[v], ratio, ratio-params.Beta)
			}
		}
	}
}

// expFade draws a unit-mean exponential fade.
//
//crlint:hotpath
func expFade(rng *rand.Rand) float64 {
	// Inverse-CDF sampling; 1−U avoids log(0).
	return -math.Log(1 - rng.Float64())
}

// Receivable returns every transmitter whose unfaded SINR at listener v
// clears the threshold (useful with Beta < 1, where more than one can). It
// returns nil when v itself transmits.
func (c *Channel) Receivable(tx []bool, v int) []int {
	if tx[v] {
		return nil
	}
	txList := c.scratch.indices(tx)
	signals := make([]float64, len(txList))
	total := 0.0
	for i, u := range txList {
		signals[i] = c.signal(u, v)
		total += signals[i]
	}
	var out []int
	for i, u := range txList {
		if c.params.SINR(signals[i], total-signals[i]) >= c.params.Beta {
			out = append(out, u)
		}
	}
	return out
}

// InterferenceAt returns Σ_{u ∈ tx, u ≠ v} powers[u]/d(u,v)^α, the total
// unfaded signal energy arriving at node v from the given transmitter set.
func (c *Channel) InterferenceAt(tx []bool, v int) float64 {
	total := 0.0
	for u := range c.pts {
		if !tx[u] || u == v {
			continue
		}
		total += c.signal(u, v)
	}
	return total
}

// UniformPowers returns a power vector assigning the same power to all n
// nodes — NewWithPowers(params, pts, UniformPowers(n, P)) behaves exactly
// like New(params with Power P, pts).
func UniformPowers(n int, power float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = power
	}
	return out
}
