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
// path-loss exponents (α ∈ {2, 3, 4, 6}), each ~5× cheaper than math.Pow.
// Its switch is too large to inline, so no pair loop calls it: at α = 3
// they compute cube in place, and at any other α the pre-loop pass
// (signals) calls it once per pair (DESIGN.md §8, "Pair loops").
//
//crlint:hotpath
func attenuation(d2, alpha float64) float64 {
	switch alpha {
	case 2:
		return 1 / d2
	case 3:
		return cube(d2)
	case 4:
		return 1 / (d2 * d2)
	case 6:
		return 1 / (d2 * d2 * d2)
	default:
		return math.Pow(d2, -alpha/2)
	}
}

// cube returns d2^{-3/2} = d^{-3}, attenuation's α = 3 arm, small enough
// to inline into the pair loops.
//
//crlint:hotpath
func cube(d2 float64) float64 {
	return 1 / (d2 * math.Sqrt(d2))
}

// signals fills dst with the signals of nodes at pv, in nodes' order,
// each powers·attenuation(Dist2, α) as the pair loops compute it and, when
// fades is non-nil, times the exact fade −ln x of its draw fades[i]
// (drawX), so a replay reads the draws its listener's brackets read; it
// returns dst resliced to len(nodes). It is the pair loops' pre-loop pass
// at α ≠ 3 and for a replay: the loops then read the signals and make no
// call (DESIGN.md §8, "Pair loops").
//
//crlint:hotpath
func signals(dst []float64, nodes []txNode, pv geom.Point, alpha float64, fades []uint64) []float64 {
	dst = dst[:len(nodes)]
	for i, nd := range nodes {
		s := nd.power * attenuation(nd.pt.Dist2(pv), alpha)
		if fades != nil {
			s *= -math.Log(drawX(fades[i]))
		}
		dst[i] = s
	}
	return dst
}

// signalAt returns transmitter i's signal at pv as the pair loops read
// it: sig[i] when the pre-loop pass filled sig, and otherwise nd's α = 3
// signal, computed in place.
//
//crlint:hotpath
func signalAt(sig []float64, i int, nd txNode, pv geom.Point) float64 {
	if sig != nil {
		return sig[i]
	}
	return nd.power * cube(nd.pt.Dist2(pv))
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
	grid     *txGrid     // the certificate's, once built
	noCert   bool        // the certificate cannot run on this channel
	workers  int         // pass one's workers (roundWorkers), the caller included
	all      []int       // 0, 1, …, n−1 (built on first use): every listener
	round    deliverRound
	job      tileJob // the round's tiles, as its workers claim them
	scratch  deliverScratch
	observer ReceptionObserver
}

// New builds the paper's uniform-power channel for the given parameters
// and node positions. It returns an error if the parameters are invalid or
// fewer than one node is given.
func New(params Params, pts []geom.Point) (*Channel, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return newChannel(params, pts, UniformPowers(len(pts), params.Power), nil)
}

// NewWithPowers builds a per-node-power channel. powers[u] is node u's
// transmission power; all must be positive and finite. The Power field of
// params is ignored. The paper's results are for the uniform-power model;
// this variant lets the repository exercise the power-control regime the
// related work ([11]) discusses and probe how sensitive the algorithm is to
// power heterogeneity (e.g. hardware spread).
func NewWithPowers(params Params, pts []geom.Point, powers []float64) (*Channel, error) {
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
	return newChannel(params, pts, append([]float64(nil), powers...), nil)
}

// NewRayleigh builds a Rayleigh-faded channel over the deployment: in every
// round, each transmitter→listener signal is scaled by an independent
// exponential random variable with mean 1 (the power fade of a
// Rayleigh-distributed amplitude). This is a robustness extension beyond
// the paper's model — the paper's "fading" refers to the geometric path
// loss of the SINR equation.
//
// The channel is deterministic given its seed and call sequence: it draws
// every fade of round r from one stream, Split(seed, r), at fixed
// positions. With m transmitters in the round and t_v of them below
// listener v, v's fade for its i-th transmitter (ascending, from 0) is draw
// m·(v − t_v) + i: ascending listener-then-transmitter order over every
// listener, as Deliver visits them. DeliverTo draws only its listed
// listeners' fades and jumps the stream over the rest, so each listed
// listener's fades, and receptions, are Deliver's. Each listed listener's
// fades are drawn once and kept. With no observer, most listeners are
// settled from bounds on them without a logarithm (in rounds of more than
// certSmallTx transmitters, first bounding only the fades its certificate
// walk sees, then all of them), and the rest replay the kept draws through
// the exact sum, so no fade and no reception depends on which path a
// listener took. A tile of a round's listeners starts from its own copy of
// the round's stream, advanced to its first listener's position, so the
// receptions are the same at any worker count.
func NewRayleigh(params Params, pts []geom.Point, seed uint64) (*Channel, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	// Reseeded every round; the construction seed is never consumed.
	fade := &fadeSource{seed: seed, rng: xrand.NewReseedable(seed)}
	return newChannel(params, pts, UniformPowers(len(pts), params.Power), fade)
}

// newChannel is the constructor body shared by New, NewWithPowers and
// NewRayleigh, with fade nil for an unfaded channel; it takes ownership of
// powers. The channel's rounds take roundWorkers(n) workers.
func newChannel(params Params, pts []geom.Point, powers []float64, fade *fadeSource) (*Channel, error) {
	if len(pts) == 0 {
		return nil, errors.New("sinr: channel needs at least one node")
	}
	c := &Channel{
		params:  params,
		pts:     append([]geom.Point(nil), pts...),
		powers:  powers,
		fade:    fade,
		scratch: newDeliverScratch(len(pts), fade != nil),
	}
	c.job.run = c
	c.setWorkers(roundWorkers(len(pts)))
	return c, nil
}

// setWorkers gives the channel's rounds w workers, the caller included: a
// scratch each, and at least w − 1 helpers in the package's pool.
func (c *Channel) setWorkers(w int) {
	if w != len(c.scratch.tiles) {
		c.scratch.tiles = newTileScratch(len(c.pts), w, c.params.Alpha, c.fade != nil)
	}
	c.workers = w
	ensureHelpers(w - 1)
}

// fadeSource is a faded channel's fade stream: the round count and one
// reusable, jumpable rng, reseeded at the start of every round and never
// advanced, so each tile copies the round-start state.
type fadeSource struct {
	seed  uint64
	round uint64
	rng   *xrand.Reseedable
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
// Observation never changes delivery results: with an observer installed
// every listener takes the full sum, whose exact ratio the observer sees,
// and the certified verdicts of an unobserved round equal the full sum's
// (DESIGN.md §8). Observed SINR values include the round's fades.
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
// every other entry of recv is left untouched. A faded channel draws the
// listed listeners' fades at their positions in the round's stream and
// jumps over the draws of every other listener (NewRayleigh), so a round
// costs its listed listeners' work on every channel.
//
// With no observer, a round with more than certSmallTx transmitters
// certifies each listener from its cell's block and a few grid rings
// around it where it can (certify.go): an unfaded channel visits its
// listeners cell by cell, and a faded one in list order, bracketing the
// fades its walks see. A faded listener the walk cannot settle, or any
// faded listener of a smaller round, brackets all its fades (bracketAll,
// the same walk over one run of every transmitter), reading the draws it
// drew once. Eq. (1) is summed exactly only where the bounds cannot
// decide, so the receptions are the full sum's.
//
//crlint:hotpath
func (c *Channel) DeliverTo(tx []bool, listeners []int, recv []int) {
	if len(tx) != len(c.pts) || len(recv) != len(c.pts) {
		panic(fmt.Sprintf("sinr: Deliver slice lengths tx=%d recv=%d, want %d", len(tx), len(recv), len(c.pts)))
	}
	mDeliveries.Inc()
	if c.fade != nil {
		// Every Deliver is a round of the fade stream, even a silent one.
		c.fade.rng.Reseed(xrand.Split(c.fade.seed, c.fade.round))
		c.fade.round++
	}
	mListeners.Add(int64(len(listeners)))
	txList := c.scratch.indices(tx)
	if len(txList) == 0 {
		for _, v := range listeners {
			recv[v] = -1
		}
		return
	}
	// Pass one visits vs: the listed listeners, or in an unfaded certified
	// round the non-transmitting ones in cell order.
	r := deliverRound{tx: tx, txList: txList, nodes: c.gather(c.scratch.txNodes, txList), vs: listeners}
	if len(txList) > certSmallTx && c.observer == nil {
		if r.cert = c.certGrid(); r.cert != nil {
			r.cert.prepare(txList, r.nodes)
			if c.fade == nil {
				r.vs = r.cert.sortListeners(tx, listeners)
			}
		}
	}
	c.round = r
	if len(r.vs) > deliverTile {
		mDeliveriesParallel.Inc()
		c.job.runTiles(len(r.vs), c.workers)
	} else {
		c.tile(0, 0, len(r.vs))
	}
	var counts tileCounts
	for w := range c.scratch.tiles {
		counts.add(c.scratch.tiles[w].counts)
		c.scratch.tiles[w].counts = tileCounts{}
	}
	counts.publish(c.fade != nil, uint64(len(txList)*(len(c.pts)-len(txList))))
	finalizeReceptions(c.params, &c.scratch, c.observer, tx, listeners, recv)
}

// deliverRound is one round's read-only input to the tile kernel.
type deliverRound struct {
	tx     []bool
	txList []int    // the transmitters, ascending
	nodes  []txNode // txList's positions and powers, gathered
	cert   *txGrid  // non-nil: certify listeners over this prepared grid
	vs     []int    // the listeners pass one visits, tile by tile
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

// tile is pass one of the channel's current round over positions
// [lo, hi) of its list, on worker slot's scratch (tiler).
//
//crlint:hotpath
func (c *Channel) tile(slot, lo, hi int) {
	c.accumulateTile(c.round.vs[lo:hi], c.round, &c.scratch.tiles[slot])
}

// accumulateTile is pass one of Deliver over the listeners in vs, one
// tile of the round's list, on worker scratch ts, and the one kernel of
// every mode: per non-transmitting listener, park the full ascending sum
// (sumAll) in the scratch arrays for the sequential threshold pass. An
// unfaded certified round's vs is in cell order, and certifyTile takes it,
// giving sumAll only the listeners its certificate cannot decide. A faded
// channel scales each signal by a fade from the round's one stream: the
// tile copies the round-start state and advances it to each listener v's
// position m·(v − t_v) (NewRayleigh), its first listener's included, so
// unlisted listeners, and unlisted transmitters, cost no draws, and no
// tile's draws depend on another's; it draws v's m fades into scratch once
// (drawFades), observed listeners included. Every later step reads them.
// With no observer, a faded listener takes walkFaded in a certified round,
// then the full bracket (bracketAll), each settling it from bounds on its
// fades without a logarithm, and a listener neither settles replays the
// same draws through sumAll. Concurrent tiles write disjoint listeners'
// entries, so they never share a buffer. It adds the tile's counts to
// ts.counts.
//
//crlint:hotpath
func (c *Channel) accumulateTile(vs []int, r deliverRound, ts *tileScratch) {
	sig := ts.sig
	if r.cert != nil && c.fade == nil {
		ts.counts.add(c.certifyTile(vs, r, sig))
		return
	}
	// Faded: the tile's stream, v's draws (m of them), the stream's
	// position, the draws taken, the transmitters below v (t_v), whether
	// brackets may settle listeners, the listeners settled (walked: on the
	// walk) and replayed, and the last walked cell's block.
	var rng *xrand.Reseedable
	var fades []uint64
	var m, pos, drawn uint64
	below := 0
	bracket := false
	var settled, walked, replayed int
	blk := certBlock{cell: -1}
	if c.fade != nil {
		rng, m = &ts.rng, uint64(len(r.nodes))
		*rng = *c.fade.rng
		fades = ts.draws[:m]
		bracket = c.observer == nil && certifiable(c.params, len(c.pts))
	}
	for _, v := range vs {
		if r.tx[v] {
			continue
		}
		if rng != nil {
			for below < len(r.txList) && r.txList[below] < v {
				below++
			}
			if at := m * uint64(v-below); at != pos {
				rng.Advance(at - pos)
				pos = at
			}
			pos += m
			drawn += m
			fadeCap := drawFades(rng, fades)
			if bracket {
				if r.cert != nil && c.walkFaded(v, r, fades, fadeCap, &blk, sig[0]) {
					settled++
					walked++
					continue
				}
				var w certWalk
				c.bracketAll(&w, v, r, fades, sig[0])
				if k, ok := c.params.fadedVerdict(w.lo, w.hi, w.top, w.topLo, w.second, w.tu); ok {
					c.scratch.park(v, r.txList, k)
					settled++
					continue
				}
				replayed++
			}
		}
		c.sumAll(v, r, fades, sig[0])
	}
	ts.counts.add(tileCounts{drawn: drawn, settled: settled, walked: walked, replayed: replayed})
}

// sumAll parks listener v's full sum: the signals of every transmitter
// summed in ascending transmitter index, each scaled by its fade when
// fades, v's draws by rank, is non-nil, with the first strict maximum and
// its sender. An unfaded α = 3 signal is computed in the loop; at any
// other α, or for a faded listener, the pre-loop pass fills buf (signals)
// and the loop reads it.
//
//crlint:hotpath
func (c *Channel) sumAll(v int, r deliverRound, fades []uint64, buf []float64) {
	pv, alpha := c.pts[v], c.params.Alpha
	var sig []float64
	if fades != nil || alpha != 3 {
		sig = signals(buf, r.nodes, pv, alpha, fades)
	}
	b, bi, t := -1.0, -1, 0.0
	for i, nd := range r.nodes {
		s := signalAt(sig, i, nd, pv)
		t += s
		if s > b {
			b, bi = s, i
		}
	}
	c.scratch.totals[v], c.scratch.best[v], c.scratch.bestU[v] = t, b, -1
	if bi >= 0 {
		c.scratch.bestU[v] = r.txList[bi]
	}
}

// fadedVerdict is the certificate's two tests over a faded listener's
// bracketed sums (its walk's): lo and hi are L and U, top is T, topLo ℓ
// and second T₂, and ti is T's sender's rank. No reception if
// T < β·(N + L − T − η); reception from T's sender if ℓ > T₂ and
// ℓ > β·(N + U − ℓ + η), with η = certEps·(N + U); ℓ > T₂ makes that
// sender the kernel's one strict maximum. It returns the rank decoded, ti
// or −1 for none, with ok false when neither test holds. The tests hold
// for any brackets around the kernel's computed signals, exact ones
// included (DESIGN.md §8).
//
//crlint:hotpath
func (p Params) fadedVerdict(lo, hi, top, topLo, second float64, ti int) (k int, ok bool) {
	switch {
	case p.certNone(lo, hi, top, 0, 0):
		return -1, true
	case topLo > second && p.certReceived(hi, 0, topLo):
		return ti, true
	}
	return -1, false
}

// certifiedReception is the total park writes for a certified reception;
// a full sum is never negative.
const certifiedReception = -1.0

// finalizeReceptions is pass two of Deliver: apply the SINR threshold per
// listener in ascending index order, writing receptions and invoking the
// observer. It is always sequential — the observer-ordering contract and
// byte-identical parallel delivery both depend on that. Certified verdicts
// pass through (certified rounds have no observer).
//
//crlint:hotpath
func finalizeReceptions(params Params, s *deliverScratch, obs ReceptionObserver, tx []bool, listeners, recv []int) {
	totals, best, bestU := s.totals, s.best, s.bestU
	for _, v := range listeners {
		recv[v] = -1
		if tx[v] || bestU[v] < 0 {
			continue
		}
		if totals[v] == certifiedReception {
			recv[v] = bestU[v]
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

const (
	// fadeBits is how many leading mantissa bits of a fade's x pick its
	// table cell.
	fadeBits = 10
	// fadePad widens every bracket past the rounding of its own arithmetic
	// and the error of math.Log, which are below 2⁻⁴⁵ (DESIGN.md §8).
	fadePad = 0x1p-40
)

// lnTab[i] is math.Log(1 + i·2⁻¹⁰), i = 0 … 2¹⁰: the ends of fadeBracket's
// table cells.
var lnTab = func() (t [1<<fadeBits + 1]float64) {
	for i := range t {
		t[i] = math.Log(1 + float64(i)/(1<<fadeBits))
	}
	return t
}()

// fadeBracket returns lo ≤ −math.Log(x) ≤ hi, for x = 1 − U with U a
// Float64 draw (so x = j·2⁻⁵³, 1 ≤ j ≤ 2⁵³), without a logarithm: with
// x = f·2^e and f ∈ [1, 2), −ln x = −e·ln 2 − ln f, and the top fadeBits
// bits of f's mantissa pick the table cell [lnTab[i], lnTab[i+1]] that
// holds ln f. Both ends are padded by fadePad, and lo is clamped at 0, the
// fade of x = 1.
//
//crlint:hotpath
func fadeBracket(x float64) (lo, hi float64) {
	bits := math.Float64bits(x)
	e := float64(1023-int(bits>>52)) * math.Ln2
	i := bits >> (52 - fadeBits) & (1<<fadeBits - 1)
	lo, hi = e-lnTab[i+1]-fadePad, e-lnTab[i]+fadePad
	if lo < 0 {
		lo = 0
	}
	return lo, hi
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
