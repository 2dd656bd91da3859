package sinr

import (
	"math"

	"fadingcr/internal/geom"
	"fadingcr/internal/xrand"
)

// Certified exact delivery.
//
// With α > 2 a listener's reception is settled by its nearby transmitters:
// the far annuli can only add a geometrically bounded amount of
// interference. The certificate turns that into a proof. Listeners are
// visited cell by cell; each sums the exact signals of its cell's 3×3 block
// (S, with the strongest b and its sender chosen by the kernel's own rule)
// and, while undecided, walks grid rings outward from ring 2. Before ring r
// every unseen transmitter's signal is at most ringCap[r], so with
// B = max(b, ringCap[r]) (B = b once every transmitter is seen) two tests
// can settle the listener:
//
//   - no reception if B < β·(N + S − B − η̂), η̂ = certEps·(N + S +
//     unseen·ringCap[r]);
//   - reception from b's sender, once no unseen transmitter can reach b, if
//     β·(N + S + F − b + η) < b, η = certEps·(N + S + F),
//
// where F bounds the unseen signal ring by ring. η and η̂ exceed every
// rounding the kernel's full ascending sum can make, so either verdict
// equals the full sum's bit for bit; when neither test holds, the listener
// falls back to the full sum. A faded listener takes the same walk over
// brackets g·[lo, hi] on its signals, with ringCap[k] scaled by its largest
// fade's upper bracket (walkFaded); an exact listener is the case
// lo = hi = 1, scaled by 1. DESIGN.md §8 has the argument.
const (
	// certEps is the certificate's relative slack: distance floors shrink
	// and per-ring bounds grow by it, and each test must hold by a margin of
	// certEps times the bound on N plus every signal, which exceeds the
	// rounding of an m-term ascending sum for every m below certMaxNodes.
	certEps = 0x1p-30
	// certMaxNodes bounds the deployments the certificate runs on: above it
	// an m-term sum's rounding, and the grid's cell-assignment rounding, could
	// outgrow certEps.
	certMaxNodes = 1 << 22
	// certRange bounds the magnitudes a test may see: a strongest signal
	// (b, or B) ≥ 1/certRange, a bound on N plus every signal ≤ certRange,
	// β ≥ 1/certRange and a grid extent e with e² ≤ certRange keep every
	// quantity of the tests, of the ring caps and of the kernel's ratio clear
	// of underflow and overflow, where relative rounding bounds fail.
	certRange = 0x1p900
	// certExactRings is how many unseen rings the far bound F counts one by
	// one before it groups rings in doubling blocks.
	certExactRings = 8
)

// certifiable reports whether a channel with these parameters and n nodes
// can take the certificate at all.
func certifiable(p Params, n int) bool {
	return n <= certMaxNodes && p.Beta >= 1/certRange
}

// certGrid returns the grid the certificate walks, building it on the
// first call; nil when the channel cannot certify (certifiable, or
// newTxGrid).
//
//crlint:hotpath
func (c *Channel) certGrid() *txGrid {
	if c.grid == nil && !c.noCert && certifiable(c.params, len(c.pts)) {
		maxP := 0.0
		for _, p := range c.powers {
			maxP = math.Max(maxP, p)
		}
		//crlint:allow hotalloc built once per channel, on its first round with more than certSmallTx transmitters
		c.grid = newTxGrid(c.pts, c.params.Alpha, maxP)
		c.noCert = c.grid == nil
	}
	return c.grid
}

// tileCounts tallies the listeners of a round's tiles, summed over its
// workers and published once per round: in an unfaded certified round,
// those the certificate decided, those that walked past their cell's
// block, and those it gave up on, which took the full sum; in a faded
// round, the fades drawn, and the listeners brackets settled (walked: on
// the certificate's walk) and those that replayed their draws.
type tileCounts struct {
	certified, walks, fallbacks int
	drawn                       uint64
	settled, walked, replayed   int
}

// add accumulates o into n.
//
//crlint:hotpath
func (n *tileCounts) add(o tileCounts) {
	n.certified += o.certified
	n.walks += o.walks
	n.fallbacks += o.fallbacks
	n.drawn += o.drawn
	n.settled += o.settled
	n.walked += o.walked
	n.replayed += o.replayed
}

// publish adds a round's counts to the engine's counters. On a faded
// channel, fades is the draws a Deliver of the round would take, m at each
// of its n − m listeners, and the ones the round did not draw count as
// skipped.
//
//crlint:hotpath
func (n tileCounts) publish(faded bool, fades uint64) {
	if n.certified > 0 {
		mCertifiedListeners.Add(int64(n.certified))
	}
	if n.walks > 0 {
		mCertWalks.Add(int64(n.walks))
	}
	if n.fallbacks > 0 {
		mCertFallbacks.Add(int64(n.fallbacks))
	}
	if faded {
		mFadesDrawn.Add(int64(n.drawn))
		mFadesSkipped.Add(int64(fades - n.drawn))
		mFadedCertified.Add(int64(n.settled))
		mFadedWalked.Add(int64(n.walked))
		mFadedFallbacks.Add(int64(n.replayed))
	}
}

// certBlock is what consecutive listeners of one cell share: the cell, the
// runs of its 3×3 block of cells (rings 0 and 1, one run of the row-major
// CSR per grid row that holds a transmitter), the transmitters in it, and
// F from ring 2, computed when a listener of the cell first needs it.
// Every field is a function of the cell alone, so a tile that starts
// inside a cell rebuilds the same block.
type certBlock struct {
	cell, col, row int
	runs           [3][2]int32
	nruns          int
	seen           int
	far            float64 // F from ring 2, once hasFar
	farWork        int     // the work units F cost
	hasFar         bool
}

// setBlock makes blk cell's block.
//
//crlint:hotpath
func (g *txGrid) setBlock(blk *certBlock, cell int) {
	col, row := cell%g.cols, cell/g.cols
	*blk = certBlock{cell: cell, col: col, row: row}
	lo, hi := max(col-1, 0), min(col+1, g.cols-1)
	for y := max(row-1, 0); y <= min(row+1, g.rows-1); y++ {
		first, end := g.start[y*g.cols+lo], g.start[y*g.cols+hi+1]
		if first < end {
			blk.runs[blk.nruns] = [2]int32{first, end}
			blk.nruns++
			blk.seen += int(end - first)
		}
	}
}

// certifyTile is pass one of a certified round over vs, the round's
// non-transmitting listeners in cell order. Consecutive listeners of one
// cell share its block (certBlock), rebuilt whenever the cell changes, and
// sum it two at a time in one pass over its transmitters, each into its
// own walk, so a listener's floats never depend on its neighbour or its
// tile. A listener whose certificate holds parks its verdict; the others
// take the full sum.
//
//crlint:hotpath
func (c *Channel) certifyTile(vs []int, r deliverRound, sig [2][]float64) (n tileCounts) {
	g := r.cert
	blk := certBlock{cell: -1}
	var ws [2]certWalk
	for i := 0; i < len(vs); {
		cell := int(g.cellID[vs[i]])
		if cell != blk.cell {
			g.setBlock(&blk, cell)
		}
		k := 1
		if i+1 < len(vs) && int(g.cellID[vs[i+1]]) == cell {
			k = 2
		}
		for j, v := range vs[i : i+k] {
			ws[j].start(g.pos, g.idx, g.alpha, c.pts[v], nil, 1, sig[j])
		}
		if runs := blk.runs[:blk.nruns]; k == 2 {
			ws[0].spanPair(&ws[1], runs)
		} else {
			ws[0].span(runs)
		}
		for j, v := range vs[i : i+k] {
			u, ok, walked := c.certify(g, &ws[j], len(r.txList), &blk)
			if walked {
				n.walks++
			}
			if !ok {
				n.fallbacks++
				c.sumAll(v, r, nil, sig[0])
				continue
			}
			n.certified++
			c.scratch.park(v, r.txList, u)
		}
		i += k
	}
	return n
}

// walkFaded tries to settle faded listener v on the certificate's walk in
// round r, whose grid holds the round's transmitters. fades holds v's m
// draws by rank (drawFades), each fade at most fadeCap. The walk goes out
// from v's cell (blk, kept across calls, shares F from ring 2 between
// listeners of one cell), bracketing only the fades of the transmitters it
// sees; sig is its signal scratch (start). A settled verdict is parked and
// walkFaded reports true; otherwise it parks nothing.
//
//crlint:hotpath
func (c *Channel) walkFaded(v int, r deliverRound, fades []uint64, fadeCap float64, blk *certBlock, sig []float64) bool {
	g := r.cert
	if cell := int(g.cellOf(v)); cell != blk.cell {
		g.setBlock(blk, cell)
	}
	var w certWalk
	w.start(g.pos, g.idx, g.alpha, c.pts[v], fades, fadeCap, sig)
	w.span(blk.runs[:blk.nruns])
	u, ok, _ := c.certify(g, &w, len(r.txList), blk)
	if ok {
		c.scratch.park(v, r.txList, u)
	}
	return ok
}

// bracketAll walks faded listener v of round r over every transmitter:
// one run, the round's list in ascending index with ranks 0…m−1, so w ends
// with the ascending loop's L, U, T, ℓ, T₂ and T's rank over the fades of
// fades, for fadedVerdict. sig is its signal scratch (start).
//
//crlint:hotpath
func (c *Channel) bracketAll(w *certWalk, v int, r deliverRound, fades []uint64, sig []float64) {
	w.start(r.nodes, c.scratch.ranks, c.params.Alpha, c.pts[v], fades, 1, sig)
	all := [1][2]int32{{0, int32(len(r.nodes))}}
	w.span(all[:])
}

// drawFades fills us with rng's next len(us) draws in sumAll's order, each
// kept as the integer j of U = j·2⁻⁵³ that Reseedable.Float64 returns (no
// float conversion per draw), and returns the upper bracket of the largest
// fade: the largest j gives the smallest x = 1 − U, and fadeBracket's
// upper end does not grow with x, so it bounds every fade of the draws.
//
//crlint:hotpath
func drawFades(rng *xrand.Reseedable, us []uint64) float64 {
	var most uint64
	for i := range us {
		u := rng.Uint64() << 11 >> 11
		us[i] = u
		most = max(most, u)
	}
	_, hi := fadeBracket(drawX(most))
	return hi
}

// drawX returns x = 1 − U for a draw kept as drawFades keeps it, bit for
// bit as 1 − rng.Float64() computes it. The draw's fade is −ln x, a
// unit-mean exponential by inverse-CDF sampling; x > 0, so it is finite.
//
//crlint:hotpath
func drawX(u uint64) float64 {
	return 1 - float64(u)/(1<<53)
}

// certify tries to settle the reception of w's listener, whose walk over
// grid g has summed blk's block, in a round with total transmitters. It
// returns the rank of the transmitter the listener decodes (−1 for none)
// with ok true when a test holds, or ok false when it needs the full sum:
// no test held before every transmitter was seen, the walk spent as much
// work as the full sum's |tx| terms (one unit per transmitter seen, per run
// read and per far ring bounded), so that a listener that falls back pays
// at most twice the full sum, or a signal was not finite (coincident
// points). walked reports
// whether the listener went past its cell's block. The sums are taken in
// block and ring order, not in the kernel's ascending order; η absorbs the
// difference. Every bound on unseen signals is scaled by w.fadeCap, which
// is 1, exactly, for an exact listener.
//
//crlint:hotpath
func (c *Channel) certify(g *txGrid, w *certWalk, total int, blk *certBlock) (u int, ok, walked bool) {
	budget := total
	for ring := 2; ; ring++ {
		if !(w.hi <= math.MaxFloat64) {
			return -1, false, walked // an infinite signal: coincident or near-coincident points
		}
		unseen := total - w.seen
		ringCap := g.ringCap[ring] * w.fadeCap
		if c.params.certNone(w.lo, w.hi, w.top, ringCap, unseen) {
			return -1, true, walked
		}
		// Once no seen transmitter and no unseen one can reach ℓ, T's
		// sender has the kernel's one strict maximum, or for an exact
		// listener the kernel's maximum by its own tie rule.
		if w.topLo > w.second && (unseen == 0 || ringCap < w.topLo) {
			var far float64
			var work int
			if ring == 2 {
				// F from ring 2 is the cell's; its first listener to need it
				// computes it.
				if !blk.hasFar {
					blk.far, blk.farWork = g.farBound(blk.col, blk.row, 2, blk.seen, total)
					blk.hasFar = true
				}
				far, work = blk.far, blk.farWork
			} else {
				far, work = g.farBound(blk.col, blk.row, ring, w.seen, total)
			}
			w.work += work
			if c.params.certReceived(w.hi, far*w.fadeCap, w.topLo) {
				return w.tu, true, walked
			}
		}
		if unseen == 0 || w.work > budget {
			return -1, false, walked
		}
		walked = true
		runs, n := g.ring(blk.col, blk.row, ring)
		w.span(runs[:n])
	}
}

// certWalk is one listener's walk over runs of pos, transmitters'
// positions and powers, whose ranks idx holds: the grid's buckets, or the
// round's list itself (bracketAll). Each seen computed signal lies in
// [g·lo, g·hi]: g itself for an exact listener, g times the bracket on its
// fade for a faded one. The walk keeps L and U (lo, hi), the sums of those
// ends; T (top), the largest upper end, with its sender's rank tu and lower
// end ℓ (topLo); T₂ (second), the largest upper end of the others, which
// only a faded listener needs (an exact T is the kernel's maximum by its
// tie rule; T₂ stays −1); and the transmitters seen and work spent. fades
// holds a faded listener's draws by rank (nil if exact), fadeCap bounds its
// every fade (1 if exact), and sig is the scratch the pre-loop pass fills
// at α ≠ 3 (signals).
type certWalk struct {
	pos                []txNode
	idx                []int32
	alpha              float64
	pv                 geom.Point
	fades              []uint64
	sig                []float64
	fadeCap            float64
	lo, hi             float64
	top, topLo, second float64
	tu                 int
	seen, work         int
}

// start makes w the walk over pos and idx, at path-loss exponent alpha, of
// the listener at pv, with nothing seen; set field by field, it copies no
// struct.
//
//crlint:hotpath
func (w *certWalk) start(pos []txNode, idx []int32, alpha float64, pv geom.Point, fades []uint64, fadeCap float64, sig []float64) {
	*w = certWalk{}
	w.pos, w.idx, w.alpha, w.pv, w.fades, w.fadeCap, w.sig = pos, idx, alpha, pv, fades, fadeCap, sig
	w.top, w.topLo, w.second, w.tu = -1, -1, -1, -1
}

// ring returns the runs of ring k around (col, row) — the cells at
// Chebyshev distance k, clipped to the grid — in at most four runs: its top
// and bottom grid rows in full from the row-major CSR, then its left and
// right columns between them from the column-major copy. Parts outside the
// grid have no run.
//
//crlint:hotpath
func (g *txGrid) ring(col, row, k int) (runs [4][2]int32, n int) {
	top, bottom, left, right := row-k, row+k, col-k, col+k
	lo, hi := max(left, 0), min(right, g.cols-1)
	if top >= 0 {
		runs[n] = [2]int32{g.start[top*g.cols+lo], g.start[top*g.cols+hi+1]}
		n++
	}
	if bottom < g.rows && k > 0 {
		runs[n] = [2]int32{g.start[bottom*g.cols+lo], g.start[bottom*g.cols+hi+1]}
		n++
	}
	y1, y2 := max(top+1, 0), min(bottom-1, g.rows-1)
	for _, x := range [2]int{left, right} {
		if x < 0 || x >= g.cols || y1 > y2 {
			continue
		}
		runs[n] = [2]int32{g.cstart[x*g.rows+y1], g.cstart[x*g.rows+y2+1]}
		n++
	}
	return runs, n
}

// span adds the transmitters of runs to the walk, one run after another,
// reading their positions contiguously and, for a faded listener, their
// fades by rank. T follows the kernel's rule, the first strict maximum in
// ascending rank, which is ascending transmitter index, so equal upper ends
// keep the lower rank whatever order the walk meets them in; a
// transmitter's rank is read only when its upper end ties or beats T, or
// to find its fade. At α ≠ 3 the pre-loop pass computes the signals of
// every run first. It costs one work unit per transmitter and one per run.
//
//crlint:hotpath
func (w *certWalk) span(runs [][2]int32) {
	pv, fades := w.pv, w.fades
	var sig []float64
	if alpha := w.alpha; alpha != 3 {
		k := 0
		for _, r := range runs {
			k += len(signals(w.sig[k:], w.pos[r[0]:r[1]], pv, alpha, nil))
		}
		sig = w.sig[:k]
	}
	// A faded listener's U and T₂ stay in w, out of the exact loop's way.
	lo, top, tu := w.lo, w.top, w.tu
	k := 0 // the run's first signal in sig
	for _, r := range runs {
		pos, idx := w.pos[r[0]:r[1]], w.idx[r[0]:r[1]]
		for i := range pos {
			s := signalAt(sig, k+i, pos[i], pv)
			t := s
			if fades != nil {
				flo, fhi := fadeBracket(drawX(fades[idx[i]]))
				s, t = s*flo, s*fhi
				w.hi += t
				w.second = max(w.second, min(t, top))
			}
			lo += s
			if t >= top {
				if u := int(idx[i]); t > top || u < tu {
					top, tu, w.topLo = t, u, s
				}
			}
		}
		k += len(pos)
	}
	if fades == nil {
		w.hi = lo
	}
	w.lo, w.top, w.tu = lo, top, tu
	w.seen += k
	w.work += k + len(runs)
}

// spanPair is span for two exact walks at once, w's and o's: one pass over
// the runs' transmitters, whose positions both walks read, with each
// walk's floats its own, exactly as span computes them; at α ≠ 3 each
// walk's signals come from the pre-loop pass, into its own scratch. Faded
// listeners are visited in index order, not cell order, so they never
// share a block.
//
//crlint:hotpath
func (w *certWalk) spanPair(o *certWalk, runs [][2]int32) {
	pw, po := w.pv, o.pv
	var sigW, sigO []float64
	if alpha := w.alpha; alpha != 3 {
		k := 0
		for _, r := range runs {
			pos := w.pos[r[0]:r[1]]
			signals(w.sig[k:], pos, pw, alpha, nil)
			k += len(signals(o.sig[k:], pos, po, alpha, nil))
		}
		sigW, sigO = w.sig[:k], o.sig[:k]
	}
	sw, bw, uw := w.lo, w.top, w.tu
	so, bo, uo := o.lo, o.top, o.tu
	k := 0 // the run's first signal in sigW and sigO
	for _, r := range runs {
		pos, idx := w.pos[r[0]:r[1]], w.idx[r[0]:r[1]]
		for i := range pos {
			s := signalAt(sigW, k+i, pos[i], pw)
			t := signalAt(sigO, k+i, pos[i], po)
			sw += s
			so += t
			if s >= bw {
				if u := int(idx[i]); s > bw || u < uw {
					bw, uw = s, u
				}
			}
			if t >= bo {
				if u := int(idx[i]); t > bo || u < uo {
					bo, uo = t, u
				}
			}
		}
		k += len(pos)
	}
	w.lo, w.hi, w.top, w.topLo, w.tu = sw, sw, bw, bw, uw
	o.lo, o.hi, o.top, o.topLo, o.tu = so, so, bo, bo, uo
	for _, x := range [2]*certWalk{w, o} {
		x.seen += k
		x.work += k + len(runs)
	}
}

// farBound returns F, the bound on the signal of every transmitter in rings
// ≥ ring around (col, row), seen of the round's total transmitters lying in
// the rings inside: Σ over the unseen rings k of (transmitters in ring
// k)·ringCap[k], with the counts read from the summed-area table. The first
// certExactRings rings are bounded one by one; beyond them, rings are
// grouped in blocks [k, 2k), each bounded at its innermost ring's cap, so F
// costs O(certExactRings + log rings) lookups however far the grid extends.
// It also returns that number of lookups, the work F cost.
//
//crlint:hotpath
func (g *txGrid) farBound(col, row, ring, seen, total int) (far float64, work int) {
	for k, inner := ring, seen; inner < total; {
		next := k + 1
		if k >= ring+certExactRings {
			next = 2 * k
		}
		outer := g.squareCount(col, row, next-1)
		far += float64(outer-inner) * g.ringCap[k]
		k, inner = next, outer
		work++
	}
	return far, work
}

// certNone is the bound test, which needs no exact maximum. sum is S, b the
// strongest signal seen (−1 for none), and every one of the unseen
// transmitters' signals is at most ringCap. B = max(b, ringCap) bounds the
// kernel's strongest signal from above (B = b once unseen is 0) and
// N + S − B its interference from below, so a pass puts the kernel's ratio
// below β by more than its rounding: no reception. upper, a bound from
// above on the kernel's sum of the seen signals, sets the margin: an exact
// walk passes S for both, its signals being the kernel's own, and a faded
// listener passes its lower sum L as sum and its upper sum U as upper (its
// walk, or its full bracket through fadedVerdict). It reports false outside
// certRange, where rounding is not relative.
//
//crlint:hotpath
func (p Params) certNone(sum, upper, b, ringCap float64, unseen int) bool {
	top, bound := b, p.Noise+upper
	if unseen > 0 {
		top = max(b, ringCap)
		bound += float64(unseen) * ringCap
	}
	if !(top >= 1/certRange && bound <= certRange) {
		return false
	}
	return top < p.Beta*(p.Noise+sum-top-certEps*bound)
}

// certReceived is the reception test for a listener whose strongest signal
// b no unseen transmitter can outshine: sum is S, the seen signals' total,
// and far is F, the bound on the unseen ones. It reports whether b's sender
// is decoded by the margin η, and false outside certRange, where rounding
// is not relative.
//
//crlint:hotpath
func (p Params) certReceived(sum, far, b float64) bool {
	bound := p.Noise + sum + far
	if !(b >= 1/certRange && bound <= certRange) {
		return false
	}
	return b > p.Beta*(bound-b+certEps*bound)
}
