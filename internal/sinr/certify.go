package sinr

import (
	"math"

	"fadingcr/internal/geom"
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
// falls back to the full sum. DESIGN.md §8 has the argument.
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

// certCounts tallies the listeners of one pass over a certified round:
// those the certificate decided, those that walked past their cell's
// block, and those it gave up on, which took the full sum.
type certCounts struct {
	certified, walks, fallbacks int
}

// add accumulates o into n.
func (n *certCounts) add(o certCounts) {
	n.certified += o.certified
	n.walks += o.walks
	n.fallbacks += o.fallbacks
}

// publish adds the counts to the engine's counters, once per Deliver.
//
//crlint:hotpath
func (n certCounts) publish() {
	if n.certified > 0 {
		mCertifiedListeners.Add(int64(n.certified))
	}
	if n.walks > 0 {
		mCertWalks.Add(int64(n.walks))
	}
	if n.fallbacks > 0 {
		mCertFallbacks.Add(int64(n.fallbacks))
	}
}

// certBlock is what consecutive listeners of one cell share: the cell, the
// CSR ranges of its 3×3 block of cells (rings 0 and 1, one contiguous range
// per grid row), the transmitters in it, and F from ring 2, computed when a
// listener of the cell first needs it. Every field is a function of the
// cell alone, so a tile that starts inside a cell rebuilds the same block.
type certBlock struct {
	cell, col, row int
	spans          [3][2]int32
	nspans         int
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
			blk.spans[blk.nspans] = [2]int32{first, end}
			blk.nspans++
			blk.seen += int(end - first)
		}
	}
}

// certifyTile is pass one of a certified round over vs, the round's
// non-transmitting listeners in cell order. Consecutive listeners of one
// cell share its block (certBlock), rebuilt whenever the cell changes, and
// sum it two at a time in one pass over its transmitters, each into its
// own walk, so a listener's floats never depend on its neighbour or its
// tile. A listener whose certificate holds parks its verdict: no sender,
// or its sender with the certifiedReception total; the others take the
// full sum.
//
//crlint:hotpath
func (c *Channel) certifyTile(vs []int, r deliverRound) (n certCounts) {
	g := r.cert
	totals, best, bestU := c.scratch.totals, c.scratch.best, c.scratch.bestU
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
			ws[j] = certWalk{g: g, pv: c.pts[v], alpha: c.params.Alpha, b: -1, bu: -1}
		}
		for _, s := range blk.spans[:blk.nspans] {
			if k == 2 {
				ws[0].spanPair(&ws[1], int(s[0]), int(s[1]))
			} else {
				ws[0].span(int(s[0]), int(s[1]))
			}
		}
		for j, v := range vs[i : i+k] {
			u, ok, walked := c.certify(&ws[j], r, &blk)
			if walked {
				n.walks++
			}
			if !ok {
				n.fallbacks++
				c.sumAll(v, r, nil)
				continue
			}
			n.certified++
			totals[v], best[v], bestU[v] = 0, -1, -1
			if u >= 0 {
				totals[v], bestU[v] = certifiedReception, u
			}
		}
		i += k
	}
	return n
}

// certify tries to settle the reception of w's listener, whose walk has
// summed blk's block, in round r. It returns the transmitter the listener
// decodes (−1 for none) with ok true when a test holds, or ok false when it
// needs the full sum: no test held before every transmitter was seen, the
// walk spent as much work as the full sum's |tx| terms (one unit per
// transmitter seen, per bucket range read and per far ring bounded), so
// that a listener that falls back pays at most twice the full sum, or a
// signal was not finite (coincident points). walked reports whether the listener
// went past its cell's block. S is summed in block and ring order, not in
// the kernel's ascending order; η absorbs the difference.
//
//crlint:hotpath
func (c *Channel) certify(w *certWalk, r deliverRound, blk *certBlock) (u int, ok, walked bool) {
	g := r.cert
	total := len(r.txList)
	budget := total
	for ring := 2; ; ring++ {
		if !(w.sum <= math.MaxFloat64) {
			return -1, false, walked // an infinite signal: coincident or near-coincident points
		}
		unseen := total - w.seen
		if c.params.certNone(w.sum, w.sum, w.b, g.ringCap[ring], unseen) {
			return -1, true, walked
		}
		// Once no unseen transmitter can reach b, b is the round's strongest
		// signal and bu its sender.
		if unseen == 0 || g.ringCap[ring] < w.b {
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
			if c.params.certReceived(w.sum, far, w.b) {
				return w.bu, true, walked
			}
		}
		if unseen == 0 || w.work > budget {
			return -1, false, walked
		}
		walked = true
		w.ring(blk.col, blk.row, ring)
	}
}

// certWalk is one listener's walk: the listener's position, the running
// sum S of the signals seen, the strongest b with its sender bu, and the
// transmitters seen and work units spent so far.
type certWalk struct {
	g      *txGrid
	pv     geom.Point
	alpha  float64
	sum, b float64
	bu     int
	seen   int
	work   int
}

// ring adds the cells of ring k around (col, row) — the cells at Chebyshev
// distance k, clipped to the grid — to the walk: its top and bottom grid
// rows in full (each one contiguous bucket range), then its left and right
// columns between them cell by cell. Parts outside the grid cost nothing.
//
//crlint:hotpath
func (w *certWalk) ring(col, row, k int) {
	g := w.g
	top, bottom, left, right := row-k, row+k, col-k, col+k
	lo, hi := max(left, 0), min(right, g.cols-1)
	if top >= 0 {
		w.cells(top*g.cols+lo, top*g.cols+hi)
	}
	if bottom < g.rows && k > 0 {
		w.cells(bottom*g.cols+lo, bottom*g.cols+hi)
	}
	for _, x := range [2]int{left, right} {
		if x < 0 || x >= g.cols {
			continue
		}
		for y := max(top+1, 0); y <= min(bottom-1, g.rows-1); y++ {
			w.cells(y*g.cols+x, y*g.cols+x)
		}
	}
}

// cells adds the signals of the round's transmitters in cells first through
// last, one contiguous bucket range, to the walk.
//
//crlint:hotpath
func (w *certWalk) cells(first, last int) {
	w.span(int(w.g.start[first]), int(w.g.start[last+1]))
}

// span adds the signals of the transmitters at CSR positions [first, end)
// to the walk, reading their positions contiguously. The maximum follows
// the kernel's rule, the first strict maximum in ascending transmitter
// index, so equal signals keep the lower index whatever order the walk
// meets them in; a transmitter's index is read only when its signal ties
// or beats b.
//
//crlint:hotpath
func (w *certWalk) span(first, end int) {
	pos, idx := w.g.pos[first:end], w.g.idx[first:end]
	alpha, pv := w.alpha, w.pv
	sum, b, bu := w.sum, w.b, w.bu
	for i := range pos {
		s := pos[i].power * attenuation(pos[i].pt.Dist2(pv), alpha)
		sum += s
		if s >= b {
			if u := int(idx[i]); s > b || u < bu {
				b, bu = s, u
			}
		}
	}
	w.sum, w.b, w.bu = sum, b, bu
	w.seen += end - first
	w.work += end - first + 1
}

// spanPair is span for two walks at once, w's and o's: one pass over the
// transmitters, whose positions both walks read, with each walk's floats
// its own, exactly as span computes them.
//
//crlint:hotpath
func (w *certWalk) spanPair(o *certWalk, first, end int) {
	pos, idx := w.g.pos[first:end], w.g.idx[first:end]
	alpha, pw, po := w.alpha, w.pv, o.pv
	sw, bw, uw := w.sum, w.b, w.bu
	so, bo, uo := o.sum, o.b, o.bu
	for i := range pos {
		s := pos[i].power * attenuation(pos[i].pt.Dist2(pw), alpha)
		t := pos[i].power * attenuation(pos[i].pt.Dist2(po), alpha)
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
	w.sum, w.b, w.bu = sw, bw, uw
	o.sum, o.b, o.bu = so, bo, uo
	for _, x := range [2]*certWalk{w, o} {
		x.seen += end - first
		x.work += end - first + 1
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
// above on the kernel's sum of the seen signals, sets the margin: the walk
// passes S for both, its signals being the kernel's own, and a faded
// listener passes its lower sum L as sum and its upper sum U as upper
// (sumBracketed). It reports false outside certRange, where rounding is not
// relative.
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
