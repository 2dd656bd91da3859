package sinr

import (
	"math"

	"fadingcr/internal/geom"
)

// Certified exact delivery.
//
// With α > 2 a listener's reception is settled by its nearby transmitters:
// the far annuli can only add a geometrically bounded amount of
// interference. The certificate turns that into a proof. It walks grid rings
// outward from the listener over the round's bucketed transmitters, summing
// the exact signals it meets (S) and tracking the strongest (b, its sender
// chosen by the kernel's own rule). Once no unseen transmitter can outshine
// b, two tests can settle the listener:
//
//   - no reception if β·(N + S − b − η) > b;
//   - reception from b's sender if β·(N + S + F − b + η) < b,
//
// where F bounds the unseen signal ring by ring and η = certEps·(N + S + F)
// exceeds every rounding the kernel's full ascending sum can make. Either
// verdict therefore equals the full sum's bit for bit; when neither test
// holds, the listener falls back to the full sum. DESIGN.md §8 has the
// argument.
const (
	// certEps is the certificate's relative slack: distance floors shrink
	// and per-ring bounds grow by it, and each test must hold by
	// η = certEps·(N + S + F), which exceeds the rounding of an m-term
	// ascending sum for every m below certMaxNodes.
	certEps = 0x1p-30
	// certMaxNodes bounds the deployments the certificate runs on: above it
	// an m-term sum's rounding, and the grid's cell-assignment rounding, could
	// outgrow certEps.
	certMaxNodes = 1 << 22
	// certRange bounds the magnitudes a test may see: b ≥ 1/certRange,
	// N + S + F ≤ certRange, β ≥ 1/certRange and a grid extent e with
	// e² ≤ certRange keep every quantity of the tests, of the ring caps and
	// of the kernel's ratio clear of underflow and overflow, where relative
	// rounding bounds fail.
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

// certify tries to settle listener v's reception in round r from a few
// grid rings around it. It returns the transmitter v decodes (−1 for none)
// and true when a test holds, or false when v needs the full sum: a test
// never held before every transmitter was seen, the walk spent a quarter of
// the full sum's work (one unit per transmitter seen, per bucket range read
// and per far ring bounded), or a signal was not finite (coincident
// points). S is summed in ring order, not in the kernel's ascending order;
// η absorbs the difference.
//
//crlint:hotpath
func (c *Channel) certify(v int, r deliverRound) (int, bool) {
	g := r.cert
	col, row := g.cellCoords(v)
	total := len(r.txList)
	budget := total / 4
	w := certWalk{c: c, g: g, pv: c.pts[v], b: -1, bu: -1}
	for ring := 0; ; ring++ {
		// Every unseen transmitter lies in ring ≥ `ring`; once none of them
		// can reach b, b is the round's strongest signal and bu its sender.
		if w.seen == total || g.ringCap[ring] < w.b {
			if received, ok := c.params.certVerdict(w.sum, w.farBound(col, row, ring, total), w.b); ok {
				if received {
					return w.bu, true
				}
				return -1, true
			}
		}
		if w.seen == total || w.work > budget {
			return -1, false
		}
		w.ring(col, row, ring)
		if !(w.sum <= math.MaxFloat64) {
			return -1, false // an infinite signal: coincident or near-coincident points
		}
	}
}

// certWalk is one listener's ring walk: the listener's position, the
// running sum S of the signals seen, the strongest b with its sender bu,
// and the transmitters seen and work units spent so far.
type certWalk struct {
	c      *Channel
	g      *txGrid
	pv     geom.Point
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

// farBound returns F, the bound on the signal of every transmitter in rings
// ≥ ring around (col, row): Σ over the unseen rings k of (transmitters in
// ring k)·ringCap[k], with the counts read from the summed-area table. The
// first certExactRings rings are bounded one by one; beyond them, rings are
// grouped in blocks [k, 2k), each bounded at its innermost ring's cap, so F
// costs O(certExactRings + log rings) lookups however far the grid extends.
//
//crlint:hotpath
func (w *certWalk) farBound(col, row, ring, total int) float64 {
	far := 0.0
	for k, inner := ring, w.seen; inner < total; {
		next := k + 1
		if k >= ring+certExactRings {
			next = 2 * k
		}
		outer := w.g.squareCount(col, row, next-1)
		far += float64(outer-inner) * w.g.ringCap[k]
		k, inner = next, outer
		w.work++
	}
	return far
}

// cells adds the signals of the round's transmitters in cells first through
// last — one contiguous bucket range — to the walk. The maximum follows the
// kernel's rule, the first strict maximum in ascending transmitter index,
// so equal signals keep the lower index whatever order the walk meets them
// in.
//
//crlint:hotpath
func (w *certWalk) cells(first, last int) {
	ids := w.g.idx[w.g.start[first]:w.g.start[last+1]]
	pts, powers, alpha, pv := w.c.pts, w.c.powers, w.c.params.Alpha, w.pv
	sum, b, bu := w.sum, w.b, w.bu
	for _, id := range ids {
		u := int(id)
		s := powers[u] * attenuation(pts[u].Dist2(pv), alpha)
		sum += s
		if s > b || (s == b && u < bu) {
			b, bu = s, u
		}
	}
	w.sum, w.b, w.bu = sum, b, bu
	w.seen += len(ids)
	w.work += len(ids) + 1
}

// certVerdict applies the two tests to a listener whose strongest signal b
// no unseen transmitter can outshine: sum is S, the seen signals' total,
// and far is F, the bound on the unseen ones. It reports (received, true)
// when a test holds by the margin η, and false otherwise — also outside
// certRange, where rounding is not relative.
//
//crlint:hotpath
func (p Params) certVerdict(sum, far, b float64) (received, ok bool) {
	bound := p.Noise + sum + far
	if !(b >= 1/certRange && bound <= certRange) {
		return false, false
	}
	eta := certEps * bound
	if b < p.Beta*(p.Noise+sum-b-eta) {
		return false, true
	}
	if b > p.Beta*(bound-b+eta) {
		return true, true
	}
	return false, false
}
