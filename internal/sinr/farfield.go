package sinr

// The ε far-field pruning engine.
//
// Exact delivery is Θ(|tx|·n) per round — every transmitter contributes to
// every listener — which is the real wall at n = 100,000. But path loss
// d^{-α} with α > 2 makes distant transmitters collectively negligible: the
// interference arriving at a listener from outside radius r decays like
// r^{2-α}. The far-field engine exploits this with the channel's shared
// transmitter grid (grid.go), whose per-round buckets are shared read-only
// by every worker; per listener it expands square rings of cells outward,
// collecting the bucketed transmitters exactly (summed in ascending
// transmitter index, the binding summation-order contract), and stops as
// soon as a conservative bound proves the remaining transmitters contribute
// at most eps·(Noise + near interference).
//
// The guarantee (DESIGN.md §8): the pruned mass F_v at listener v satisfies
// F_v ≤ eps·(Noise + LB_v) where LB_v is a provable lower bound on the near
// signal already collected, so the ε-mode SINR only ever *overestimates* the
// exact one, by a denominator deficit of at most F_v. Disagreements with the
// exact engine are one-sided (ε-mode may deliver where exact just misses β,
// never the reverse) and confined to receptions whose exact SINR lies within
// β·F_v/denominator of the threshold; a far transmitter itself can never be
// decoded by either engine when eps/(1−eps) < β, which the eps < 0.5 cap
// guarantees for every β ≥ 1. The pruning decision accumulates LB_v from the
// collected transmitters' exact distances (times the static minimum power) in
// the fixed ring-visit order, so it is bit-deterministic — the same IEEE
// operations in the same order on every run. Exact distances matter: a
// per-cell farthest-corner bound undercounts the nearest transmitters by
// ~cell^α and inflates the stop radius past usefulness.

// farField is the per-channel pruning state: the shared transmitter grid,
// the bound parameters, and per-worker scratch. It is immutable during a
// round's tile pass except for the per-worker buffers, which are indexed by
// worker so concurrent tiles never share one.
type farField struct {
	eps         float64
	alpha       float64
	noise       float64
	minPower    float64 // per-tx lower bound used for the near-signal bound
	maxPower    float64 // per-tx upper bound used for the far-mass bound
	grid        *txGrid
	radixPasses int // bytes needed to radix-sort indices < n

	near  [][]int    // per-worker near-set buffers, each cap n
	aux   [][]int    // per-worker radix scratch, each len n
	mark  [][]bool   // per-worker membership masks, each len n
	nodes [][]txNode // per-worker gathered near sets, each len n
}

// newFarField builds the pruning state over the channel's grid.
// minPower/maxPower bound the per-node transmission power (equal for
// uniform-power channels).
func newFarField(grid *txGrid, alpha, noise, minPower, maxPower, eps float64, workers int) *farField {
	n := len(grid.pts)
	ff := &farField{
		eps:         eps,
		alpha:       alpha,
		noise:       noise,
		minPower:    minPower,
		maxPower:    maxPower,
		grid:        grid,
		radixPasses: 1,
		near:        make([][]int, workers),
		aux:         make([][]int, workers),
		mark:        make([][]bool, workers),
		nodes:       make([][]txNode, workers),
	}
	for limit := 256; limit < n; limit <<= 8 {
		ff.radixPasses++
	}
	for w := range ff.near {
		ff.near[w] = make([]int, 0, n)
		ff.aux[w] = make([]int, n)
		ff.mark[w] = make([]bool, n)
		ff.nodes[w] = make([]txNode, n)
	}
	return ff
}

// nearSet returns the transmitters listener v must sum exactly, in ascending
// transmitter index. With at most farFieldSmallTx transmitters it returns
// txList itself (exact mode, no pruning). Otherwise it walks grid-cell rings
// outward from v's cell — perimeter cells only, O(ring) per ring — draining
// the round's per-cell transmitter buckets while accumulating a lower bound
// on their total signal (minPower · exact attenuation per transmitter), and
// stops before ring r once every unseen transmitter — necessarily at
// distance ≥ (r−1)·cell — can contribute at most eps·(Noise + bound) in
// aggregate. The returned slice aliases the worker's scratch buffers and is
// valid until the next call on that worker.
//
//crlint:hotpath
func (ff *farField) nearSet(worker, v int, tx []bool, txList []int) []int {
	if len(txList) <= farFieldSmallTx {
		return txList
	}
	near := ff.near[worker][:0]
	g := ff.grid
	p := g.pts[v]
	col, row := g.cellCoords(v)
	start, idx := g.start, g.idx
	txTotal := len(txList)
	txSeen := 0
	lowBound := 0.0 // provable lower bound on the collected near signal
	for ring := 0; ring <= g.maxRing(); ring++ {
		if txSeen == txTotal {
			break
		}
		if ring >= 2 && txSeen > 0 {
			// Every transmitter not yet seen sits in ring ≥ `ring`, hence at
			// distance ≥ (ring−1)·cell from p (same floor as Index.Nearest).
			d := float64(ring-1) * g.cell
			farCap := float64(txTotal-txSeen) * ff.maxPower * attenuation(d*d, ff.alpha)
			if farCap <= ff.eps*(ff.noise+lowBound) {
				break
			}
		}
		for dr := -ring; dr <= ring; dr++ {
			r := row + dr
			if r < 0 || r >= g.rows {
				continue
			}
			// Top and bottom ring rows in full; middle rows contribute only
			// their two perimeter cells (the step jumps the interior), so a
			// ring costs O(ring) cells, not O(ring²).
			step := 1
			if dr > -ring && dr < ring {
				step = 2 * ring
			}
			for dc := -ring; dc <= ring; dc += step {
				c := col + dc
				if c < 0 || c >= g.cols {
					continue
				}
				cellID := r*g.cols + c
				lo, hi := start[cellID], start[cellID+1]
				if lo == hi {
					continue
				}
				for _, w := range idx[lo:hi] {
					u := int(w)
					near = append(near, u)
					lowBound += ff.minPower * attenuation(p.Dist2(g.pts[u]), ff.alpha)
				}
				txSeen += int(hi - lo)
			}
		}
	}
	if txSeen == txTotal {
		// Nothing was pruned: the near set is the (already ascending)
		// transmitter list itself.
		return txList
	}
	return ff.sortAscending(worker, near, txList)
}

// sortAscending rebuilds the ring-ordered near buffer in ascending
// transmitter index — the binding summation-order contract — without a
// comparison sort, whose per-listener O(k log k) dominated whole rounds.
// Dense near sets filter the (already ascending) txList through a
// membership mask in O(|near| + |tx|); sparse ones LSD-radix-sort the
// buffer with byte digits in O(passes·|near|). Both produce the identical
// sorted slice, so the size heuristic never affects results.
//
//crlint:hotpath
func (ff *farField) sortAscending(worker int, near, txList []int) []int {
	if len(near)*4 >= len(txList) {
		mark := ff.mark[worker]
		for _, u := range near {
			mark[u] = true
		}
		// Rewriting near[:0] in place is safe: the output is a permutation
		// of near's elements and the scan never revisits an overwritten
		// slot; unmarking walks the output, which has the same members.
		out := near[:0]
		for _, u := range txList {
			if mark[u] {
				out = append(out, u)
			}
		}
		for _, u := range out {
			mark[u] = false
		}
		return out
	}
	src := near
	dst := ff.aux[worker][:len(near)]
	var counts [256]int
	for pass := 0; pass < ff.radixPasses; pass++ {
		shift := pass * 8
		for i := range counts {
			counts[i] = 0
		}
		for _, u := range src {
			counts[(u>>shift)&0xff]++
		}
		sum := 0
		for i, c := range counts {
			counts[i] = sum
			sum += c
		}
		for _, u := range src {
			d := (u >> shift) & 0xff
			dst[counts[d]] = u
			counts[d]++
		}
		src, dst = dst, src
	}
	return src
}
