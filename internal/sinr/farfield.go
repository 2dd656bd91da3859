package sinr

import (
	"fmt"

	"fadingcr/internal/geom"
)

// The ε far-field pruning engine.
//
// Exact delivery is Θ(|tx|·n) per round — every transmitter contributes to
// every listener — which is the real wall at n = 100,000. But path loss
// d^{-α} with α > 2 makes distant transmitters collectively negligible: the
// interference arriving at a listener from outside radius r decays like
// r^{2-α}. The far-field engine exploits this with the uniform-grid spatial
// index from internal/geom. Once per round it buckets the transmitter list by
// grid cell (a counting sort into CSR form, shared read-only by every
// worker); per listener it then expands square rings of cells outward,
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
const (
	// farFieldSmallTx: with at most this many transmitters the engine uses
	// the transmitter list directly — exact, zero pruning. Ring-scanning a
	// grid to find two transmitters would invert the asymptotics (sparse
	// transmitter sets are precisely the regime contention resolution
	// converges to).
	farFieldSmallTx = 64
	// farFieldCellSize is the initial grid cell size; deployments are
	// normalised to shortest link 1, so 2.0 keeps buckets small on
	// constant-density deployments.
	farFieldCellSize = 2.0
	// farFieldMinCells floors the grid-size cap so small deployments keep
	// fine cells even when n/farFieldPointsPerCell is tiny.
	farFieldMinCells = 1024
	// farFieldPointsPerCell is the coarsening target: the ring scan pays a
	// fixed overhead per visited cell, so on large deployments cells are
	// doubled until they hold several points each, amortising that overhead
	// against the per-transmitter work. The resulting cell count — and with
	// it every near/far partition — is a pure function of n.
	farFieldPointsPerCell = 8
)

// farField is the per-channel pruning state: the spatial index over the
// deployment, the per-round transmitter buckets, and per-worker scratch. It
// is immutable during a round's tile pass except for the per-worker buffers,
// which are indexed by worker so concurrent tiles never share one.
type farField struct {
	eps         float64
	alpha       float64
	noise       float64
	minPower    float64 // per-tx lower bound used for the near-signal bound
	maxPower    float64 // per-tx upper bound used for the far-mass bound
	pts         []geom.Point
	ix          *geom.Index
	cols, rows  int
	cell        float64
	radixPasses int // bytes needed to radix-sort indices < n

	// cellOf maps every node to its cell id (row·cols + col): fixed
	// geometry, computed once.
	cellOf []int32

	// Per-round transmitter buckets in CSR form, rebuilt by prepareRound:
	// cellTxIdx[cellTxStart[c]:cellTxStart[c+1]] holds the round's
	// transmitters in cell c, in ascending index. Read-only during tiles.
	cellTxStart []int32
	cellTxIdx   []int32

	near  [][]int    // per-worker near-set buffers, each cap n
	aux   [][]int    // per-worker radix scratch, each len n
	mark  [][]bool   // per-worker membership masks, each len n
	nodes [][]txNode // per-worker gathered near sets, each len n
}

// newFarField builds the pruning state. minPower/maxPower bound the per-node
// transmission power (equal for uniform-power channels). The grid is
// capped at max(farFieldMinCells, n/farFieldPointsPerCell) cells, which
// both coarsens cells to several points each on large deployments and keeps
// huge-spread deployments (exponential chains) from exhausting memory; the
// cap is a pure function of n, keeping the near/far partition — and thus
// every reception — reproducible.
func newFarField(pts []geom.Point, alpha, noise, minPower, maxPower, eps float64, workers int) (*farField, error) {
	maxCells := len(pts) / farFieldPointsPerCell
	if maxCells < farFieldMinCells {
		maxCells = farFieldMinCells
	}
	ix, err := geom.NewIndexCapped(pts, farFieldCellSize, maxCells)
	if err != nil {
		return nil, fmt.Errorf("sinr: far-field index: %w", err)
	}
	cols, rows, cell := ix.Grid()
	ff := &farField{
		eps:         eps,
		alpha:       alpha,
		noise:       noise,
		minPower:    minPower,
		maxPower:    maxPower,
		pts:         pts,
		ix:          ix,
		cols:        cols,
		rows:        rows,
		cell:        cell,
		radixPasses: 1,
		cellOf:      make([]int32, len(pts)),
		cellTxStart: make([]int32, cols*rows+1),
		cellTxIdx:   make([]int32, len(pts)),
		near:        make([][]int, workers),
		aux:         make([][]int, workers),
		mark:        make([][]bool, workers),
		nodes:       make([][]txNode, workers),
	}
	for limit := 256; limit < len(pts); limit <<= 8 {
		ff.radixPasses++
	}
	for i, p := range pts {
		col, row := ix.CellAt(p)
		ff.cellOf[i] = int32(row*cols + col)
	}
	for w := range ff.near {
		ff.near[w] = make([]int, 0, len(pts))
		ff.aux[w] = make([]int, len(pts))
		ff.mark[w] = make([]bool, len(pts))
		ff.nodes[w] = make([]txNode, len(pts))
	}
	return ff, nil
}

// prepareRound buckets the round's transmitters by grid cell — a counting
// sort into the CSR arrays — once per Deliver, before the tile pass. The
// buckets inherit txList's ascending order within each cell. With at most
// farFieldSmallTx transmitters nearSet never consults the buckets, so the
// pass is skipped.
//
//crlint:hotpath
func (ff *farField) prepareRound(txList []int) {
	if len(txList) <= farFieldSmallTx {
		return
	}
	start := ff.cellTxStart
	for i := range start {
		start[i] = 0
	}
	for _, u := range txList {
		start[ff.cellOf[u]+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	idx := ff.cellTxIdx
	for _, u := range txList {
		c := ff.cellOf[u]
		idx[start[c]] = int32(u)
		start[c]++
	}
	// The fill advanced start[c] to cell c's end; shift back to starts.
	for i := len(start) - 1; i > 0; i-- {
		start[i] = start[i-1]
	}
	start[0] = 0
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
	p := ff.pts[v]
	col, row := ff.ix.CellAt(p)
	start, idx := ff.cellTxStart, ff.cellTxIdx
	txTotal := len(txList)
	txSeen := 0
	lowBound := 0.0 // provable lower bound on the collected near signal
	maxRing := ff.cols
	if ff.rows > maxRing {
		maxRing = ff.rows
	}
	for ring := 0; ring <= maxRing; ring++ {
		if txSeen == txTotal {
			break
		}
		if ring >= 2 && txSeen > 0 {
			// Every transmitter not yet seen sits in ring ≥ `ring`, hence at
			// distance ≥ (ring−1)·cell from p (same floor as Index.Nearest).
			d := float64(ring-1) * ff.cell
			farCap := float64(txTotal-txSeen) * ff.maxPower * attenuation(d*d, ff.alpha)
			if farCap <= ff.eps*(ff.noise+lowBound) {
				break
			}
		}
		for dr := -ring; dr <= ring; dr++ {
			r := row + dr
			if r < 0 || r >= ff.rows {
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
				if c < 0 || c >= ff.cols {
					continue
				}
				cellID := r*ff.cols + c
				lo, hi := start[cellID], start[cellID+1]
				if lo == hi {
					continue
				}
				for _, w := range idx[lo:hi] {
					u := int(w)
					near = append(near, u)
					lowBound += ff.minPower * attenuation(p.Dist2(ff.pts[u]), ff.alpha)
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
