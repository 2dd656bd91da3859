package sinr

import (
	"math"

	"fadingcr/internal/geom"
)

// The certificate's transmitter grid.
//
// The certificate (certify.go) walks square rings of grid cells outward
// from a listener over the round's transmitters. Its index is the uniform
// grid over the deployment, every node's cell, and once per round the
// transmitters bucketed by cell in CSR form with a summed-area table of
// their per-cell counts.
const (
	// certSmallTx: in a round with at most this many transmitters the
	// certificate does not run and every listener sums the transmitter list
	// directly. Bucketing a grid to find two transmitters would invert the
	// asymptotics (sparse transmitter sets are precisely the regime
	// contention resolution converges to).
	certSmallTx = 64
	// gridCellSize is the initial grid cell size; deployments are normalised
	// to shortest link 1, so 2.0 keeps buckets small on constant-density
	// deployments.
	gridCellSize = 2.0
	// gridMinCells floors the grid-size cap so small deployments keep fine
	// cells even when n/gridPointsPerCell is tiny.
	gridMinCells = 1024
	// gridPointsPerCell is the coarsening target: a ring walk pays a fixed
	// overhead per visited cell, so on large deployments cells are doubled
	// until they hold several points each, amortising that overhead against
	// the per-transmitter work.
	gridPointsPerCell = 8
)

// txGrid is the spatial index over a channel's deployment plus the current
// round's transmitter buckets and their summed-area table. Only bucket
// writes it, once per round before the tile pass; tiles only read it.
type txGrid struct {
	geom.Grid  // maps a node's position to its cell
	pts        []geom.Point
	cols, rows int
	cell       float64

	// The round's transmitters in CSR form, rebuilt by bucket:
	// idx[start[c]:start[c+1]] holds the transmitters in cell c in ascending
	// index. Cell ids run row-major, so a run of cells within one grid row is
	// one contiguous range of idx.
	start []int32
	idx   []int32

	// sat is the round's summed-area table of per-cell transmitter counts:
	// sat[r·(cols+1) + c] counts the transmitters in rows < r and columns
	// < c. ringCap[k] bounds the signal of any transmitter in ring k (see
	// newTxGrid).
	sat     []int32
	ringCap []float64
}

// newTxGrid builds the certificate's grid over pts, or returns nil when
// the certificate cannot run on it: a non-finite position, or a grid
// extent whose square exceeds certRange. The grid is capped at
// max(gridMinCells, n/gridPointsPerCell) cells, which both coarsens cells
// to several points each on large deployments and keeps huge-spread
// deployments (exponential chains) from exhausting memory.
//
// A transmitter in ring k ≥ 2 around a listener's cell is at distance at
// least (k−1)·cell from it, so its signal is at most
// maxPower·((k−1)·cell)^−α; ringCap[k] is that bound with the floor shrunk
// and the bound grown by certEps, which covers the rounding of cell
// assignment, of Dist2 and of the attenuation. Rings 0 and 1 have no floor
// (+Inf).
func newTxGrid(pts []geom.Point, alpha, maxPower float64) *txGrid {
	for _, p := range pts {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			return nil
		}
	}
	maxCells := max(len(pts)/gridPointsPerCell, gridMinCells)
	gg, err := geom.NewGridCapped(pts, gridCellSize, maxCells)
	if err != nil {
		return nil
	}
	cols, rows, cell := gg.Shape()
	// Squared distances across the grid, the ring caps' among them, must
	// stay finite.
	if extent := float64(max(cols, rows)) * cell; !(extent*extent <= certRange) {
		return nil
	}
	g := &txGrid{
		Grid:    *gg,
		pts:     pts,
		cols:    cols,
		rows:    rows,
		cell:    cell,
		start:   make([]int32, cols*rows+1),
		idx:     make([]int32, len(pts)),
		sat:     make([]int32, (rows+1)*(cols+1)),
		ringCap: make([]float64, max(cols, rows)+1),
	}
	for k := range g.ringCap {
		if k < 2 {
			g.ringCap[k] = math.Inf(1)
			continue
		}
		d := float64(k-1) * cell * (1 - certEps)
		g.ringCap[k] = maxPower * attenuation(d*d, alpha) * (1 + certEps)
	}
	return g
}

// cellCoords returns node v's (col, row).
//
//crlint:hotpath
func (g *txGrid) cellCoords(v int) (col, row int) {
	return g.CellAt(g.pts[v])
}

// cellOf returns node u's cell id, row·cols + col.
//
//crlint:hotpath
func (g *txGrid) cellOf(u int) int {
	col, row := g.CellAt(g.pts[u])
	return row*g.cols + col
}

// bucket sorts the round's transmitters by grid cell — a counting sort into
// the CSR arrays — once per Deliver, before the tile pass, and refills the
// summed-area table from the buckets. The buckets inherit txList's
// ascending order within each cell.
//
//crlint:hotpath
func (g *txGrid) bucket(txList []int) {
	start := g.start
	for i := range start {
		start[i] = 0
	}
	for _, u := range txList {
		start[g.cellOf(u)+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	idx := g.idx
	for _, u := range txList {
		c := g.cellOf(u)
		idx[start[c]] = int32(u)
		start[c]++
	}
	// The fill advanced start[c] to cell c's end; shift back to starts.
	for i := len(start) - 1; i > 0; i-- {
		start[i] = start[i-1]
	}
	start[0] = 0
	// Row 0 and column 0 of the table stay zero. start[base+c+1] −
	// start[base] counts row r's transmitters in columns ≤ c.
	w := g.cols + 1
	for r := 0; r < g.rows; r++ {
		base := r * g.cols
		above, here := g.sat[r*w:(r+1)*w], g.sat[(r+1)*w:(r+2)*w]
		for c := 0; c < g.cols; c++ {
			here[c+1] = above[c+1] + start[base+c+1] - start[base]
		}
	}
}

// squareCount returns the number of the round's transmitters in the cells
// within Chebyshev distance k of (col, row), clipped to the grid — rings 0
// through k — in O(1) from the summed-area table.
//
//crlint:hotpath
func (g *txGrid) squareCount(col, row, k int) int {
	r1, r2 := max(row-k, 0), min(row+k+1, g.rows)
	c1, c2 := max(col-k, 0), min(col+k+1, g.cols)
	w := g.cols + 1
	return int(g.sat[r2*w+c2] - g.sat[r1*w+c2] - g.sat[r2*w+c1] + g.sat[r1*w+c1])
}
