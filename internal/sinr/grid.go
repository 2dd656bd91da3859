package sinr

import (
	"math"

	"fadingcr/internal/geom"
)

// The certificate's transmitter grid.
//
// The certificate (certify.go) walks square rings of grid cells outward
// from a listener over the round's transmitters. Its index is one uniform
// grid over the deployment, reshaped every certified round to about one
// transmitter per cell, the round's transmitters bucketed by cell in CSR
// form, row-major and again column-major, with a summed-area table of
// their per-cell counts, and the round's listeners sorted by cell.
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
	// gridMinCells floors the finest shape's cell cap so small deployments
	// keep fine cells even when n/gridPointsPerCell is tiny.
	gridMinCells = 1024
	// gridPointsPerCell sets the finest shape: cells are doubled until they
	// hold several points each, which also keeps huge-spread deployments
	// (exponential chains) from exhausting memory.
	gridPointsPerCell = 8
)

// txGrid is the spatial index over a channel's deployment plus the current
// round's shape, transmitter buckets, summed-area table and cell-ordered
// listeners. Only prepare writes it, once per round before the tile pass;
// tiles only read it.
//
// Its finest shape is the geom.Grid it embeds. A round's shape doubles the
// finest cell shift times, so a node in finest cell (col, row) lies in cell
// (col>>shift, row>>shift), and every buffer below is sized once for the
// finest shape and resliced per round.
type txGrid struct {
	geom.Grid // the finest shape; maps a node's position to its finest cell
	pts       []geom.Point
	alpha     float64
	maxPower  float64

	// The round's shape: the finest cell doubled shift times (−1 before the
	// first round), cols×rows cells.
	shift      int
	cols, rows int

	// cellID[v] is node v's cell id, row·cols + col, in the round's shape,
	// for the round's transmitters (bucket) and an unfaded round's listed
	// listeners (sortListeners), the only nodes a round reads it for.
	cellID []int32

	// The round's transmitters in CSR form, rebuilt by bucket:
	// idx[start[c]:start[c+1]] holds the ranks in txList (rank order is
	// index order) of the transmitters in cell c, ascending, and pos their
	// positions and powers in the same order. Cell ids run row-major, so a
	// run of cells within one grid row is one contiguous range of idx and
	// pos. The same arrays hold a column-major copy after the m
	// transmitters: cell (col, row)'s ranks again, ascending, at
	// idx[cstart[col·rows+row]:cstart[col·rows+row+1]], so a run of cells
	// within one grid column is one contiguous range too. A run is a range
	// [first, end) of either copy.
	start  []int32
	cstart []int32
	idx    []int32
	pos    []txNode

	// sat is the round's summed-area table of per-cell transmitter counts:
	// sat[r·(cols+1) + c] counts the transmitters in rows < r and columns
	// < c. ringCap[k] bounds the signal of any transmitter in ring k (see
	// setShape).
	sat     []int32
	ringCap []float64

	// order holds an unfaded round's listed, non-transmitting listeners
	// sorted by cell (ascending within a cell); lstart is its counting
	// sort's per-cell offsets.
	order  []int
	lstart []int32
}

// newTxGrid builds the certificate's grid over pts, or returns nil when
// the certificate cannot run on it: a non-finite position, or a shape
// whose extent squared exceeds certRange. The finest shape is capped at
// max(gridMinCells, n/gridPointsPerCell) cells.
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
	g := &txGrid{Grid: *gg, pts: pts, alpha: alpha, maxPower: maxPower, shift: -1}
	cols, rows, cell := gg.Shape()
	// Squared distances across the grid, the ring caps' among them, must
	// stay finite in every shape a round can pick.
	for j := 0; ; j++ {
		c, r := g.shapeAt(j)
		if extent := float64(max(c, r)) * math.Ldexp(cell, j); !(extent*extent <= certRange) {
			return nil
		}
		if c == 1 && r == 1 {
			break
		}
	}
	n := len(pts)
	g.cellID = make([]int32, n)
	g.start = make([]int32, cols*rows+1)
	g.cstart = make([]int32, cols*rows+1)
	g.idx = make([]int32, 2*n)
	g.pos = make([]txNode, 2*n)
	g.sat = make([]int32, (rows+1)*(cols+1))
	g.ringCap = make([]float64, max(cols, rows, 2)+1)
	g.order = make([]int, n)
	g.lstart = make([]int32, cols*rows+1)
	return g
}

// shapeAt returns the column and row counts of the finest shape with its
// cell doubled j times. Doubling a power-of-two multiple of the cell halves
// each point's scaled offset exactly, so the cell of a point is its finest
// cell shifted right by j.
func (g *txGrid) shapeAt(j int) (cols, rows int) {
	cols, rows, _ = g.Grid.Shape()
	return (cols-1)>>j + 1, (rows-1)>>j + 1
}

// prepare readies the grid for a certified round: it picks the round's
// shape and buckets the transmitters (txList with their gathered nodes).
//
//crlint:hotpath
func (g *txGrid) prepare(txList []int, nodes []txNode) {
	if j := g.shapeFor(len(txList)); j != g.shift {
		g.setShape(j)
	}
	g.bucket(txList, nodes)
}

// shapeFor returns the shape of a round with m transmitters: the smallest j
// whose shape has at most max(m, 1) cells, about one transmitter per cell.
//
//crlint:hotpath
func (g *txGrid) shapeFor(m int) int {
	j := 0
	for cols, rows := g.shapeAt(0); cols*rows > max(m, 1); cols, rows = g.shapeAt(j) {
		j++
	}
	return j
}

// setShape makes the finest cell doubled j times the round's shape and
// recomputes ringCap for it, at O(cols + rows) cost.
//
// A transmitter in ring k ≥ 2 around a listener's cell is at distance at
// least (k−1)·cell from it, so its signal is at most
// maxPower·((k−1)·cell)^−α; ringCap[k] is that bound with the floor shrunk
// and the bound grown by certEps, which covers the rounding of cell
// assignment, of Dist2 and of the attenuation. Rings 0 and 1 have no floor
// (+Inf).
//
//crlint:hotpath
func (g *txGrid) setShape(j int) {
	_, _, fine := g.Grid.Shape()
	cell := math.Ldexp(fine, j)
	g.shift = j
	g.cols, g.rows = g.shapeAt(j)
	cells := g.cols * g.rows
	g.start, g.cstart, g.lstart = g.start[:cells+1], g.cstart[:cells+1], g.lstart[:cells+1]
	g.sat = g.sat[:(g.rows+1)*(g.cols+1)]
	g.ringCap = g.ringCap[:max(g.cols, g.rows, 2)+1]
	for k := range g.ringCap {
		if k < 2 {
			g.ringCap[k] = math.Inf(1)
			continue
		}
		d := float64(k-1) * cell * (1 - certEps)
		g.ringCap[k] = g.maxPower * attenuation(d*d, g.alpha) * (1 + certEps)
	}
}

// cellOf returns node u's cell id, row·cols + col, in the round's shape.
//
//crlint:hotpath
func (g *txGrid) cellOf(u int) int32 {
	col, row := g.CellAt(g.pts[u])
	return int32((row>>g.shift)*g.cols + col>>g.shift)
}

// bucket sorts the round's transmitters by cell — a counting sort into the
// CSR arrays, with each transmitter's gathered node beside its rank —
// copies the buckets column by column after them (cstart), and refills
// the summed-area table from the buckets, at O(m + cells). The buckets,
// and so the copy, inherit txList's ascending order within each cell.
//
//crlint:hotpath
func (g *txGrid) bucket(txList []int, nodes []txNode) {
	start := g.start
	clear(start)
	for _, u := range txList {
		c := g.cellOf(u)
		g.cellID[u] = c
		start[c+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	for i, u := range txList {
		c := g.cellID[u]
		at := start[c]
		g.idx[at], g.pos[at] = int32(i), nodes[i]
		start[c] = at + 1
	}
	// The fill advanced start[c] to cell c's end; shift back to starts.
	for i := len(start) - 1; i > 0; i-- {
		start[i] = start[i-1]
	}
	start[0] = 0
	at := int32(len(txList))
	for col := 0; col < g.cols; col++ {
		for row := 0; row < g.rows; row++ {
			c := row*g.cols + col
			g.cstart[col*g.rows+row] = at
			for i := start[c]; i < start[c+1]; i++ {
				g.idx[at], g.pos[at] = g.idx[i], g.pos[i]
				at++
			}
		}
	}
	g.cstart[len(g.cstart)-1] = at
	// Row 0 and column 0 of the table are zero; another shape may have left
	// counts there. start[base+c+1] − start[base] counts row r's
	// transmitters in columns ≤ c.
	w := g.cols + 1
	clear(g.sat[:w])
	for r := 0; r < g.rows; r++ {
		base := r * g.cols
		above, here := g.sat[r*w:(r+1)*w], g.sat[(r+1)*w:(r+2)*w]
		here[0] = 0
		for c := 0; c < g.cols; c++ {
			here[c+1] = above[c+1] + start[base+c+1] - start[base]
		}
	}
}

// sortListeners counting-sorts an unfaded round's listed listeners that do
// not transmit by cell into order, in O(listeners + cells), and returns
// them. Within a cell they keep the list's ascending order.
//
//crlint:hotpath
func (g *txGrid) sortListeners(tx []bool, listeners []int) []int {
	count := g.lstart
	clear(count)
	m := 0
	for _, v := range listeners {
		if tx[v] {
			continue
		}
		c := g.cellOf(v)
		g.cellID[v] = c
		count[c+1]++
		m++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	out := g.order[:m]
	for _, v := range listeners {
		if tx[v] {
			continue
		}
		c := g.cellID[v]
		out[count[c]] = v
		count[c]++
	}
	return out
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
