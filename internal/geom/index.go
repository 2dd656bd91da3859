package geom

import (
	"errors"
	"math"
)

// Grid is a uniform grid over a fixed point set: the origin at the point
// set's lower-left bounding-box corner, a cell size, and enough columns and
// rows to cover the points. It maps points to cells without holding any
// per-cell storage; Index adds the buckets.
type Grid struct {
	cell       float64
	minX, minY float64
	cols, rows int
}

// NewGrid builds the grid over pts with the given cell size (> 0).
func NewGrid(pts []Point, cell float64) (*Grid, error) {
	if len(pts) == 0 {
		return nil, errors.New("geom: index needs at least one point")
	}
	if !(cell > 0) || math.IsInf(cell, 1) {
		return nil, errors.New("geom: cell size must be positive and finite")
	}
	g := &Grid{cell: cell}
	minX, minY, maxX, maxY := bounds(pts)
	g.minX, g.minY = minX, minY
	g.cols = int((maxX-minX)/cell) + 1
	g.rows = int((maxY-minY)/cell) + 1
	return g, nil
}

// NewGridCapped builds a grid that never exceeds maxCells cells, doubling
// the cell size from the given starting value until the grid fits.
// Sparse-but-spread deployments (e.g. exponential chains, whose extent grows
// geometrically in n) would otherwise demand a grid proportional to their
// area rather than their population. The resulting cell size is a pure
// function of (pts, cell, maxCells), so callers building deterministic
// engines on top of the grid keep their determinism. maxCells must be ≥ 1.
func NewGridCapped(pts []Point, cell float64, maxCells int) (*Grid, error) {
	if maxCells < 1 {
		return nil, errors.New("geom: maxCells must be ≥ 1")
	}
	if !(cell > 0) || math.IsInf(cell, 1) {
		return nil, errors.New("geom: cell size must be positive and finite")
	}
	if len(pts) == 0 {
		return nil, errors.New("geom: index needs at least one point")
	}
	minX, minY, maxX, maxY := bounds(pts)
	for {
		cols := int((maxX-minX)/cell) + 1
		rows := int((maxY-minY)/cell) + 1
		if cols > 0 && rows > 0 && cols <= maxCells && rows <= maxCells/cols {
			return NewGrid(pts, cell)
		}
		cell *= 2
		if math.IsInf(cell, 1) {
			return nil, errors.New("geom: cell size overflow while capping grid")
		}
	}
}

// bounds returns the bounding box of pts.
func bounds(pts []Point) (minX, minY, maxX, maxY float64) {
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	for _, p := range pts {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	return minX, minY, maxX, maxY
}

// Shape returns the grid's column count, row count, and cell size. Cells
// are addressed as (col, row) with col in [0, cols) and row in [0, rows).
func (g *Grid) Shape() (cols, rows int, cell float64) {
	return g.cols, g.rows, g.cell
}

// CellAt returns the (col, row) coordinates of the grid cell containing p,
// clamped to the grid like every internal lookup (points on the max edge
// land in the last cell).
func (g *Grid) CellAt(p Point) (col, row int) {
	col = int((p.X - g.minX) / g.cell)
	row = int((p.Y - g.minY) / g.cell)
	if col < 0 {
		col = 0
	} else if col >= g.cols {
		col = g.cols - 1
	}
	if row < 0 {
		row = 0
	} else if row >= g.rows {
		row = g.rows - 1
	}
	return col, row
}

// Index is a uniform-grid spatial index over a fixed point set. It
// accelerates nearest-active-neighbour queries from O(k) to (near) O(1) for
// bounded-density deployments, which makes per-round link class tracking
// affordable on large networks.
//
// The index is immutable over positions; the active set is passed per query
// so one index serves a whole execution.
type Index struct {
	Grid
	pts []Point
	// buckets[row*cols+col] lists the indices of the points in that cell.
	buckets [][]int
}

// NewIndex builds an index with the given cell size (> 0). Deployments are
// normalised to shortest link 1, so a cell size around 2 keeps buckets small
// on constant-density deployments.
func NewIndex(pts []Point, cell float64) (*Index, error) {
	g, err := NewGrid(pts, cell)
	if err != nil {
		return nil, err
	}
	return newIndex(pts, g), nil
}

// NewIndexCapped builds an index over NewGridCapped's grid.
func NewIndexCapped(pts []Point, cell float64, maxCells int) (*Index, error) {
	g, err := NewGridCapped(pts, cell, maxCells)
	if err != nil {
		return nil, err
	}
	return newIndex(pts, g), nil
}

// newIndex buckets pts into the grid g.
func newIndex(pts []Point, g *Grid) *Index {
	ix := &Index{Grid: *g, pts: pts, buckets: make([][]int, g.cols*g.rows)}
	for i, p := range pts {
		c := ix.cellOf(p)
		ix.buckets[c] = append(ix.buckets[c], i)
	}
	return ix
}

// CellPoints returns the indices of the points in cell (col, row), in
// ascending index order (points are inserted in index order at build time).
// The returned slice aliases the index's storage and must not be mutated.
// Out-of-grid coordinates return nil.
//
//crlint:hotpath
func (ix *Index) CellPoints(col, row int) []int {
	if col < 0 || col >= ix.cols || row < 0 || row >= ix.rows {
		return nil
	}
	return ix.buckets[row*ix.cols+col]
}

// CellMaxDist2 returns an upper bound on the squared distance from p to any
// point inside cell (col, row): the squared distance to the cell's farthest
// corner. It is used by conservative far-field bounds, where an upper bound
// on distance gives a lower bound on received signal.
//
//crlint:hotpath
func (ix *Index) CellMaxDist2(col, row int, p Point) float64 {
	x0 := ix.minX + float64(col)*ix.cell
	y0 := ix.minY + float64(row)*ix.cell
	dx := p.X - x0
	if d := x0 + ix.cell - p.X; d > dx {
		dx = d
	}
	dy := p.Y - y0
	if d := y0 + ix.cell - p.Y; d > dy {
		dy = d
	}
	return dx*dx + dy*dy
}

func (g *Grid) cellOf(p Point) int {
	col := int((p.X - g.minX) / g.cell)
	row := int((p.Y - g.minY) / g.cell)
	if col >= g.cols {
		col = g.cols - 1
	}
	if row >= g.rows {
		row = g.rows - 1
	}
	return row*g.cols + col
}

// Nearest returns the index of the nearest active point to pts[u]
// (excluding u itself) and the distance, or (−1, +Inf) when no other active
// point exists. It expands square rings of cells outward and stops as soon
// as no unexplored cell can contain a closer point.
func (ix *Index) Nearest(u int, active []bool) (int, float64) {
	p := ix.pts[u]
	col := int((p.X - ix.minX) / ix.cell)
	row := int((p.Y - ix.minY) / ix.cell)
	if col >= ix.cols {
		col = ix.cols - 1
	}
	if row >= ix.rows {
		row = ix.rows - 1
	}
	best := math.Inf(1) // squared distance
	bestV := -1
	maxRing := ix.cols
	if ix.rows > maxRing {
		maxRing = ix.rows
	}
	for ring := 0; ring <= maxRing; ring++ {
		// Points in rings beyond `ring` are at distance ≥ (ring−1)·cell, so
		// once the best found distance is below that floor the scan is done.
		if bestV >= 0 {
			floor := float64(ring-1) * ix.cell
			if floor > 0 && best <= floor*floor {
				break
			}
		}
		scanned := false
		for dr := -ring; dr <= ring; dr++ {
			r := row + dr
			if r < 0 || r >= ix.rows {
				continue
			}
			for dc := -ring; dc <= ring; dc++ {
				// Only the ring's perimeter (interior scanned previously).
				if dr > -ring && dr < ring && dc > -ring && dc < ring {
					continue
				}
				c := col + dc
				if c < 0 || c >= ix.cols {
					continue
				}
				scanned = true
				for _, v := range ix.buckets[r*ix.cols+c] {
					if v == u || !active[v] {
						continue
					}
					if d2 := p.Dist2(ix.pts[v]); d2 < best {
						best, bestV = d2, v
					}
				}
			}
		}
		if !scanned && bestV >= 0 {
			break
		}
	}
	if bestV < 0 {
		return -1, math.Inf(1)
	}
	return bestV, math.Sqrt(best)
}

// ComputeLinkClassesIndexed is ComputeLinkClasses backed by a spatial index:
// identical output, O(k) queries instead of O(k²) scans on bounded-density
// deployments. The index must have been built over the same pts slice.
func ComputeLinkClassesIndexed(pts []Point, active []bool, ix *Index) *LinkClasses {
	n := len(pts)
	lc := &LinkClasses{
		Class:       make([]int, n),
		Nearest:     make([]int, n),
		NearestDist: make([]float64, n),
	}
	activeCount := 0
	for u := range pts {
		lc.Class[u] = -1
		lc.Nearest[u] = -1
		lc.NearestDist[u] = math.Inf(1)
		if active[u] {
			activeCount++
		}
	}
	if activeCount < 2 {
		return lc
	}
	maxClass := -1
	for u := range pts {
		if !active[u] {
			continue
		}
		v, d := ix.Nearest(u, active)
		c := LinkClassOf(d)
		lc.Class[u] = c
		lc.Nearest[u] = v
		lc.NearestDist[u] = d
		if c > maxClass {
			maxClass = c
		}
	}
	lc.Sizes = make([]int, maxClass+1)
	for u := range pts {
		if active[u] {
			lc.Sizes[lc.Class[u]]++
		}
	}
	return lc
}
