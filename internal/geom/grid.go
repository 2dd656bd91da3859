package geom

import (
	"errors"
	"math"
)

// Grid is a uniform grid over a fixed point set: the origin at the point
// set's lower-left bounding-box corner, a cell size, and enough columns and
// rows to cover the points. It maps points to cells without holding any
// per-cell storage; a caller that buckets points keeps its own buckets.
type Grid struct {
	cell       float64
	minX, minY float64
	cols, rows int
}

// NewGrid builds the grid over pts with the given cell size (> 0).
func NewGrid(pts []Point, cell float64) (*Grid, error) {
	if len(pts) == 0 {
		return nil, errors.New("geom: grid needs at least one point")
	}
	if !(cell > 0) || math.IsInf(cell, 1) {
		return nil, errors.New("geom: cell size must be positive and finite")
	}
	minX, minY, maxX, maxY := bounds(pts)
	g := gridOver(minX, minY, maxX, maxY, cell)
	return &g, nil
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
		return nil, errors.New("geom: grid needs at least one point")
	}
	minX, minY, maxX, maxY := bounds(pts)
	for {
		g := gridOver(minX, minY, maxX, maxY, cell)
		if g.cols > 0 && g.rows > 0 && g.cols <= maxCells && g.rows <= maxCells/g.cols {
			return &g, nil
		}
		cell *= 2
		if math.IsInf(cell, 1) {
			return nil, errors.New("geom: cell size overflow while capping grid")
		}
	}
}

// gridOver returns the grid with the given cell size over the bounding box
// [minX, maxX] × [minY, maxY]: the origin at the box's lower-left corner
// and enough columns and rows to cover it. A column or row count too large
// for an int converts to a value NewGridCapped rejects; a caller that
// cannot reject one checks the counts as floats first.
func gridOver(minX, minY, maxX, maxY, cell float64) Grid {
	return Grid{
		cell: cell, minX: minX, minY: minY,
		cols: int((maxX-minX)/cell) + 1,
		rows: int((maxY-minY)/cell) + 1,
	}
}

// bounds returns the bounding box of pts. The built-in min and max treat
// NaN and signed zeros as math.Min and math.Max do, without a call.
func bounds(pts []Point) (minX, minY, maxX, maxY float64) {
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	for _, p := range pts {
		minX = min(minX, p.X)
		minY = min(minY, p.Y)
		maxX = max(maxX, p.X)
		maxY = max(maxY, p.Y)
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
