package geom

import (
	"math"
	"testing"
)

// inCell reports whether p lies in cell (col, row) of g: inside the cell's
// half-open square, or on the grid's far edge in the last column or row,
// where CellAt clamps it.
func inCell(g *Grid, p Point, col, row int) bool {
	in := func(v, lo float64, i, n int) bool {
		a, b := lo+float64(i)*g.cell, lo+float64(i+1)*g.cell
		return a <= v && (v < b || i == n-1)
	}
	return in(p.X, g.minX, col, g.cols) && in(p.Y, g.minY, row, g.rows)
}

// TestNewIndexValidation: the grid index rejects an empty point set and a
// cell size that is not positive and finite.
func TestNewIndexValidation(t *testing.T) {
	if _, err := NewGrid(nil, 2); err == nil {
		t.Error("empty point set accepted")
	}
	for _, cell := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := NewGrid([]Point{{X: 0, Y: 0}}, cell); err == nil {
			t.Errorf("cell %v accepted", cell)
		}
	}
}

// TestIndexDegenerateOneCell: every point in a single grid cell — the
// accessors must report the 1×1 grid faithfully and map every point to it.
func TestIndexDegenerateOneCell(t *testing.T) {
	pts := []Point{{X: 0, Y: 0}, {X: 0.3, Y: 0.1}, {X: 0.1, Y: 0.4}, {X: 0.45, Y: 0.45}}
	g, err := NewGrid(pts, 100)
	if err != nil {
		t.Fatal(err)
	}
	cols, rows, cell := g.Shape()
	if cols != 1 || rows != 1 || cell != 100 {
		t.Fatalf("Shape() = (%d, %d, %v), want (1, 1, 100)", cols, rows, cell)
	}
	for _, p := range pts {
		if col, row := g.CellAt(p); col != 0 || row != 0 {
			t.Errorf("CellAt(%v) = (%d, %d), want (0, 0)", p, col, row)
		}
	}
}

func TestIndexDegenerateSinglePoint(t *testing.T) {
	pts := []Point{{X: 3, Y: -2}}
	g, err := NewGrid(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cols, rows, _ := g.Shape(); cols != 1 || rows != 1 {
		t.Errorf("Shape() = (%d, %d), want (1, 1)", cols, rows)
	}
	if col, row := g.CellAt(pts[0]); col != 0 || row != 0 {
		t.Errorf("CellAt = (%d, %d), want (0, 0)", col, row)
	}
	// Points off the grid clamp to its border cells.
	if col, row := g.CellAt(Point{X: -50, Y: 50}); col != 0 || row != 0 {
		t.Errorf("off-grid CellAt = (%d, %d), want (0, 0)", col, row)
	}
}

// TestIndexDegenerateCollinear: collinear points produce a 1-row grid, and
// every point lands in the column that contains it, in ascending order.
func TestIndexDegenerateCollinear(t *testing.T) {
	pts := make([]Point, 17)
	for i := range pts {
		pts[i] = Point{X: float64(i) * 1.5, Y: 0}
	}
	g, err := NewGrid(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	cols, rows, _ := g.Shape()
	if rows != 1 || cols != 13 {
		t.Fatalf("collinear grid is %d×%d, want 13×1", cols, rows)
	}
	prev := 0
	for i, p := range pts {
		col, row := g.CellAt(p)
		if !inCell(g, p, col, row) || col < prev {
			t.Errorf("point %d %v: cell (%d, %d) after column %d", i, p, col, row, prev)
		}
		prev = col
	}
}

func TestNewIndexCapped(t *testing.T) {
	if _, err := NewGridCapped(nil, 2, 64); err == nil {
		t.Error("empty point set accepted")
	}
	if _, err := NewGridCapped([]Point{{}}, 2, 0); err == nil {
		t.Error("zero maxCells accepted")
	}
	if _, err := NewGridCapped([]Point{{}}, -1, 64); err == nil {
		t.Error("negative cell accepted")
	}

	// A huge-spread deployment: with cell 2 the grid would need ~2^20
	// columns; capping to 4096 cells must coarsen the cell size instead.
	pts := []Point{{X: 0, Y: 0}, {X: 1 << 21, Y: 0}, {X: 3, Y: 0}}
	g, err := NewGridCapped(pts, 2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	cols, rows, cell := g.Shape()
	if cols*rows > 4096 {
		t.Fatalf("capped grid has %d×%d = %d cells, want ≤ 4096", cols, rows, cols*rows)
	}
	if cell <= 2 {
		t.Fatalf("capped cell = %v, want coarsened above 2", cell)
	}

	// Under the cap, NewGridCapped must behave exactly like NewGrid.
	small := []Point{{X: 0, Y: 0}, {X: 5, Y: 5}}
	capped, err := NewGridCapped(small, 2, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewGrid(small, 2)
	if err != nil {
		t.Fatal(err)
	}
	if *capped != *plain {
		t.Errorf("capped grid %+v != plain grid %+v", *capped, *plain)
	}
}

// TestGridMatchesIndex: CellAt maps every point to the cell of the literal
// grid index, the cell whose square contains it, capped or not.
func TestGridMatchesIndex(t *testing.T) {
	pts := []Point{{X: 0, Y: 0}, {X: 1 << 21, Y: 3}, {X: 3, Y: 0}, {X: 17.5, Y: -4}}
	d, err := UniformDisk(11, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range [][]Point{pts, d.Points} {
		for _, maxCells := range []int{4, 4096, 1 << 30} {
			g, err := NewGridCapped(set, 2, maxCells)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range set {
				if c, r := g.CellAt(p); !inCell(g, p, c, r) {
					t.Errorf("maxCells %d: point %v maps to cell (%d, %d), which does not contain it", maxCells, p, c, r)
				}
			}
		}
	}
	if _, err := NewGrid(nil, 2); err == nil {
		t.Error("empty point set accepted")
	}
}
