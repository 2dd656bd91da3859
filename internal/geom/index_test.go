package geom

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"fadingcr/internal/xrand"
)

func TestNewIndexValidation(t *testing.T) {
	if _, err := NewIndex(nil, 2); err == nil {
		t.Error("empty point set accepted")
	}
	if _, err := NewIndex([]Point{{X: 0, Y: 0}}, 0); err == nil {
		t.Error("zero cell accepted")
	}
	if _, err := NewIndex([]Point{{X: 0, Y: 0}}, -1); err == nil {
		t.Error("negative cell accepted")
	}
	if _, err := NewIndex([]Point{{X: 0, Y: 0}}, math.Inf(1)); err == nil {
		t.Error("infinite cell accepted")
	}
}

func TestIndexNearestSimple(t *testing.T) {
	pts := []Point{{X: 0, Y: 0}, {X: 3, Y: 0}, {X: 10, Y: 0}}
	ix, err := NewIndex(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	active := []bool{true, true, true}
	v, d := ix.Nearest(0, active)
	if v != 1 || d != 3 {
		t.Errorf("Nearest(0) = (%d, %v), want (1, 3)", v, d)
	}
	// Deactivate node 1: nearest becomes node 2 at distance 10.
	active[1] = false
	v, d = ix.Nearest(0, active)
	if v != 2 || d != 10 {
		t.Errorf("Nearest(0) with 1 inactive = (%d, %v), want (2, 10)", v, d)
	}
	// No other active node.
	active[2] = false
	v, d = ix.Nearest(0, active)
	if v != -1 || !math.IsInf(d, 1) {
		t.Errorf("Nearest(0) alone = (%d, %v), want (-1, +Inf)", v, d)
	}
}

// TestIndexNearestMatchesBruteForceProperty: the grid index returns exactly
// the brute-force nearest active neighbour on random deployments and masks.
func TestIndexNearestMatchesBruteForceProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, cellRaw uint8, maskSeed uint64) bool {
		n := 2 + int(nRaw%60)
		d, err := UniformDisk(seed, n)
		if err != nil {
			return false
		}
		cell := 0.5 + float64(cellRaw%8)
		ix, err := NewIndex(d.Points, cell)
		if err != nil {
			return false
		}
		rng := xrand.New(maskSeed)
		active := make([]bool, n)
		for i := range active {
			active[i] = rng.Float64() < 0.8
		}
		for u := 0; u < n; u++ {
			gotV, gotD := ix.Nearest(u, active)
			wantV, wantD := bruteNearestActive(d.Points, active, u)
			if wantV < 0 {
				if gotV != -1 || !math.IsInf(gotD, 1) {
					return false
				}
				continue
			}
			// Distances must agree exactly; ties may pick different nodes.
			if math.Abs(gotD-wantD) > 1e-12 || gotV < 0 || !active[gotV] || gotV == u {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func bruteNearestActive(pts []Point, active []bool, u int) (int, float64) {
	best, bestV := math.Inf(1), -1
	for v := range pts {
		if v == u || !active[v] {
			continue
		}
		if d2 := pts[u].Dist2(pts[v]); d2 < best {
			best, bestV = d2, v
		}
	}
	if bestV < 0 {
		return -1, math.Inf(1)
	}
	return bestV, math.Sqrt(best)
}

// TestComputeLinkClassesIndexedMatches: indexed and brute-force link classes
// agree on class assignment and sizes (nearest node may differ on exact
// ties, but the class is distance-derived and must match).
func TestComputeLinkClassesIndexedMatches(t *testing.T) {
	f := func(seed uint64, nRaw uint8, maskSeed uint64) bool {
		n := 2 + int(nRaw%50)
		d, err := UniformDisk(seed, n)
		if err != nil {
			return false
		}
		ix, err := NewIndex(d.Points, 2)
		if err != nil {
			return false
		}
		rng := xrand.New(maskSeed)
		active := make([]bool, n)
		for i := range active {
			active[i] = rng.Float64() < 0.7
		}
		a := ComputeLinkClasses(d.Points, active)
		b := ComputeLinkClassesIndexed(d.Points, active, ix)
		for u := 0; u < n; u++ {
			if a.Class[u] != b.Class[u] {
				return false
			}
			if math.Abs(a.NearestDist[u]-b.NearestDist[u]) > 1e-12 &&
				!(math.IsInf(a.NearestDist[u], 1) && math.IsInf(b.NearestDist[u], 1)) {
				return false
			}
		}
		if len(a.Sizes) != len(b.Sizes) {
			return false
		}
		for i := range a.Sizes {
			if a.Sizes[i] != b.Sizes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestComputeLinkClassesIndexedChain(t *testing.T) {
	d, err := ExponentialChain(4, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(d.Points, 2)
	if err != nil {
		t.Fatal(err)
	}
	active := allActive(d.N())
	lc := ComputeLinkClassesIndexed(d.Points, active, ix)
	for i := 0; i < 5; i++ {
		if lc.Sizes[i] != 4 {
			t.Errorf("class %d size = %d, want 4 (sizes %v)", i, lc.Sizes[i], lc.Sizes)
		}
	}
}

// TestIndexDegenerateOneCell: every point in a single grid cell — the ring
// scan must still find neighbours, and the accessors must report the 1×1
// grid faithfully.
func TestIndexDegenerateOneCell(t *testing.T) {
	pts := []Point{{X: 0, Y: 0}, {X: 0.3, Y: 0.1}, {X: 0.1, Y: 0.4}, {X: 0.45, Y: 0.45}}
	ix, err := NewIndex(pts, 100)
	if err != nil {
		t.Fatal(err)
	}
	cols, rows, cell := ix.Shape()
	if cols != 1 || rows != 1 || cell != 100 {
		t.Fatalf("Shape() = (%d, %d, %v), want (1, 1, 100)", cols, rows, cell)
	}
	got := ix.CellPoints(0, 0)
	if len(got) != len(pts) {
		t.Fatalf("CellPoints(0,0) = %v, want all %d points", got, len(pts))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("CellPoints(0,0) = %v, want ascending indices", got)
		}
	}
	active := allActive(len(pts))
	for u := range pts {
		gotV, gotD := ix.Nearest(u, active)
		wantV, wantD := bruteNearestActive(pts, active, u)
		if gotV != wantV || math.Abs(gotD-wantD) > 1e-12 {
			t.Errorf("Nearest(%d) = (%d, %v), want (%d, %v)", u, gotV, gotD, wantV, wantD)
		}
	}
}

func TestIndexDegenerateSinglePoint(t *testing.T) {
	pts := []Point{{X: 3, Y: -2}}
	ix, err := NewIndex(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v, d := ix.Nearest(0, []bool{true}); v != -1 || !math.IsInf(d, 1) {
		t.Errorf("Nearest on singleton = (%d, %v), want (-1, +Inf)", v, d)
	}
	if col, row := ix.CellAt(pts[0]); col != 0 || row != 0 {
		t.Errorf("CellAt = (%d, %d), want (0, 0)", col, row)
	}
	if got := ix.CellPoints(0, 0); len(got) != 1 || got[0] != 0 {
		t.Errorf("CellPoints(0,0) = %v, want [0]", got)
	}
	if got := ix.CellPoints(1, 0); got != nil {
		t.Errorf("out-of-grid CellPoints = %v, want nil", got)
	}
	if got := ix.CellPoints(0, -1); got != nil {
		t.Errorf("out-of-grid CellPoints = %v, want nil", got)
	}
}

// TestIndexDegenerateCollinear: collinear points produce a 1-row grid; the
// ring scan degenerates to a 1-D sweep and must still match brute force.
func TestIndexDegenerateCollinear(t *testing.T) {
	pts := make([]Point, 17)
	for i := range pts {
		pts[i] = Point{X: float64(i) * 1.5, Y: 0}
	}
	ix, err := NewIndex(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, rows, _ := ix.Shape(); rows != 1 {
		t.Fatalf("collinear grid rows = %d, want 1", rows)
	}
	active := allActive(len(pts))
	active[5] = false
	active[6] = false
	for u := range pts {
		gotV, gotD := ix.Nearest(u, active)
		wantV, wantD := bruteNearestActive(pts, active, u)
		if wantV < 0 {
			if gotV != -1 {
				t.Errorf("Nearest(%d) = %d, want -1", u, gotV)
			}
			continue
		}
		if math.Abs(gotD-wantD) > 1e-12 {
			t.Errorf("Nearest(%d) dist = %v, want %v", u, gotD, wantD)
		}
	}
}

func TestNewIndexCapped(t *testing.T) {
	if _, err := NewIndexCapped(nil, 2, 64); err == nil {
		t.Error("empty point set accepted")
	}
	if _, err := NewIndexCapped([]Point{{}}, 2, 0); err == nil {
		t.Error("zero maxCells accepted")
	}
	if _, err := NewIndexCapped([]Point{{}}, -1, 64); err == nil {
		t.Error("negative cell accepted")
	}

	// A huge-spread deployment: with cell 2 the grid would need ~2^20 columns;
	// capping to 4096 cells must coarsen the cell size instead of allocating
	// a multi-megabyte bucket array.
	pts := []Point{{X: 0, Y: 0}, {X: 1 << 21, Y: 0}, {X: 3, Y: 0}}
	ix, err := NewIndexCapped(pts, 2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	cols, rows, cell := ix.Shape()
	if cols*rows > 4096 {
		t.Fatalf("capped grid has %d×%d = %d cells, want ≤ 4096", cols, rows, cols*rows)
	}
	if cell <= 2 {
		t.Fatalf("capped cell = %v, want coarsened above 2", cell)
	}
	active := allActive(len(pts))
	if v, d := ix.Nearest(0, active); v != 2 || d != 3 {
		t.Errorf("Nearest(0) = (%d, %v), want (2, 3)", v, d)
	}

	// Under the cap, NewIndexCapped must behave exactly like NewIndex.
	small := []Point{{X: 0, Y: 0}, {X: 5, Y: 5}}
	capped, err := NewIndexCapped(small, 2, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewIndex(small, 2)
	if err != nil {
		t.Fatal(err)
	}
	cc, cr, ccell := capped.Shape()
	pc, pr, pcell := plain.Shape()
	if cc != pc || cr != pr || ccell != pcell {
		t.Errorf("capped grid (%d, %d, %v) != plain grid (%d, %d, %v)", cc, cr, ccell, pc, pr, pcell)
	}
}

func TestIndexCellMaxDist2(t *testing.T) {
	pts := []Point{{X: 0, Y: 0}, {X: 7, Y: 7}}
	ix, err := NewIndex(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	cols, rows, _ := ix.Shape()
	// Every point in every cell must be within the bound from every probe.
	probes := []Point{{X: 0, Y: 0}, {X: 3.5, Y: 3.5}, {X: 7, Y: 7}, {X: -1, Y: 9}}
	extra := []Point{{X: 1.9, Y: 0.1}, {X: 4.2, Y: 6.6}, {X: 6.99, Y: 0}}
	all := append(append([]Point{}, pts...), extra...)
	ix2, err := NewIndex(all, 2)
	if err != nil {
		t.Fatal(err)
	}
	cols2, rows2, _ := ix2.Shape()
	if cols2 != cols || rows2 != rows {
		t.Fatalf("grid changed: (%d, %d) vs (%d, %d)", cols2, rows2, cols, rows)
	}
	for _, p := range probes {
		for row := 0; row < rows; row++ {
			for col := 0; col < cols; col++ {
				bound := ix2.CellMaxDist2(col, row, p)
				for _, v := range ix2.CellPoints(col, row) {
					if d2 := p.Dist2(all[v]); d2 > bound+1e-9 {
						t.Errorf("point %d in cell (%d, %d): dist2 %v exceeds bound %v", v, col, row, d2, bound)
					}
				}
			}
		}
	}
}

// BenchmarkIndexCellIteration measures the per-listener cost of the cell
// walk the far-field Deliver path performs: locate the listener's cell, then
// stream the point lists of the surrounding ring of cells.
func BenchmarkIndexCellIteration(b *testing.B) {
	for _, n := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d, err := UniformDisk(11, n)
			if err != nil {
				b.Fatal(err)
			}
			ix, err := NewIndexCapped(d.Points, 2, 4*n)
			if err != nil {
				b.Fatal(err)
			}
			cols, rows, _ := ix.Shape()
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				u := i % n
				col, row := ix.CellAt(d.Points[u])
				for dr := -2; dr <= 2; dr++ {
					r := row + dr
					if r < 0 || r >= rows {
						continue
					}
					for dc := -2; dc <= 2; dc++ {
						c := col + dc
						if c < 0 || c >= cols {
							continue
						}
						sink += len(ix.CellPoints(c, r))
					}
				}
			}
			benchSink = sink
		})
	}
}

var benchSink int

func TestComputeLinkClassesIndexedSingleActive(t *testing.T) {
	pts := []Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	ix, err := NewIndex(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	lc := ComputeLinkClassesIndexed(pts, []bool{true, false}, ix)
	if lc.Class[0] != -1 || len(lc.Sizes) != 0 {
		t.Errorf("sole active: class=%d sizes=%v", lc.Class[0], lc.Sizes)
	}
}

// TestGridMatchesIndex: a bare Grid has the shape and cell map of the Index
// built over the same points, capped or not.
func TestGridMatchesIndex(t *testing.T) {
	pts := []Point{{X: 0, Y: 0}, {X: 1 << 21, Y: 3}, {X: 3, Y: 0}, {X: 17.5, Y: -4}}
	for _, maxCells := range []int{4, 4096, 1 << 30} {
		g, err := NewGridCapped(pts, 2, maxCells)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := NewIndexCapped(pts, 2, maxCells)
		if err != nil {
			t.Fatal(err)
		}
		gc, gr, gcell := g.Shape()
		ic, ir, icell := ix.Shape()
		if gc != ic || gr != ir || gcell != icell {
			t.Fatalf("maxCells %d: grid shape (%d, %d, %v), index (%d, %d, %v)", maxCells, gc, gr, gcell, ic, ir, icell)
		}
		for _, p := range pts {
			c, r := g.CellAt(p)
			if len(ix.CellPoints(c, r)) == 0 {
				t.Errorf("maxCells %d: point %v maps to cell (%d, %d), which the index leaves empty", maxCells, p, c, r)
			}
		}
	}
	if _, err := NewGrid(nil, 2); err == nil {
		t.Error("empty point set accepted")
	}
}
