package geom

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// checkNormalised verifies the two Deployment invariants: the shortest link
// is 1 (up to float round-off) and R equals the longest link.
func checkNormalised(t *testing.T, d *Deployment) {
	t.Helper()
	minD, _, _ := MinPairwiseDist(d.Points)
	if math.Abs(minD-1) > 1e-9 {
		t.Errorf("shortest link = %v, want 1", minD)
	}
	maxD, _, _ := MaxPairwiseDist(d.Points)
	if math.Abs(maxD-d.R) > 1e-9*d.R {
		t.Errorf("R = %v but longest link = %v", d.R, maxD)
	}
	if d.R < 1 {
		t.Errorf("R = %v < 1", d.R)
	}
}

func TestNewDeploymentNormalises(t *testing.T) {
	d, err := NewDeployment([]Point{{0, 0}, {0, 2}, {0, 10}})
	if err != nil {
		t.Fatal(err)
	}
	checkNormalised(t, d)
	if d.R != 5 {
		t.Errorf("R = %v, want 5", d.R)
	}
	if d.N() != 3 {
		t.Errorf("N = %d, want 3", d.N())
	}
}

// TestShortestLinkPath: NewDeployment counts each normalisation in
// geom.deployments, and in geom.extent_sweeps those whose shortest link
// fell back from the grid to the sweep. Uniform disks and squares of 64
// points and more take the grid, and so do exponential chains, each of
// whose pairs lies in one cell; a smaller set, an axis-parallel line, an
// exact lattice (its shortest links are as long as a cell), clusters
// (crowded cells), a coordinate that is not finite and the thin strip
// take the sweep.
func TestShortestLinkPath(t *testing.T) {
	gen := func(d *Deployment, err error) []Point {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d.Points
	}
	line := make([]Point, 100)
	for i := range line {
		line[i] = Point{3, 1.5 * float64(i*7%100)}
	}
	withInf := slices.Clone(gen(UniformDisk(2, 500)))
	withInf[3].X = math.Inf(1)
	for _, c := range []struct {
		name  string
		pts   []Point
		sweep bool
	}{
		{"disk 64", gen(UniformDisk(1, 64)), false},
		{"disk 4096", gen(UniformDisk(1, 4096)), false},
		{"square 64", gen(UniformSquare(1, 64)), false},
		{"square 4096", gen(UniformSquare(1, 4096)), false},
		{"exponential chain", gen(ExponentialChain(7, 12, 3)), false},
		{"disk 63", gen(UniformDisk(1, 63)), true},
		{"axis-parallel line", line, true},
		{"lattice", gen(PerturbedGrid(5, 400, 0)), true},
		{"clusters", gen(Clusters(1, 1024, 4, 2, 640)), true},
		{"infinite coordinate", withInf, true},
		{"thin strip", thinStrip(t, true), true},
	} {
		deployments, sweeps := mDeployments.Load(), mExtentSweeps.Load()
		if _, err := NewDeployment(c.pts); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := mDeployments.Load() - deployments; got != 1 {
			t.Errorf("%s: geom.deployments rose by %d, want 1", c.name, got)
		}
		want := int64(0)
		if c.sweep {
			want = 1
		}
		if got := mExtentSweeps.Load() - sweeps; got != want {
			t.Errorf("%s: geom.extent_sweeps rose by %d, want %d", c.name, got, want)
		}
	}
}

// TestGridClosestPairEveryNeighbour: the scan compares a point with each
// of the five cell relations it must — one cell, the next cell of its row,
// and the three cells of the row below. For each, a uniform square gets a
// pair planted a small fraction of a cell apart across the boundary
// between two such cells, so it is the closest pair, and the grid's
// shortest link must be MinPairwiseDist's bit for bit, on that pair.
func TestGridClosestPairEveryNeighbour(t *testing.T) {
	d, err := UniformSquare(1, 400)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := closestPairGrid(d.Points)
	if !ok {
		t.Fatal("the square takes no grid")
	}
	cols, rows, cell := g.Shape()
	// A is the corner shared by cells (col, row), (col+1, row), (col, row+1)
	// and (col+1, row+1).
	col, row := cols/2, rows/2
	a := Point{g.minX + float64(col+1)*cell, g.minY + float64(row+1)*cell}
	e := cell / 1024
	for _, c := range []struct {
		dc, dr int
		p, q   Point // offsets from A in units of e
	}{
		{0, 0, Point{-2, -1}, Point{-1, -1}},
		{1, 0, Point{-1, -1}, Point{1, -1}},
		{-1, 1, Point{1, -1}, Point{-1, 1}},
		{0, 1, Point{-1, -1}, Point{-1, 1}},
		{1, 1, Point{-1, -1}, Point{1, 1}},
	} {
		pts := slices.Clone(d.Points)
		// Points 0 and 1 are not on the bounding box, so the grid stays.
		pts[0], pts[1] = a.Add(c.p.Scale(e)), a.Add(c.q.Scale(e))
		if h, _ := closestPairGrid(pts); h != g {
			t.Fatalf("relation (%d, %d): the planted pair moved the grid", c.dc, c.dr)
		}
		cp, rp := g.CellAt(pts[0])
		cq, rq := g.CellAt(pts[1])
		if cq-cp != c.dc || rq-rp != c.dr {
			t.Fatalf("relation (%d, %d): planted pair in cells (%d, %d) and (%d, %d)", c.dc, c.dr, cp, rp, cq, rq)
		}
		want, i, j := MinPairwiseDist(pts)
		got, ok := gridClosestPair(pts, make([]Point, len(pts)))
		if !ok || math.Float64bits(got) != math.Float64bits(want) || i != 0 || j != 1 {
			t.Errorf("relation (%d, %d): grid %v (ok %v), MinPairwiseDist %v on points %d, %d", c.dc, c.dr, got, ok, want, i, j)
		}
	}
}

func TestNewDeploymentErrors(t *testing.T) {
	if _, err := NewDeployment(nil); err == nil {
		t.Error("want error for empty input")
	}
	if _, err := NewDeployment([]Point{{1, 1}}); err == nil {
		t.Error("want error for single point")
	}
	if _, err := NewDeployment([]Point{{1, 1}, {1, 1}}); err == nil {
		t.Error("want error for coincident points")
	}
}

func TestUniformDiskProperties(t *testing.T) {
	for _, n := range []int{2, 3, 16, 100} {
		d, err := UniformDisk(42, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d.N() != n {
			t.Errorf("n=%d: got %d points", n, d.N())
		}
		checkNormalised(t, d)
	}
	if _, err := UniformDisk(1, 1); err == nil {
		t.Error("want error for n=1")
	}
}

func TestUniformDiskDeterministic(t *testing.T) {
	a, err := UniformDisk(7, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := UniformDisk(7, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("same seed produced different point %d: %v vs %v", i, a.Points[i], b.Points[i])
		}
	}
	c, err := UniformDisk(8, 50)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Points {
		if a.Points[i] != c.Points[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical deployments")
	}
}

func TestUniformSquare(t *testing.T) {
	d, err := UniformSquare(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 64 {
		t.Errorf("N = %d, want 64", d.N())
	}
	checkNormalised(t, d)
}

func TestPerturbedGrid(t *testing.T) {
	d, err := PerturbedGrid(5, 49, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 49 {
		t.Errorf("N = %d, want 49", d.N())
	}
	checkNormalised(t, d)
	// With unit spacing and jitter 0.2 the grid diameter is Θ(sqrt n); after
	// normalisation R stays below a comfortable multiple of sqrt(n).
	if d.R > 10*math.Sqrt(49) {
		t.Errorf("R = %v suspiciously large for a grid", d.R)
	}

	if _, err := PerturbedGrid(5, 49, 0.5); err == nil {
		t.Error("want error for jitter = 0.5")
	}
	if _, err := PerturbedGrid(5, 49, -0.1); err == nil {
		t.Error("want error for negative jitter")
	}
	if _, err := PerturbedGrid(5, 1, 0.1); err == nil {
		t.Error("want error for n=1")
	}
}

func TestClusters(t *testing.T) {
	d, err := Clusters(11, 40, 4, 1.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 40 {
		t.Errorf("N = %d, want 40", d.N())
	}
	checkNormalised(t, d)

	for _, bad := range []struct {
		n, k          int
		radius, sprea float64
	}{
		{1, 1, 1, 1},
		{10, 0, 1, 1},
		{10, 2, 0, 1},
		{10, 2, 1, 0},
	} {
		if _, err := Clusters(1, bad.n, bad.k, bad.radius, bad.sprea); err == nil {
			t.Errorf("Clusters(%+v): want error", bad)
		}
	}
}

func TestExponentialChainRealisesAllClasses(t *testing.T) {
	const classes, pairs = 6, 2
	d, err := ExponentialChain(9, classes, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 2*classes*pairs {
		t.Fatalf("N = %d, want %d", d.N(), 2*classes*pairs)
	}
	checkNormalised(t, d)

	active := make([]bool, d.N())
	for i := range active {
		active[i] = true
	}
	lc := ComputeLinkClasses(d.Points, active)
	for i := 0; i < classes; i++ {
		if i >= len(lc.Sizes) || lc.Sizes[i] != 2*pairs {
			t.Errorf("class %d size = %d, want %d (sizes %v)", i, sizeAt(lc.Sizes, i), 2*pairs, lc.Sizes)
		}
	}
	// Every node's nearest neighbour must be its pair partner: partner
	// indices differ by exactly 1 within a pair (2k, 2k+1).
	for u := 0; u < d.N(); u += 2 {
		if lc.Nearest[u] != u+1 || lc.Nearest[u+1] != u {
			t.Errorf("pair (%d,%d): nearest = (%d,%d)", u, u+1, lc.Nearest[u], lc.Nearest[u+1])
		}
	}

	if _, err := ExponentialChain(1, 0, 1); err == nil {
		t.Error("want error for classes=0")
	}
	if _, err := ExponentialChain(1, 1, 0); err == nil {
		t.Error("want error for pairsPerClass=0")
	}
}

func sizeAt(sizes []int, i int) int {
	if i < len(sizes) {
		return sizes[i]
	}
	return 0
}

func TestTwoNode(t *testing.T) {
	d := TwoNode()
	if d.N() != 2 || d.R != 1 {
		t.Errorf("TwoNode = %d nodes, R=%v", d.N(), d.R)
	}
	if got := d.Points[0].Dist(d.Points[1]); got != 1 {
		t.Errorf("distance = %v, want 1", got)
	}
}

func TestCoLocatedPairs(t *testing.T) {
	d, err := CoLocatedPairs(20, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 20 {
		t.Errorf("N = %d, want 20", d.N())
	}
	checkNormalised(t, d)
	active := make([]bool, d.N())
	for i := range active {
		active[i] = true
	}
	lc := ComputeLinkClasses(d.Points, active)
	if lc.Sizes[0] != 20 {
		t.Errorf("class 0 size = %d, want all 20 (sizes %v)", lc.Sizes[0], lc.Sizes)
	}

	if _, err := CoLocatedPairs(7, 10); err == nil {
		t.Error("want error for odd n")
	}
	if _, err := CoLocatedPairs(4, 0); err == nil {
		t.Error("want error for zero radius")
	}
}

func TestLinkClassCount(t *testing.T) {
	d := &Deployment{R: 1}
	d.Points = []Point{{0, 0}, {1, 0}}
	if got := d.LinkClassCount(); got != 1 {
		t.Errorf("R=1: LinkClassCount = %d, want 1", got)
	}
	d.R = 8
	if got := d.LinkClassCount(); got != 4 {
		t.Errorf("R=8: LinkClassCount = %d, want 4", got)
	}
	d.Points = d.Points[:1]
	if got := d.LinkClassCount(); got != 0 {
		t.Errorf("single node: LinkClassCount = %d, want 0", got)
	}
}

// BenchmarkNewDeployment normalises uniform-disk point sets of the sizes
// the scaling experiments reach, whose shortest link takes the grid, and a
// clustered set (crsim's clusters deployment at n = 4096), whose crowded
// cells send it to the sweep; the two extent scans dominate.
func BenchmarkNewDeployment(b *testing.B) {
	type set struct {
		name string
		pts  []Point
	}
	var sets []set
	for _, n := range []int{1024, 4096, 16384, 65536} {
		d, err := UniformDisk(1, n)
		if err != nil {
			b.Fatal(err)
		}
		sets = append(sets, set{fmt.Sprintf("n=%d", n), d.Points})
	}
	d, err := Clusters(1, 4096, 4, 2, 20*64)
	if err != nil {
		b.Fatal(err)
	}
	sets = append(sets, set{"clusters/n=4096", d.Points})
	for _, s := range sets {
		b.Run(s.name, func(b *testing.B) {
			for b.Loop() {
				if _, err := NewDeployment(s.pts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
