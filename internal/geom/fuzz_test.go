package geom

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"
)

// Native Go fuzz targets for the numeric kernels. `go test` runs the seed
// corpus as regular tests; `go test -fuzz FuzzLinkClassOf ./internal/geom`
// explores further.

func FuzzLinkClassOf(f *testing.F) {
	for _, seed := range []float64{0, 0.5, 1, 1.999, 2, 3.9999999999999996, 1e6, 1e300} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, d float64) {
		if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
			t.Skip()
		}
		c := LinkClassOf(d)
		if c < 0 {
			t.Fatalf("LinkClassOf(%v) = %d < 0", d, c)
		}
		// Consistency: the class's nominal interval contains d up to the
		// documented round-off tolerance.
		lo := math.Pow(2, float64(c))
		hi := math.Pow(2, float64(c+1))
		if d > 0 && (d < lo*(1-1e-12) || d >= hi*(1+1e-12)) && d >= 1 {
			t.Fatalf("LinkClassOf(%v) = %d but [2^%d, 2^%d) = [%v, %v)", d, c, c, c+1, lo, hi)
		}
	})
}

func FuzzGoodBound(f *testing.F) {
	f.Add(3.0, 0)
	f.Add(2.1, 5)
	f.Add(6.0, 20)
	f.Fuzz(func(t *testing.T, alpha float64, tt int) {
		if math.IsNaN(alpha) || alpha <= 2 || alpha > 64 || tt < 0 || tt > 64 {
			t.Skip()
		}
		b := GoodBound(alpha, tt)
		if b < 96 {
			t.Fatalf("GoodBound(%v, %d) = %v < 96", alpha, tt, b)
		}
		if tt > 0 && GoodBound(alpha, tt) <= GoodBound(alpha, tt-1) {
			t.Fatalf("GoodBound not increasing in t at (%v, %d)", alpha, tt)
		}
	})
}

func FuzzSubsetIndices(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, mRaw uint8) {
		n := 2 + int(nRaw%40)
		m := int(mRaw) % (n + 2) // deliberately allows invalid m > n
		idx, err := RandomSubset(seed, n, m)
		if m > n {
			if err == nil {
				t.Fatalf("RandomSubset(%d, %d) accepted m > n", n, m)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(idx) != m {
			t.Fatalf("len = %d, want %d", len(idx), m)
		}
	})
}

// extentCase decodes a fuzzer-built point set: data holds little-endian
// float64 (x, y) pairs, at most 256 points. Unless mode selects raw values
// (bit 3), non-finite coordinates become 0 and the set is rescaled so its
// largest coordinate magnitude is spread = 10^(exp mod 13 − 3), from 1e-3
// to 1e9. Mode bits 0–1 pick the shape — as decoded, every x equal, or all
// points on the line y = 0.75·x + spread/10 — and bit 2 appends a copy of
// the first point, a coincident pair.
func extentCase(data []byte, mode uint8, exp int8) []Point {
	var pts []Point
	for len(data) >= 16 && len(pts) < 256 {
		x := math.Float64frombits(binary.LittleEndian.Uint64(data))
		y := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
		pts = append(pts, Point{x, y})
		data = data[16:]
	}
	if len(pts) == 0 {
		return nil
	}
	if mode&8 == 0 {
		spread := math.Pow(10, float64((int(exp)%13+13)%13-3))
		finite := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return v
		}
		top := 0.0
		for i, p := range pts {
			pts[i] = Point{finite(p.X), finite(p.Y)}
			top = math.Max(top, math.Max(math.Abs(pts[i].X), math.Abs(pts[i].Y)))
		}
		if top > 0 {
			for i := range pts {
				pts[i] = Point{pts[i].X / top * spread, pts[i].Y / top * spread}
			}
		}
		switch mode & 3 {
		case 1:
			for i := range pts {
				pts[i].X = pts[0].X
			}
		case 2:
			for i := range pts {
				pts[i].Y = 0.75*pts[i].X + spread/10
			}
		}
	}
	if mode&4 != 0 {
		pts = append(pts, pts[0])
	}
	return pts
}

// encodePoints is extentCase's input encoding of pts.
func encodePoints(pts []Point) []byte {
	out := make([]byte, 0, 16*len(pts))
	for _, p := range pts {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.X))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.Y))
	}
	return out
}

// extentSeed is one FuzzDeploymentExtent seed-corpus entry and the path
// its decoded points' shortest link takes: the grid (gridClosestPair) or,
// when grid is false, the sweep (closestPairDist).
type extentSeed struct {
	data []byte
	mode uint8
	exp  int8
	grid bool
}

// extentSeeds returns FuzzDeploymentExtent's seed corpus: each generator's
// points raw, rescaled with a shape mode, and with a coincident pair
// appended; and point sets of at least 64 points that reach each path,
// among them thin strips whose grid compares no pair closer than a cell,
// and one whose closest pair the grid alone would miss.
func extentSeeds(tb testing.TB) []extentSeed {
	gens := []struct {
		gen   func() (*Deployment, error)
		paths string // one letter per entry below: g grid, s sweep
	}{
		{func() (*Deployment, error) { return UniformDisk(3, 200) }, "ggg"},
		{func() (*Deployment, error) { return UniformSquare(4, 200) }, "gss"},
		{func() (*Deployment, error) { return PerturbedGrid(5, 200, 0.25) }, "ggg"},
		{func() (*Deployment, error) { return PerturbedGrid(5, 200, 0) }, "ssg"},
		{func() (*Deployment, error) { return Clusters(6, 200, 5, 3, 400) }, "sss"},
		{func() (*Deployment, error) { return ExponentialChain(7, 12, 3) }, "ggg"},
		{func() (*Deployment, error) { return TwoNode(), nil }, "sss"},
		{func() (*Deployment, error) { return CoLocatedPairs(200, 100) }, "gss"},
		{func() (*Deployment, error) { return UniformDisk(8, 64) }, "ggg"},
		{func() (*Deployment, error) { return UniformDisk(8, 63) }, "ssg"},
	}
	var seeds []extentSeed
	for i, g := range gens {
		d, err := g.gen()
		if err != nil {
			tb.Fatal(err)
		}
		data := encodePoints(d.Points)
		for j, e := range []struct {
			mode uint8
			exp  int8
		}{{8, 0}, {uint8(i % 3), int8(i)}, {uint8(4 | i%3), int8(12 - i)}} {
			seeds = append(seeds, extentSeed{data, e.mode, e.exp, g.paths[j] == 'g'})
		}
	}
	d, err := UniformDisk(9, 200)
	if err != nil {
		tb.Fatal(err)
	}
	withNaN := slices.Clone(d.Points)
	withNaN[17].Y = math.NaN()
	// 100 points 10⁶ long and 1 wide: about a thousand cells per point.
	long := make([]Point, 100)
	for i := range long {
		long[i] = Point{1e4 * float64(i*37%100), float64(i*59%100) / 99}
	}
	return append(seeds,
		extentSeed{encodePoints(thinStrip(tb, false)), 8, 0, false},
		extentSeed{encodePoints(thinStrip(tb, true)), 8, 0, false},
		extentSeed{encodePoints(withNaN), 8, 0, false},
		extentSeed{encodePoints(long), 8, 0, false},
		// The point farthest from the bounding-box centre (16.85, 6.5) is
		// (10.5, 13), but the longest link is (23.2, 8.6)–(10.6, 0), and
		// its first point is the one nearest the centre.
		extentSeed{encodePoints([]Point{{23.2, 8.6}, {10.5, 13}, {10.6, 0}}), 8, 0, false},
	)
}

// thinStrip returns 96 points on a strip 190 long and 0.5 wide, 2 apart in
// x, which closestPairGrid cuts into one row of cells about 0.99 wide:
// neighbours lie two or three columns apart, so the grid's scan compares
// no pair, and alone would miss the closest one. With pairs set, two
// points move: points 20 and 21 come 1.1 apart across two column
// boundaries, the closest pair, and points 60 and 61 1.5 apart in adjacent
// columns, the closest pair the scan compares.
func thinStrip(tb testing.TB, pairs bool) []Point {
	const n = 96
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{2 * float64(i), 0.5 * float64(i*37%n) / (n - 1)}
	}
	if pairs {
		g, ok := closestPairGrid(pts)
		if !ok {
			tb.Fatal("the thin strip takes no grid")
		}
		_, _, cell := g.Shape()
		// x = 40.94·cell lies near column 40's end; 1.1 on is column 42.
		pts[20].X = 40.94 * cell
		pts[21] = Point{pts[20].X + 1.1, pts[20].Y}
		// x = 120.2·cell lies early in column 120; 1.5 on is column 121.
		pts[60].X = 120.2 * cell
		pts[61] = Point{pts[60].X + 1.5, pts[60].Y}
	}
	return pts
}

// TestExtentSeedPaths: each FuzzDeploymentExtent seed takes the path
// extentSeeds records, and on each thin strip the closest pair lies two or
// more columns apart in the grid, which compares no pair below a cell, so
// only the accept bound sends it to the sweep.
func TestExtentSeedPaths(t *testing.T) {
	for i, s := range extentSeeds(t) {
		pts := extentCase(s.data, s.mode, s.exp)
		if _, ok := gridClosestPair(pts, make([]Point, len(pts))); ok != s.grid {
			t.Errorf("seed %d (%d points, mode %d, exp %d): grid %v, want %v", i, len(pts), s.mode, s.exp, ok, s.grid)
		}
	}
	for _, pairs := range []bool{false, true} {
		pts := thinStrip(t, pairs)
		g, ok := closestPairGrid(pts)
		if !ok {
			t.Fatalf("thin strip (pairs %v): no grid", pairs)
		}
		_, i, j := MinPairwiseDist(pts)
		ci, ri := g.CellAt(pts[i])
		cj, rj := g.CellAt(pts[j])
		if max(cj-ci, ci-cj, rj-ri, ri-rj) < 2 {
			t.Errorf("thin strip (pairs %v): closest pair %d, %d in cells (%d, %d) and (%d, %d), which the grid compares", pairs, i, j, ci, ri, cj, rj)
		}
		c60, _ := g.CellAt(pts[60])
		if c61, _ := g.CellAt(pts[61]); pairs != (c61-c60 == 1) {
			t.Errorf("thin strip (pairs %v): points 60 and 61 in columns %d and %d", pairs, c60, c61)
		}
	}
}

// FuzzDeploymentExtent: the sub-quadratic extremes NewDeployment uses equal
// the O(n²) scans MinPairwiseDist and MaxPairwiseDist bit for bit — the
// grid's shortest link wherever it accepts, and the sweep's everywhere —
// and NewDeployment normalises exactly as those scans would have it: the
// same points and the same R, or the same coincident-points error.
func FuzzDeploymentExtent(f *testing.F) {
	for _, s := range extentSeeds(f) {
		f.Add(s.data, s.mode, s.exp)
	}
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, exp int8) {
		pts := extentCase(data, mode, exp)
		if len(pts) < 2 {
			t.Skip()
		}
		refMin, _, _ := MinPairwiseDist(pts)
		refMax, _, _ := MaxPairwiseDist(pts)
		if got, ok := gridClosestPair(pts, make([]Point, len(pts))); ok && math.Float64bits(got) != math.Float64bits(refMin) {
			t.Fatalf("gridClosestPair = %v, MinPairwiseDist = %v", got, refMin)
		}
		if got := closestPairDist(slices.Clone(pts)); math.Float64bits(got) != math.Float64bits(refMin) {
			t.Fatalf("closestPairDist = %v, MinPairwiseDist = %v", got, refMin)
		}
		if got := farthestPairDist(pts); math.Float64bits(got) != math.Float64bits(refMax) {
			t.Fatalf("farthestPairDist = %v, MaxPairwiseDist = %v", got, refMax)
		}
		d, err := NewDeployment(pts)
		if refMin == 0 {
			if err == nil || !strings.Contains(err.Error(), "coincident points") {
				t.Fatalf("NewDeployment on coincident points: error %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("NewDeployment: %v", err)
		}
		scaled := make([]Point, len(pts))
		for i, p := range pts {
			scaled[i] = p.Scale(1 / refMin)
		}
		wantR, _, _ := MaxPairwiseDist(scaled)
		if wantR < 1 {
			wantR = 1
		}
		if math.Float64bits(d.R) != math.Float64bits(wantR) {
			t.Fatalf("R = %v, quadratic scans give %v", d.R, wantR)
		}
		for i := range scaled {
			if math.Float64bits(d.Points[i].X) != math.Float64bits(scaled[i].X) ||
				math.Float64bits(d.Points[i].Y) != math.Float64bits(scaled[i].Y) {
				t.Fatalf("point %d = %v, quadratic scans give %v", i, d.Points[i], scaled[i])
			}
		}
	})
}
