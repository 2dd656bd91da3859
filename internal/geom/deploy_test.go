package geom

import (
	"fmt"
	"math"
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
// the scaling experiments reach; the two extent scans dominate.
func BenchmarkNewDeployment(b *testing.B) {
	for _, n := range []int{4096, 16384, 65536} {
		d, err := UniformDisk(1, n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for b.Loop() {
				if _, err := NewDeployment(d.Points); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
