package geom

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"fadingcr/internal/xrand"
)

// A Deployment is a placement of n wireless nodes in the plane, normalised
// per Section 2 of the paper so that the shortest link (smallest pairwise
// distance) has length exactly 1. R is then the length of the longest link.
type Deployment struct {
	// Points holds the node positions after normalisation.
	Points []Point
	// R is the ratio of the longest link to the shortest (the shortest is 1
	// by normalisation). R is 1 when the deployment has fewer than two nodes
	// or all distances coincide.
	R float64
}

// N returns the number of nodes in the deployment.
func (d *Deployment) N() int { return len(d.Points) }

// LinkClassCount returns the number of possible link classes, 1 + floor(log2 R):
// class indices range over [0, log2 R]. It returns 0 for deployments with
// fewer than two nodes.
func (d *Deployment) LinkClassCount() int {
	if len(d.Points) < 2 {
		return 0
	}
	return int(math.Floor(math.Log2(d.R))) + 1
}

// errTooFewPoints is returned by generators asked for fewer than two nodes.
var errTooFewPoints = errors.New("geom: deployment needs at least 2 points")

// NewDeployment normalises the given raw positions into a Deployment: all
// coordinates are scaled so that the minimum pairwise distance becomes 1.
// It returns an error if fewer than two points are supplied or if two points
// coincide (R would be infinite). The extremes are found in sub-quadratic
// time on the generators' deployments yet equal MinPairwiseDist's and
// MaxPairwiseDist's bit for bit.
func NewDeployment(raw []Point) (*Deployment, error) {
	if len(raw) < 2 {
		return nil, errTooFewPoints
	}
	// The sweep sorts its input; the buffer then receives the scaled points.
	pts := slices.Clone(raw)
	minD := closestPairDist(pts)
	if minD == 0 {
		return nil, errors.New("geom: coincident points; cannot normalise shortest link to 1")
	}
	inv := 1 / minD
	for i, p := range raw {
		pts[i] = p.Scale(inv)
	}
	r := farthestPairDist(pts)
	if r < 1 {
		r = 1
	}
	return &Deployment{Points: pts, R: r}, nil
}

// closestPairDist returns the distance MinPairwiseDist returns, by a sweep
// over the points sorted by x; it sorts pts in place. Once the x gap dx
// from the sweep point reaches the best squared distance, no later point
// can beat it: Dist2 = dx² + dy² ≥ dx² holds in floating point too, and the
// computed gap only grows along the order. Every pair left is evaluated
// with the same Dist2, so the minimum is the same float. NaN coordinates
// sort first and never end a sweep.
func closestPairDist(pts []Point) float64 {
	slices.SortFunc(pts, func(a, b Point) int { return cmp.Compare(a.X, b.X) })
	best := math.Inf(1)
	for i, p := range pts {
		for _, q := range pts[i+1:] {
			if dx := q.X - p.X; dx*dx >= best {
				break
			}
			if d2 := p.Dist2(q); d2 < best {
				best = d2
			}
		}
	}
	return math.Sqrt(best)
}

// farthestPairDist returns the distance MaxPairwiseDist returns, pruning
// with the triangle inequality d(p, q) ≤ r_p + r_q, r the distance from the
// centre c of the bounding box. The point a farthest from c and the point
// farthest from a give a first pair. Only points p with r_p + r_max at
// least that pair's distance can beat it; they are visited by decreasing
// r, along which the bound only shrinks, so once it falls below the best
// squared distance no later pair can beat it. The pairs left are evaluated
// with the same Dist2, so the maximum is the same float. Non-finite
// coordinates make every r NaN or +Inf, which never prunes. Points on a
// common circle about c leave little to prune; the generators' deployments
// are not of that kind.
func farthestPairDist(pts []Point) float64 {
	lo, hi := pts[0], pts[0]
	for _, p := range pts[1:] {
		lo = Point{math.Min(lo.X, p.X), math.Min(lo.Y, p.Y)}
		hi = Point{math.Max(hi.X, p.X), math.Max(hi.Y, p.Y)}
	}
	c := lo.Add(hi).Scale(0.5)
	a, rMax := 0, math.Inf(-1)
	for i, p := range pts {
		if r := p.Sub(c).Norm(); r > rMax {
			a, rMax = i, r
		}
	}
	best := 0.0
	for _, p := range pts {
		if d2 := pts[a].Dist2(p); d2 > best {
			best = d2
		}
	}
	type ranked struct {
		r float64
		p Point
	}
	var cand []ranked
	for _, p := range pts {
		if r := p.Sub(c).Norm(); !(reach2(r+rMax) < best) {
			cand = append(cand, ranked{r, p})
		}
	}
	slices.SortFunc(cand, func(a, b ranked) int { return cmp.Compare(b.r, a.r) })
	for i, a := range cand {
		if reach2(a.r+a.r) < best {
			break
		}
		for _, b := range cand[i+1:] {
			if reach2(a.r+b.r) < best {
				break
			}
			if d2 := a.p.Dist2(b.p); d2 > best {
				best = d2
			}
		}
	}
	return math.Sqrt(best)
}

// reach2 bounds the Dist2 of a pair whose distances from the centre add up
// to s: s² padded by a relative 1e-9 and an absolute 1e-300, far beyond the
// rounding of Hypot, the sum, Dist2 and subnormal underflow (a few ulp, and
// a few multiples of the smallest subnormal).
func reach2(s float64) float64 {
	return s*s*(1+1e-9) + 1e-300
}

// UniformDisk places n nodes uniformly at random inside a disk whose radius
// scales as sqrt(n), giving constant expected density; with n nodes the
// resulting R is polynomial in n with high probability, the paper's "feasible
// deployment" regime. Coincident draws are retried.
func UniformDisk(seed uint64, n int) (*Deployment, error) {
	if n < 2 {
		return nil, errTooFewPoints
	}
	rng := xrand.New(seed)
	radius := math.Sqrt(float64(n))
	raw := make([]Point, n)
	for i := range raw {
		for {
			x := rng.Float64()*2 - 1
			y := rng.Float64()*2 - 1
			if x*x+y*y <= 1 {
				raw[i] = Point{x * radius, y * radius}
				break
			}
		}
	}
	return NewDeployment(raw)
}

// UniformSquare places n nodes uniformly at random in an axis-aligned square
// with side sqrt(n) (constant expected density).
func UniformSquare(seed uint64, n int) (*Deployment, error) {
	if n < 2 {
		return nil, errTooFewPoints
	}
	rng := xrand.New(seed)
	side := math.Sqrt(float64(n))
	raw := make([]Point, n)
	for i := range raw {
		raw[i] = Point{rng.Float64() * side, rng.Float64() * side}
	}
	return NewDeployment(raw)
}

// PerturbedGrid places n nodes on a near-square grid with unit spacing and
// per-node uniform jitter of magnitude jitter in each coordinate
// (0 ≤ jitter < 0.5 keeps nodes distinct). It is the lowest-variance
// "feasible" deployment: R = Θ(sqrt n) exactly.
func PerturbedGrid(seed uint64, n int, jitter float64) (*Deployment, error) {
	if n < 2 {
		return nil, errTooFewPoints
	}
	if jitter < 0 || jitter >= 0.5 {
		return nil, fmt.Errorf("geom: jitter %v outside [0, 0.5)", jitter)
	}
	rng := xrand.New(seed)
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	raw := make([]Point, 0, n)
	for i := 0; len(raw) < n; i++ {
		x := float64(i%cols) + (rng.Float64()*2-1)*jitter
		y := float64(i/cols) + (rng.Float64()*2-1)*jitter
		raw = append(raw, Point{x, y})
	}
	return NewDeployment(raw)
}

// Clusters places n nodes into k circular clusters of radius clusterRadius
// whose centres are spread over a region of side spread. It produces
// deployments with two natural scales (intra- and inter-cluster), populating
// both small and large link classes.
func Clusters(seed uint64, n, k int, clusterRadius, spread float64) (*Deployment, error) {
	if n < 2 {
		return nil, errTooFewPoints
	}
	if k < 1 {
		return nil, errors.New("geom: need at least one cluster")
	}
	if clusterRadius <= 0 || spread <= 0 {
		return nil, errors.New("geom: clusterRadius and spread must be positive")
	}
	rng := xrand.New(seed)
	centers := make([]Point, k)
	for i := range centers {
		centers[i] = Point{rng.Float64() * spread, rng.Float64() * spread}
	}
	raw := make([]Point, n)
	for i := range raw {
		c := centers[i%k]
		for {
			x := rng.Float64()*2 - 1
			y := rng.Float64()*2 - 1
			if x*x+y*y <= 1 {
				raw[i] = Point{c.X + x*clusterRadius, c.Y + y*clusterRadius}
				break
			}
		}
	}
	return NewDeployment(raw)
}

// ExponentialChain builds a deployment with exactly classes populated link
// classes: for each class i in [0, classes) it places pairsPerClass pairs of
// nodes at intra-pair separation 2^i, with consecutive pairs spaced far
// enough apart (4·2^classes) that every node's nearest neighbour is its pair
// partner. The deployment therefore realises every nearest-neighbour link
// class d_0 … d_{classes−1}, and log2(R) = Θ(classes). This is the workload
// that isolates the log R term of Theorem 1 (experiment E2).
func ExponentialChain(seed uint64, classes, pairsPerClass int) (*Deployment, error) {
	if classes < 1 || pairsPerClass < 1 {
		return nil, errors.New("geom: classes and pairsPerClass must be ≥ 1")
	}
	rng := xrand.New(seed)
	gap := 4 * math.Pow(2, float64(classes))
	raw := make([]Point, 0, 2*classes*pairsPerClass)
	x := 0.0
	for i := 0; i < classes; i++ {
		sep := math.Pow(2, float64(i))
		for p := 0; p < pairsPerClass; p++ {
			// Small jitter on the pair's baseline avoids exact collinearity
			// (which is harmless but makes degenerate tests less telling).
			y := rng.Float64() * 0.25
			raw = append(raw, Point{x, y}, Point{x, y + sep})
			x += gap
		}
	}
	return NewDeployment(raw)
}

// TwoNode returns the minimal deployment: two nodes at distance 1. It is the
// embedded instance used by the two-player lower-bound experiments.
func TwoNode() *Deployment {
	return &Deployment{Points: []Point{{0, 0}, {1, 0}}, R: 1}
}

// CoLocatedPairs is an adversarial deployment: n/2 pairs at the
// normalisation limit (intra-pair distance 1) arranged on a circle of radius
// ringRadius. All nodes live in link class d_0, maximising same-class
// contention. n must be even and ≥ 2.
func CoLocatedPairs(n int, ringRadius float64) (*Deployment, error) {
	if n < 2 || n%2 != 0 {
		return nil, errors.New("geom: CoLocatedPairs needs an even n ≥ 2")
	}
	if ringRadius <= 0 {
		return nil, errors.New("geom: ringRadius must be positive")
	}
	pairs := n / 2
	raw := make([]Point, 0, n)
	for i := 0; i < pairs; i++ {
		theta := 2 * math.Pi * float64(i) / float64(pairs)
		c := Point{ringRadius * math.Cos(theta), ringRadius * math.Sin(theta)}
		raw = append(raw, c, Point{c.X + 1, c.Y})
	}
	return NewDeployment(raw)
}
