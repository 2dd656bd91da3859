// Package geom provides the two-dimensional Euclidean substrate the paper's
// model lives in: points, distances, exponential annuli, deployments
// (placements of wireless nodes in the plane), link-length statistics, and
// link classes over the active nodes of an execution.
//
// Conventions follow Section 2 of the paper: deployments are normalised so
// the shortest link has length 1, R denotes the ratio of the longest to the
// shortest link, and link class d_i contains the active nodes whose nearest
// active neighbour lies at distance in [2^i, 2^{i+1}).
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the two-dimensional Euclidean plane.
type Point struct {
	X, Y float64
}

// Add returns the vector sum p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector difference p − q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root on hot paths such as nearest-neighbour scans.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Norm returns the Euclidean norm of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.4g, %.4g)", p.X, p.Y) }

// MinPairwiseDist returns the smallest distance between any two distinct
// points, and the indices achieving it. It returns +Inf and (-1, -1) when
// fewer than two points are given. The scan visits all O(n²) pairs; it is
// the reference NewDeployment's faster sweep is tested against.
func MinPairwiseDist(pts []Point) (d float64, i, j int) {
	d, i, j = math.Inf(1), -1, -1
	best := math.Inf(1)
	for a := range pts {
		for b := a + 1; b < len(pts); b++ {
			if d2 := pts[a].Dist2(pts[b]); d2 < best {
				best, i, j = d2, a, b
			}
		}
	}
	if i >= 0 {
		d = math.Sqrt(best)
	}
	return d, i, j
}

// MaxPairwiseDist returns the largest distance between any two distinct
// points, and the indices achieving it. It returns 0 and (-1, -1) when fewer
// than two points are given. Like MinPairwiseDist it is the O(n²)
// reference for NewDeployment's pruned scan.
func MaxPairwiseDist(pts []Point) (d float64, i, j int) {
	i, j = -1, -1
	best := -1.0
	for a := range pts {
		for b := a + 1; b < len(pts); b++ {
			if d2 := pts[a].Dist2(pts[b]); d2 > best {
				best, i, j = d2, a, b
			}
		}
	}
	if i < 0 {
		return 0, -1, -1
	}
	return math.Sqrt(best), i, j
}

// NearestNeighbor returns the index of the point in pts nearest to pts[i]
// (excluding i itself) and the distance to it. It returns (-1, +Inf) when
// pts has fewer than two points.
func NearestNeighbor(pts []Point, i int) (j int, d float64) {
	j, d = -1, math.Inf(1)
	best := math.Inf(1)
	for b := range pts {
		if b == i {
			continue
		}
		if d2 := pts[i].Dist2(pts[b]); d2 < best {
			best, j = d2, b
		}
	}
	if j >= 0 {
		d = math.Sqrt(best)
	}
	return j, d
}
