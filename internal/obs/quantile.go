package obs

import (
	"math"
	"strconv"
)

// bucketBounds parses the rendered bucket bounds of a histogram snapshot
// back into numbers: bound[i] is bucket i's exclusive upper bound, +Inf for
// the overflow bucket. It is the inverse of formatBound.
func bucketBounds(buckets []Bucket) ([]float64, bool) {
	bounds := make([]float64, len(buckets))
	for i, b := range buckets {
		if b.Lt == "+Inf" {
			bounds[i] = math.Inf(1)
			continue
		}
		v, err := strconv.ParseFloat(b.Lt, 64)
		if err != nil {
			return nil, false
		}
		bounds[i] = v
	}
	return bounds, true
}

// bucketQuantile estimates the q-quantile (0 < q ≤ 1) of a bucketed
// distribution by linear interpolation within the bucket holding rank
// q·count — the same estimator Prometheus' histogram_quantile uses, chosen
// because it is a pure deterministic function of the bucket counts:
//
//   - an empty histogram estimates 0;
//   - the first bucket interpolates over [0, bound₀);
//   - interior buckets interpolate over [boundᵢ₋₁, boundᵢ);
//   - the overflow bucket has no upper bound, so the estimate clamps to its
//     lower bound (the largest finite boundary).
//
// Estimates are bounded by bucket resolution (power-of-two buckets ⇒ at most
// 2× off), which is the trade the O(1) allocation-free Observe buys.
func bucketQuantile(buckets []Bucket, bounds []float64, count int64, q float64) float64 {
	if count <= 0 || len(buckets) == 0 {
		return 0
	}
	rank := q * float64(count)
	cum := 0.0
	for i, b := range buckets {
		c := float64(b.Count)
		if cum+c < rank || c == 0 {
			cum += c
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if math.IsInf(hi, 1) {
			return lo
		}
		return lo + (hi-lo)*(rank-cum)/c
	}
	// rank exceeded every cumulative count (q == 1 with float round-off):
	// clamp to the last occupied bucket's upper finite bound.
	for i := len(buckets) - 1; i >= 0; i-- {
		if buckets[i].Count > 0 {
			if math.IsInf(bounds[i], 1) {
				if i > 0 {
					return bounds[i-1]
				}
				return 0
			}
			return bounds[i]
		}
	}
	return 0
}

// fillQuantiles computes the exported p50/p95/p99 estimates of a histogram
// snapshot in place.
func fillQuantiles(m *MetricSnapshot) {
	bounds, ok := bucketBounds(m.Buckets)
	if !ok {
		return
	}
	m.P50 = bucketQuantile(m.Buckets, bounds, m.Count, 0.50)
	m.P95 = bucketQuantile(m.Buckets, bounds, m.Count, 0.95)
	m.P99 = bucketQuantile(m.Buckets, bounds, m.Count, 0.99)
}
