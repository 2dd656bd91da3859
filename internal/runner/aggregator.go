package runner

import "math"

// Aggregator accumulates summary statistics of a stream of observations in
// O(1) memory: count, Welford mean/variance, min/max, and an unsolved
// counter for the harness's "did the protocol finish within budget"
// bookkeeping. The zero value is ready to use.
//
// Aggregator is not safe for concurrent use; observe from a single
// goroutine (the engine's collector, or a post-run loop over
// Result.Values in trial order, which keeps the floating-point fold
// deterministic and independent of parallelism).
type Aggregator struct {
	n        int
	mean     float64
	m2       float64
	min      float64
	max      float64
	unsolved int
}

// Observe adds one observation. solved=false additionally increments the
// unsolved counter.
func (a *Aggregator) Observe(x float64, solved bool) {
	if a.n == 0 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.n++
	// Welford's update: numerically stable single-pass mean/variance.
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
	if !solved {
		a.unsolved++
	}
}

// N returns the number of observations.
func (a *Aggregator) N() int { return a.n }

// Mean returns the sample mean (0 before any observation).
func (a *Aggregator) Mean() float64 { return a.mean }

// Variance returns the sample variance (n−1 denominator; 0 for n < 2).
func (a *Aggregator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Aggregator) Std() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest observation (0 before any observation).
func (a *Aggregator) Min() float64 { return a.min }

// Max returns the largest observation (0 before any observation).
func (a *Aggregator) Max() float64 { return a.max }

// Unsolved returns the number of observations recorded with solved=false.
func (a *Aggregator) Unsolved() int { return a.unsolved }
