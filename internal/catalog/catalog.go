// Package catalog is the shared registry of named deployments, algorithms,
// and channels that user-facing front ends resolve textual specs against.
// cmd/crsim's flags and internal/serve's JSON job specs both go through
// this one construction path, so the two can never drift: a name either
// builds the same object everywhere or is rejected everywhere.
//
// Everything here is seed-deterministic: construction consumes no
// randomness beyond the explicit seeds, so a (name, seed, n) triple names
// one reproducible object.
package catalog

import (
	"fmt"
	"math"
	"sort"

	"fadingcr/internal/baselines"
	"fadingcr/internal/core"
	"fadingcr/internal/geom"
	"fadingcr/internal/radio"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
)

// Deployments returns the deployment names Deployment accepts, sorted.
func Deployments() []string {
	return sortedNames("chain", "clusters", "disk", "grid", "pairs", "square")
}

// Algorithms returns the algorithm names Builder accepts, sorted.
func Algorithms() []string {
	return sortedNames("backoff", "cdhalving", "decay", "dampened", "estimate",
		"fixed", "interleaved", "knockout-sweep", "staggered", "sweep")
}

// Channels returns the channel names Channel accepts, sorted.
func Channels() []string {
	return sortedNames("radio", "radio-cd", "rayleigh", "sinr")
}

func sortedNames(names ...string) []string {
	sort.Strings(names)
	return names
}

// Deployment builds the named node deployment with n nodes from seed.
// Shapes with structural constraints round n up as needed (pairs needs an
// even count), exactly as crsim always has.
func Deployment(kind string, seed uint64, n int) (*geom.Deployment, error) {
	switch kind {
	case "disk":
		return geom.UniformDisk(seed, n)
	case "square":
		return geom.UniformSquare(seed, n)
	case "grid":
		return geom.PerturbedGrid(seed, n, 0.25)
	case "clusters":
		k := int(math.Max(1, math.Sqrt(float64(n))/2))
		return geom.Clusters(seed, n, k, 2, 20*math.Sqrt(float64(n)))
	case "chain":
		classes := int(math.Max(1, math.Round(math.Log2(float64(n)))))
		pairs := n / (2 * classes)
		if pairs < 1 {
			pairs = 1
		}
		return geom.ExponentialChain(seed, classes, pairs)
	case "pairs":
		if n%2 != 0 {
			n++
		}
		return geom.CoLocatedPairs(n, 100)
	default:
		return nil, fmt.Errorf("unknown deployment %q (have %v)", kind, Deployments())
	}
}

// Builder builds the named algorithm. p is the broadcast probability of the
// fixed-probability algorithms (core.DefaultP when 0); n sizes the
// population-aware baselines.
func Builder(algo string, p float64, n int) (sim.Builder, error) {
	if p == 0 {
		p = core.DefaultP
	}
	switch algo {
	case "fixed":
		return core.FixedProbability{P: p}, nil
	case "sweep":
		return baselines.ProbabilitySweep{}, nil
	case "decay":
		return baselines.Decay{N: n}, nil
	case "backoff":
		return baselines.BinaryExponentialBackoff{}, nil
	case "dampened":
		if n < 4 {
			n = 4
		}
		return baselines.DampenedSweep{N: n}, nil
	case "cdhalving":
		return baselines.CollisionDetectHalving{}, nil
	case "estimate":
		return baselines.CDBinaryEstimate{}, nil
	case "interleaved":
		return core.Interleaved{A: core.FixedProbability{}, B: baselines.ProbabilitySweep{}}, nil
	case "knockout-sweep":
		return core.WithKnockout{Inner: baselines.ProbabilitySweep{}}, nil
	case "staggered":
		return core.StaggeredStart{Inner: core.FixedProbability{P: p}, MaxDelay: 32}, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q (have %v)", algo, Algorithms())
	}
}

// BuiltChannel is a constructed channel plus the execution settings its
// kind implies.
type BuiltChannel struct {
	// Channel is the constructed channel.
	Channel sim.Channel
	// CollisionDetection reports whether sim.Config.CollisionDetection
	// must be enabled (the radio-cd channel).
	CollisionDetection bool
}

// Channel builds the named channel over the deployment. fadeSeed seeds the
// Rayleigh fade stream and is ignored by the other kinds.
func Channel(kind string, params sinr.Params, d *geom.Deployment, fadeSeed uint64) (BuiltChannel, error) {
	switch kind {
	case "sinr":
		sc, err := sinr.New(params, d.Points)
		if err != nil {
			return BuiltChannel{}, err
		}
		return BuiltChannel{Channel: sc}, nil
	case "rayleigh":
		rc, err := sinr.NewRayleigh(params, d.Points, fadeSeed)
		if err != nil {
			return BuiltChannel{}, err
		}
		return BuiltChannel{Channel: rc}, nil
	case "radio":
		ch, err := radio.New(d.N(), false)
		if err != nil {
			return BuiltChannel{}, err
		}
		return BuiltChannel{Channel: ch}, nil
	case "radio-cd":
		ch, err := radio.New(d.N(), true)
		if err != nil {
			return BuiltChannel{}, err
		}
		return BuiltChannel{Channel: ch, CollisionDetection: true}, nil
	default:
		return BuiltChannel{}, fmt.Errorf("unknown channel %q (have %v)", kind, Channels())
	}
}

// DefaultMaxRounds is the shared auto round budget for a single run over n
// nodes: generous enough for every registered algorithm at the scales the
// CLIs and the service accept.
func DefaultMaxRounds(n int) int {
	return 2000 + 200*int(math.Ceil(math.Log2(float64(n)+1)))
}
