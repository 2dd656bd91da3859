// Command crverify re-derives the reproduction's headline claims from
// scratch and prints PASS/FAIL per claim, exiting non-zero if any fails.
// It is the one-command answer to "does this reproduction actually hold on
// my machine?" — small sweeps (about a minute), fixed seeds, explicit
// evidence values for every verdict.
//
// Usage:
//
//	crverify            # run every check
//	crverify -seed 9    # different randomness, same claims
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"fadingcr/internal/baselines"
	"fadingcr/internal/cli"
	"fadingcr/internal/core"
	"fadingcr/internal/geom"
	"fadingcr/internal/hitting"
	"fadingcr/internal/obs"
	"fadingcr/internal/radio"
	"fadingcr/internal/runner"
	"fadingcr/internal/schedule"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
	"fadingcr/internal/stats"
	"fadingcr/internal/xrand"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) (code int) {
	fs := flag.NewFlagSet("crverify", flag.ContinueOnError)
	seed := fs.Uint64("seed", 7, "master seed")
	trials := fs.Int("trials", 15, "trials per estimated quantity")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines (results are identical at any value)")
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		if cli.IsHelp(err) {
			// -h/-help is a successful request for usage, not a parse error.
			return 0
		}
		return 2
	}
	finish, err := obsFlags.Start("crverify")
	if err != nil {
		// A profile file that cannot be created is a runtime failure, not
		// misuse: exit 1, like the other CLIs (2 is reserved for misuse).
		fmt.Fprintln(os.Stderr, "crverify:", err)
		return 1
	}
	defer func() {
		if ferr := finish(); ferr != nil {
			fmt.Fprintln(os.Stderr, "crverify:", ferr)
			if code == 0 {
				code = 1
			}
		}
	}()

	start := time.Now() //crlint:allow nowallclock CLI elapsed-time summary
	v := &verifier{seed: *seed, trials: *trials, parallel: *parallel}
	checks := []struct {
		id    string
		claim string
		check func(*verifier) (bool, string)
	}{
		{"V1", "Theorem 1: bounded per-doubling growth on the fading channel", checkScaling},
		{"V2", "Separation: the paper's algorithm beats the radio sweep at n=256", checkSeparation},
		{"V3", "Spatial reuse: the same algorithm stalls on the collision channel", checkSpatialReuse},
		{"V4", "Claim 1: interference at good nodes within the c_max bound", checkClaim1},
		{"V5", "Lemma 13: hitting-game horizon grows with log k", checkHitting},
		{"V6", "Lemma 14/Theorem 12: the m=2 embedding equals the two-player game", checkEmbedding},
		{"V7", "W.h.p.: zero failures at budget 8·log₂(n) for n=256", checkWhp},
		{"V8", "Mechanism: the knock-out rule accelerates even the sweep", checkMechanism},
		{"V9", "Spectrum reuse at the source: one-shot SINR capacity is a constant fraction of n", checkCapacity},
		{"V10", "Energy: the knock-out cascade needs less than one transmission per node", checkEnergy},
	}

	failures := 0
	for _, c := range checks {
		ok, evidence := c.check(v)
		status := "PASS"
		if !ok {
			status = "FAIL"
			failures++
		}
		fmt.Printf("%-4s %s  %s\n     evidence: %s\n", c.id, status, c.claim, evidence)
	}
	elapsed := time.Since(start).Round(time.Millisecond) //crlint:allow nowallclock CLI elapsed-time summary
	if failures > 0 {
		fmt.Printf("\n%d/%d checks failed in %v (parallelism %d)\n",
			failures, len(checks), elapsed, v.effectiveParallelism())
		return 1
	}
	fmt.Printf("\nall %d checks passed in %v (parallelism %d)\n",
		len(checks), elapsed, v.effectiveParallelism())
	return 0
}

// verifier carries the run's settings. Its checks spread trials over
// parallel goroutines; a SINR round over more than 2048 listeners also
// offers its listener tiles to whichever tile helpers are idle.
type verifier struct {
	seed     uint64
	trials   int
	parallel int
}

func (v *verifier) effectiveParallelism() int {
	if v.parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return v.parallel
}

// verifyOutcome is one execution's contribution to an estimated quantity.
type verifyOutcome struct {
	value  float64
	solved bool
}

// sample runs fn for every trial on the Monte Carlo engine and returns the
// values in trial order plus the unsolved count. Any error (including a
// recovered trial panic) aborts verification hard, like the sequential
// loops this replaced.
func (v *verifier) sample(trials int, fn func(trial int) (verifyOutcome, error)) ([]float64, int) {
	res, err := runner.Run(context.Background(), trials,
		func(_ context.Context, trial int) (verifyOutcome, error) { return fn(trial) },
		runner.Options[verifyOutcome]{Parallelism: v.parallel})
	if err != nil {
		panic(err)
	}
	if err := res.FirstErr(); err != nil {
		panic(err)
	}
	values := make([]float64, 0, trials)
	unsolved := 0
	for _, o := range res.Values {
		if !o.solved {
			unsolved++
		}
		values = append(values, o.value)
	}
	return values, unsolved
}

// medianRounds runs the builder on fresh uniform-disk SINR instances.
func (v *verifier) medianRounds(n int, b sim.Builder, budget int) (float64, int) {
	rounds, unsolved := v.sample(v.trials, func(trial int) (verifyOutcome, error) {
		d, err := geom.UniformDisk(xrand.Split(v.seed, uint64(trial)), n)
		if err != nil {
			return verifyOutcome{}, err
		}
		ch, err := sinr.ChannelFor(sinr.DefaultParams(), d)
		if err != nil {
			return verifyOutcome{}, err
		}
		res, err := sim.Run(ch, b, xrand.Split(v.seed, uint64(trial)+1<<20), sim.Config{MaxRounds: budget})
		if err != nil {
			return verifyOutcome{}, err
		}
		return verifyOutcome{value: float64(res.Rounds), solved: res.Solved}, nil
	})
	return stats.Median(rounds), unsolved
}

// medianRadio runs the builder on the collision channel.
func (v *verifier) medianRadio(n int, b sim.Builder, budget int, cd bool) (float64, int) {
	rounds, unsolved := v.sample(v.trials, func(trial int) (verifyOutcome, error) {
		ch, err := radio.New(n, cd)
		if err != nil {
			return verifyOutcome{}, err
		}
		res, err := sim.Run(ch, b, xrand.Split(v.seed, uint64(trial)+2<<20),
			sim.Config{MaxRounds: budget, CollisionDetection: cd})
		if err != nil {
			return verifyOutcome{}, err
		}
		return verifyOutcome{value: float64(res.Rounds), solved: res.Solved}, nil
	})
	return stats.Median(rounds), unsolved
}

func checkScaling(v *verifier) (bool, string) {
	m64, u1 := v.medianRounds(64, core.FixedProbability{}, 2000)
	m256, u2 := v.medianRounds(256, core.FixedProbability{}, 2000)
	m1024, u3 := v.medianRounds(1024, core.FixedProbability{}, 2000)
	d1, d2 := m256-m64, m1024-m256
	// Two doublings each; increments must stay bounded (≤ 6 rounds per
	// doubling-pair) and not explode between steps.
	ok := u1+u2+u3 == 0 && d1 <= 12 && d2 <= 12
	return ok, fmt.Sprintf("medians 64→256→1024: %.0f → %.0f → %.0f (Δ %.0f, %.0f), unsolved %d",
		m64, m256, m1024, d1, d2, u1+u2+u3)
}

func checkSeparation(v *verifier) (bool, string) {
	fading, u1 := v.medianRounds(256, core.FixedProbability{}, 2000)
	sweep, u2 := v.medianRadio(256, baselines.ProbabilitySweep{}, 20000, false)
	ok := u1+u2 == 0 && fading*2 <= sweep
	return ok, fmt.Sprintf("fading median %.0f vs radio sweep %.0f at n=256", fading, sweep)
}

func checkSpatialReuse(v *verifier) (bool, string) {
	sinrMed, u1 := v.medianRounds(64, core.FixedProbability{}, 2000)
	_, unsolved := v.medianRadio(64, core.FixedProbability{}, 20000, false)
	// On the collision channel at n=64 the solo probability is ~1e-5 per
	// round: most 20k-round trials must fail.
	ok := u1 == 0 && unsolved > v.trials/2
	return ok, fmt.Sprintf("SINR median %.0f rounds; collision channel %d/%d unsolved in 20000 rounds",
		sinrMed, unsolved, v.trials)
}

func checkClaim1(v *verifier) (bool, string) {
	d, err := geom.UniformDisk(v.seed, 300)
	if err != nil {
		panic(err)
	}
	const alpha, power = 3.0, 1.0
	active := make([]bool, d.N())
	for i := range active {
		active[i] = true
	}
	lc := geom.ComputeLinkClasses(d.Points, active)
	bound := core.CMax(alpha) + 1
	worstRatio := 0.0
	goodCount := 0
	for u := range d.Points {
		i := lc.Class[u]
		if i < 0 || !geom.IsGood(d.Points, active, u, i, alpha, geom.MaxAnnulusIndex(d.R, i)) {
			continue
		}
		goodCount++
		total := 0.0
		for w := range d.Points {
			if w != u {
				total += power * math.Pow(d.Points[u].Dist2(d.Points[w]), -alpha/2)
			}
		}
		limit := bound * power * math.Pow(2, -float64(i)*alpha)
		if r := total / limit; r > worstRatio {
			worstRatio = r
		}
	}
	ok := goodCount > 0 && worstRatio <= 1
	return ok, fmt.Sprintf("%d good nodes; worst interference/bound ratio %.3f (must be ≤ 1)", goodCount, worstRatio)
}

func checkHitting(v *verifier) (bool, string) {
	horizon := func(k int) float64 {
		rounds, _ := v.sample(4*k, func(trial int) (verifyOutcome, error) {
			ref, err := hitting.NewReferee(k, xrand.Split(v.seed, uint64(trial)))
			if err != nil {
				return verifyOutcome{}, err
			}
			p, err := hitting.NewFixedDensityPlayer(k, 0.5, xrand.Split(v.seed, uint64(trial)+3<<20))
			if err != nil {
				return verifyOutcome{}, err
			}
			r, won, err := hitting.Play(ref, p, 100000)
			if err != nil || !won {
				return verifyOutcome{}, fmt.Errorf("hitting trial failed: won=%v err=%v", won, err)
			}
			return verifyOutcome{value: float64(r), solved: true}, nil
		})
		sort.Float64s(rounds)
		return stats.Quantile(rounds, 1-1/float64(k))
	}
	h16, h256 := horizon(16), horizon(256)
	// log₂ 16 = 4, log₂ 256 = 8: the horizon should roughly double, and
	// never shrink or explode.
	ok := h256 > h16 && h256 < 4*h16
	return ok, fmt.Sprintf("(1−1/k) horizons: k=16 → %.1f, k=256 → %.1f (log₂ k: 4 → 8)", h16, h256)
}

func checkEmbedding(v *verifier) (bool, string) {
	const trials = 200
	// One engine pass yields the embedded rounds; the paired abstract
	// game shares the trial's protocol seed, so run both in the trial.
	type paired struct{ embedded, abstract float64 }
	res, err := runner.Run(context.Background(), trials, func(_ context.Context, trial int) (paired, error) {
		dseed := xrand.Split(v.seed, uint64(trial)*3)
		d, err := geom.UniformDisk(dseed, 128)
		if err != nil {
			return paired{}, err
		}
		idx, err := geom.RandomSubset(xrand.Split(v.seed, uint64(trial)*3+1), 128, 2)
		if err != nil {
			return paired{}, err
		}
		pair, err := d.Subset(idx)
		if err != nil {
			return paired{}, err
		}
		ch, err := sinr.ChannelFor(sinr.DefaultParams(), pair)
		if err != nil {
			return paired{}, err
		}
		pseed := xrand.Split(v.seed, uint64(trial)*3+2)
		r, err := sim.Run(ch, core.FixedProbability{}, pseed, sim.Config{MaxRounds: 100000})
		if err != nil || !r.Solved {
			return paired{}, fmt.Errorf("embedding trial %d failed", trial)
		}
		two, err := hitting.PlayTwoPlayer(core.FixedProbability{}, pseed, 100000)
		if err != nil || !two.Won {
			return paired{}, fmt.Errorf("two-player trial %d failed", trial)
		}
		return paired{embedded: float64(r.Rounds), abstract: float64(two.Rounds)}, nil
	}, runner.Options[paired]{Parallelism: v.parallel})
	if err != nil {
		panic(err)
	}
	if err := res.FirstErr(); err != nil {
		panic(err)
	}
	var embedded, abstract []float64
	for _, o := range res.Values {
		embedded = append(embedded, o.embedded)
		abstract = append(abstract, o.abstract)
	}
	d, err := stats.KolmogorovSmirnov(embedded, abstract)
	if err != nil {
		panic(err)
	}
	return d == 0, fmt.Sprintf("Kolmogorov–Smirnov D = %.4f over %d paired trials (0 = identical)", d, trials)
}

func checkWhp(v *verifier) (bool, string) {
	const n = 256
	budget := 8 * int(math.Ceil(math.Log2(n)))
	trials := 100
	_, unsolved := v.sample(trials, func(trial int) (verifyOutcome, error) {
		d, err := geom.UniformDisk(xrand.Split(v.seed, uint64(trial)+4<<20), n)
		if err != nil {
			return verifyOutcome{}, err
		}
		ch, err := sinr.ChannelFor(sinr.DefaultParams(), d)
		if err != nil {
			return verifyOutcome{}, err
		}
		res, err := sim.Run(ch, core.FixedProbability{}, xrand.Split(v.seed, uint64(trial)+5<<20),
			sim.Config{MaxRounds: budget})
		if err != nil {
			return verifyOutcome{}, err
		}
		return verifyOutcome{value: float64(res.Rounds), solved: res.Solved}, nil
	})
	return unsolved == 0, fmt.Sprintf("%d/%d failures within %d rounds at n=%d", unsolved, trials, budget, n)
}

func checkCapacity(v *verifier) (bool, string) {
	frac := func(n int) float64 {
		d, err := geom.UniformDisk(v.seed, n)
		if err != nil {
			panic(err)
		}
		params := sinr.DefaultParams()
		params.Power = sinr.MinSingleHopPower(params.Alpha, params.Beta, params.Noise, d.R, sinr.DefaultSingleHopMargin)
		chosen, err := schedule.Greedy(params, d.Points, schedule.NearestNeighborLinks(d.Points))
		if err != nil {
			panic(err)
		}
		return float64(len(chosen)) / float64(n)
	}
	f64, f256 := frac(64), frac(256)
	ok := f64 > 0.1 && f256 > 0.1
	return ok, fmt.Sprintf("capacity/n: %.3f at n=64, %.3f at n=256 (collision channel: 1/n)", f64, f256)
}

func checkEnergy(v *verifier) (bool, string) {
	const n = 256
	perCap, _ := v.sample(v.trials, func(trial int) (verifyOutcome, error) {
		d, err := geom.UniformDisk(xrand.Split(v.seed, uint64(trial)+6<<20), n)
		if err != nil {
			return verifyOutcome{}, err
		}
		ch, err := sinr.ChannelFor(sinr.DefaultParams(), d)
		if err != nil {
			return verifyOutcome{}, err
		}
		res, err := sim.Run(ch, core.FixedProbability{}, xrand.Split(v.seed, uint64(trial)+7<<20),
			sim.Config{MaxRounds: 2000})
		if err != nil || !res.Solved {
			return verifyOutcome{}, fmt.Errorf("energy trial %d failed", trial)
		}
		return verifyOutcome{value: float64(res.Transmissions) / float64(n), solved: true}, nil
	})
	med := stats.Median(perCap)
	return med < 1.5, fmt.Sprintf("median transmissions per node %.2f at n=%d (oblivious radio strategies: several)", med, n)
}

func checkMechanism(v *verifier) (bool, string) {
	plain, u1 := v.medianRounds(256, baselines.ProbabilitySweep{}, 100000)
	knocked, u2 := v.medianRounds(256, core.WithKnockout{Inner: baselines.ProbabilitySweep{}}, 100000)
	ok := u1+u2 == 0 && knocked < plain
	return ok, fmt.Sprintf("sweep median %.0f vs knockout(sweep) %.0f at n=256 on SINR", plain, knocked)
}
