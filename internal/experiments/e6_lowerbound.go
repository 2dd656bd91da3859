package experiments

import (
	"fmt"
	"math"
	"sort"

	"fadingcr/internal/baselines"
	"fadingcr/internal/core"
	"fadingcr/internal/hitting"
	"fadingcr/internal/sim"
	"fadingcr/internal/stats"
	"fadingcr/internal/table"
	"fadingcr/internal/xrand"
)

// whpQuantile returns the empirical (1 − 1/k)-quantile of a sample of
// winning rounds: the round budget needed to win with the high probability
// the lower bound speaks about.
func whpQuantile(rounds []int, k int) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = float64(r)
	}
	sort.Float64s(xs)
	return stats.Quantile(xs, 1-1/float64(k))
}

// e6 — Figure 5: the restricted k-hitting game needs Ω(log k) rounds.
func e6() Experiment {
	return Experiment{
		ID:    "E6",
		Title: "Restricted k-hitting game horizons (Lemma 13)",
		Claim: "Any player winning the restricted k-hitting game with probability ≥ 1−1/k needs Ω(log k) rounds; the optimal constant-density player needs ≈ log₂ k.",
		Run: func(cfg Config) ([]*table.Table, error) {
			ks := []int{4, 16, 64, 256, 1024}
			if cfg.Quick {
				ks = []int{4, 16, 64}
			}
			baseTrials := cfg.trials(600, 120)

			players := []struct {
				label string
				make  func(k int, seed uint64) (hitting.Player, error)
			}{
				{"half-density (optimal)", func(k int, seed uint64) (hitting.Player, error) {
					return hitting.NewFixedDensityPlayer(k, 0.5, seed)
				}},
				{"fixed-probability CR (Lemma 14 reduction)", func(k int, seed uint64) (hitting.Player, error) {
					return hitting.NewSimulationPlayer(core.FixedProbability{}, k, seed)
				}},
				{"probability-sweep CR (Lemma 14 reduction)", func(k int, seed uint64) (hitting.Player, error) {
					return hitting.NewSimulationPlayer(baselines.ProbabilitySweep{}, k, seed)
				}},
			}

			result := table.New("E6 — (1−1/k)-quantile of winning round in the restricted k-hitting game",
				append([]string{"player"}, kCols(ks)...)...)
			var fitRows [][2]string
			for _, pl := range players {
				row := []string{pl.label}
				var horizons []float64
				for _, k := range ks {
					// Estimating the (1 − 1/k)-quantile needs a sample that
					// resolves tail mass 1/k; use at least 4k trials.
					trials := baseTrials
					if !cfg.Quick && trials < 4*k {
						trials = 4 * k
					}
					rounds, err := runTrials(cfg, trials, func(trial int) (int, error) {
						ref, err := hitting.NewReferee(k, xrand.Split(cfg.Seed, uint64(trial)))
						if err != nil {
							return 0, err
						}
						p, err := pl.make(k, xrand.Split(cfg.Seed, uint64(trial)+7777))
						if err != nil {
							return 0, err
						}
						r, won, err := hitting.Play(ref, p, 1000000)
						if err != nil {
							return 0, err
						}
						if !won {
							return 0, fmt.Errorf("E6 %s k=%d trial %d never won", pl.label, k, trial)
						}
						return r, nil
					})
					if err != nil {
						return nil, err
					}
					h := whpQuantile(rounds, k)
					horizons = append(horizons, h)
					row = append(row, table.Float(h, 1))
				}
				result.AddRow(row...)
				// Fit horizon vs log₂ k.
				logs := make([]float64, len(ks))
				for i, k := range ks {
					logs[i] = math.Log2(float64(k))
				}
				fit, err := stats.LinearFit(logs, horizons)
				if err != nil {
					return nil, err
				}
				fitRows = append(fitRows, [2]string{pl.label, fit.String()})
			}

			fits := table.New("E6 — linear fits of the horizon vs log₂(k)", "player", "fit")
			for _, r := range fitRows {
				fits.AddRow(r[0], r[1])
			}
			return []*table.Table{result, fits}, nil
		},
	}
}

func kCols(ks []int) []string {
	cols := make([]string, len(ks))
	for i, k := range ks {
		cols[i] = fmt.Sprintf("k=%d", k)
	}
	return cols
}

// e7 — Table 2: "with high probability in n" verified directly.
func e7() Experiment {
	return Experiment{
		ID:    "E7",
		Title: "Failure rate under a C·log₂(n) round budget (w.h.p. claim)",
		Claim: "With a modest constant C, the algorithm solves within C·log₂(n) rounds except with probability ≤ 1/n.",
		Run: func(cfg Config) ([]*table.Table, error) {
			ns := []int{16, 64, 256}
			if !cfg.Quick {
				ns = append(ns, 1024)
			}
			cs := []int{4, 8, 16}
			trials := cfg.trials(300, 40)

			result := table.New("E7 — failures / trials under budget C·log₂(n) (fixed-probability on SINR)",
				append([]string{"n", "1/n"}, cCols(cs)...)...)
			for _, n := range ns {
				logN := int(math.Ceil(math.Log2(float64(n))))
				// A run under a smaller budget is a prefix of the run under
				// the largest, so each trial runs once, at C = 16: it fails
				// budget C·⌈log₂ n⌉ iff it is unsolved or solves after it.
				// A trial that fails any budget fails C = 4's, so failure-only
				// capture keeps the trials not solved by C = 4's budget.
				outcomes, err := sinrTrialOutcomes(cfg, trials, n, core.FixedProbability{}, cs[len(cs)-1]*logN, cs[0]*logN)
				if err != nil {
					return nil, fmt.Errorf("E7 n=%d: %w", n, err)
				}
				row := []string{table.Int(n), table.Sci(1/float64(n), 1)}
				for _, c := range cs {
					failed := 0
					for _, o := range outcomes {
						if !o.Solved || o.Rounds > float64(c*logN) {
							failed++
						}
					}
					row = append(row, fmt.Sprintf("%d/%d", failed, trials))
				}
				result.AddRow(row...)
			}
			return []*table.Table{result}, nil
		},
	}
}

func cCols(cs []int) []string {
	cols := make([]string, len(cs))
	for i, c := range cs {
		cols[i] = fmt.Sprintf("C=%d", c)
	}
	return cols
}

// e11 — Table 4: two-player contention resolution needs Ω(log k) rounds for
// success probability 1 − 1/k (Lemma 14), for any algorithm.
func e11() Experiment {
	return Experiment{
		ID:    "E11",
		Title: "Two-player symmetry-breaking horizons (Lemma 14)",
		Claim: "Any algorithm solving two-player contention resolution with probability 1 − 1/k needs Ω(log k) rounds; in the two-node game fading gives no advantage.",
		Run: func(cfg Config) ([]*table.Table, error) {
			ks := []int{4, 16, 64, 256, 1024}
			if cfg.Quick {
				ks = []int{4, 16, 64}
			}
			trials := cfg.trials(800, 150)
			// One trial pool serves every k; it must resolve the largest
			// quantile's tail mass 1/max(k).
			if !cfg.Quick && trials < 4*ks[len(ks)-1] {
				trials = 4 * ks[len(ks)-1]
			}

			algos := []struct {
				label   string
				builder sim.Builder
			}{
				{"fixed-probability (paper)", core.FixedProbability{}},
				{"probability-sweep", baselines.ProbabilitySweep{}},
				{"decay(N=2)", baselines.Decay{N: 2}},
			}

			result := table.New("E11 — (1−1/k)-quantile of symmetry-breaking round (two players)",
				append([]string{"algorithm"}, kCols(ks)...)...)
			for _, a := range algos {
				// One pool of trials serves every k: the quantile moves.
				rounds, err := runTrials(cfg, trials, func(trial int) (int, error) {
					res, err := hitting.PlayTwoPlayer(a.builder, xrand.Split(cfg.Seed, uint64(trial)), 1000000)
					if err != nil {
						return 0, err
					}
					if !res.Won {
						return 0, fmt.Errorf("E11 %s trial %d never won", a.label, trial)
					}
					return res.Rounds, nil
				})
				if err != nil {
					return nil, err
				}
				row := []string{a.label}
				for _, k := range ks {
					row = append(row, table.Float(whpQuantile(rounds, k), 1))
				}
				result.AddRow(row...)
			}
			return []*table.Table{result}, nil
		},
	}
}
