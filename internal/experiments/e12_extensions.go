package experiments

import (
	"fmt"

	"fadingcr/internal/baselines"
	"fadingcr/internal/core"
	"fadingcr/internal/geom"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
	"fadingcr/internal/stats"
	"fadingcr/internal/table"
)

// e12 — extension: robustness to stochastic (Rayleigh) fading. The paper's
// model is deterministic geometric fading; real channels add multipath
// fading on top. The algorithm has no tuning that could overfit the
// deterministic model, so its behaviour should carry over.
func e12() Experiment {
	return Experiment{
		ID:    "E12",
		Title: "Extension: robustness under Rayleigh fading",
		Claim: "The algorithm's Θ(log n) behaviour survives per-round stochastic (Rayleigh) signal fading — it does not depend on the deterministic fading model.",
		Run: func(cfg Config) ([]*table.Table, error) {
			ns := []int{16, 64, 256, 1024}
			if cfg.Quick {
				ns = []int{16, 64}
			}
			trials := cfg.trials(30, 8)

			result := table.New("E12 — median rounds: deterministic SINR vs Rayleigh-faded SINR",
				append([]string{"channel"}, nCols(ns)...)...)
			channels := []struct {
				label string
				make  func(p sinr.Params, d *geom.Deployment, seed uint64) (sim.Channel, error)
			}{
				{"deterministic SINR", func(p sinr.Params, d *geom.Deployment, _ uint64) (sim.Channel, error) {
					return sinr.New(p, d.Points)
				}},
				{"Rayleigh-faded SINR", func(p sinr.Params, d *geom.Deployment, seed uint64) (sim.Channel, error) {
					return sinr.NewRayleigh(p, d.Points, seed)
				}},
			}
			for _, chn := range channels {
				row := []string{chn.label}
				for _, n := range ns {
					params := DefaultParams()
					rounds, unsolved, err := trialRounds(cfg, trials,
						func(seed uint64) (*geom.Deployment, error) { return geom.UniformDisk(seed, n) },
						func(d *geom.Deployment) (sim.Channel, error) {
							p := params
							p.Power = sinr.MinSingleHopPower(p.Alpha, p.Beta, p.Noise, d.R, sinr.DefaultSingleHopMargin)
							return chn.make(p, d, cfg.Seed+uint64(n))
						},
						core.FixedProbability{},
						sim.Config{MaxRounds: 4 * e1Budget(n)},
					)
					if err != nil {
						return nil, fmt.Errorf("E12 %s n=%d: %w", chn.label, n, err)
					}
					cell := table.Float(stats.Median(rounds), 0)
					if unsolved > 0 {
						cell += fmt.Sprintf(" (%d unsolved)", unsolved)
					}
					row = append(row, cell)
				}
				result.AddRow(row...)
			}
			return []*table.Table{result}, nil
		},
	}
}

// e13 — extension: the Section 3.1 remark made concrete. When R is unknown
// and possibly super-polynomial, the paper suggests interleaving the
// fixed-probability algorithm with an existing (R-insensitive) strategy: the
// combination inherits the better bound up to a factor 2.
func e13() Experiment {
	return Experiment{
		ID:    "E13",
		Title: "Extension: interleaving with a sweep for unknown R (Section 3.1)",
		Claim: "Interleaving fixed-probability with the probability sweep costs at most 2× the better of the two on every workload, so no knowledge of R is needed.",
		Run: func(cfg Config) ([]*table.Table, error) {
			trials := cfg.trials(30, 8)
			workloads := []struct {
				label  string
				deploy func(seed uint64) (*geom.Deployment, error)
			}{
				{"uniform disk n=256", func(seed uint64) (*geom.Deployment, error) {
					return geom.UniformDisk(seed, 256)
				}},
				{"chain 12 classes (large R)", func(seed uint64) (*geom.Deployment, error) {
					return geom.ExponentialChain(seed, 12, 3)
				}},
				{"co-located pairs n=128", func(seed uint64) (*geom.Deployment, error) {
					return geom.CoLocatedPairs(128, 500)
				}},
			}
			if cfg.Quick {
				workloads = workloads[:2]
			}
			algos := []struct {
				label   string
				builder sim.Builder
			}{
				{"fixed-probability", core.FixedProbability{}},
				{"probability-sweep", baselines.ProbabilitySweep{}},
				{"interleaved (fixed ⊕ sweep)", core.Interleaved{A: core.FixedProbability{}, B: baselines.ProbabilitySweep{}}},
			}

			cols := []string{"algorithm"}
			for _, w := range workloads {
				cols = append(cols, w.label)
			}
			result := table.New("E13 — median rounds per workload (sweep runs on the same SINR channel)", cols...)
			for _, a := range algos {
				row := []string{a.label}
				for _, w := range workloads {
					rounds, unsolved, err := trialRounds(cfg, trials, w.deploy,
						func(d *geom.Deployment) (sim.Channel, error) { return sinr.ChannelFor(DefaultParams(), d) },
						a.builder, sim.Config{MaxRounds: 20000})
					if err != nil {
						return nil, fmt.Errorf("E13 %s / %s: %w", a.label, w.label, err)
					}
					cell := table.Float(stats.Median(rounds), 0)
					if unsolved > 0 {
						cell += fmt.Sprintf(" (%d unsolved)", unsolved)
					}
					row = append(row, cell)
				}
				result.AddRow(row...)
			}
			return []*table.Table{result}, nil
		},
	}
}
