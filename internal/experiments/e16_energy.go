package experiments

import (
	"fmt"
	"sort"

	"fadingcr/internal/baselines"
	"fadingcr/internal/core"
	"fadingcr/internal/geom"
	"fadingcr/internal/radio"
	"fadingcr/internal/runner"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
	"fadingcr/internal/table"
)

// e16 — energy accounting: total transmissions until the solving round.
// Rounds are the paper's complexity measure; for battery-powered radios the
// number of transmissions is the natural secondary cost. The knock-out
// cascade deactivates nodes geometrically, so the paper's algorithm spends
// Θ(p·n) transmissions total (a geometric series over the shrinking active
// set) — linear in n like every broadcast-based strategy, with a constant
// governed by p.
func e16() Experiment {
	return Experiment{
		ID:    "E16",
		Title: "Energy: total transmissions until the solving round",
		Claim: "The knock-out cascade keeps total transmissions Θ(n) (≈ p·n·Σγ^t); per-capita energy is O(1) transmissions, versus Θ(log n)-ish per capita for the oblivious radio strategies.",
		Run: func(cfg Config) ([]*table.Table, error) {
			ns := []int{16, 64, 256, 1024}
			if cfg.Quick {
				ns = []int{16, 64}
			}
			trials := cfg.trials(30, 8)

			type entry struct {
				label   string
				builder func(n int) sim.Builder
				channel string
			}
			entries := []entry{
				{"fixed-probability / SINR", func(int) sim.Builder { return core.FixedProbability{} }, "sinr"},
				{"probability-sweep / radio", func(int) sim.Builder { return baselines.ProbabilitySweep{} }, "radio"},
				{"decay(N=n) / radio", func(n int) sim.Builder { return baselines.Decay{N: n} }, "radio"},
				{"cd-halving / radio+CD", func(int) sim.Builder { return baselines.CollisionDetectHalving{} }, "radio+cd"},
			}

			total := table.New("E16a — median total transmissions to solve",
				append([]string{"algorithm / channel"}, nCols(ns)...)...)
			perCap := table.New("E16b — median transmissions per node (energy per capita)",
				append([]string{"algorithm / channel"}, nCols(ns)...)...)
			for _, en := range entries {
				rowTotal := []string{en.label}
				rowPer := []string{en.label}
				for _, n := range ns {
					med, err := e16Median(cfg, trials, n, en.builder(n), en.channel)
					if err != nil {
						return nil, fmt.Errorf("E16 %s n=%d: %w", en.label, n, err)
					}
					rowTotal = append(rowTotal, table.Float(med, 0))
					rowPer = append(rowPer, table.Float(med/float64(n), 2))
				}
				total.AddRow(rowTotal...)
				perCap.AddRow(rowPer...)
			}
			return []*table.Table{total, perCap}, nil
		},
	}
}

// e16Median returns the median Transmissions over trials for one cell.
func e16Median(cfg Config, trials, n int, builder sim.Builder, channel string) (float64, error) {
	energies, err := runTrials(cfg, trials, func(trial int) (float64, error) {
		dseed, pseed := runner.TrialSeeds(cfg.Seed, trial)
		var (
			ch  sim.Channel
			err error
		)
		simCfg := sim.Config{MaxRounds: 40 * e1Budget(n)}
		switch channel {
		case "sinr":
			var d *geom.Deployment
			d, err = geom.UniformDisk(dseed, n)
			if err == nil {
				ch, err = sinr.ChannelFor(DefaultParams(), d)
			}
		case "radio":
			ch, err = radio.New(n, false)
		case "radio+cd":
			simCfg.CollisionDetection = true
			ch, err = radio.New(n, true)
		default:
			return 0, fmt.Errorf("unknown channel %q", channel)
		}
		if err != nil {
			return 0, err
		}
		res, err := sim.Run(ch, builder, pseed, simCfg)
		if err != nil {
			return 0, err
		}
		if !res.Solved {
			return 0, fmt.Errorf("trial %d unsolved", trial)
		}
		return float64(res.Transmissions), nil
	})
	if err != nil {
		return 0, err
	}
	sort.Float64s(energies)
	return energies[len(energies)/2], nil
}
