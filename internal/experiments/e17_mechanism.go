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

// e17 — mechanism ablation: which ingredient of the paper's algorithm buys
// the speed-up — the constant broadcast probability, or the knock-out rule?
// Grafting the knock-out rule onto the classical Θ(log² n) sweep (which uses
// a completely different probability schedule) answers it: on the fading
// channel, knock-outs exploit spatial reuse regardless of the schedule.
func e17() Experiment {
	return Experiment{
		ID:    "E17",
		Title: "Mechanism ablation: the knock-out rule grafted onto the sweep",
		Claim: "The knock-out rule is the enabling mechanism: knockout(sweep) on the fading channel collapses toward the paper's Θ(log n) behaviour, while the plain sweep stays Θ(log² n).",
		Run: func(cfg Config) ([]*table.Table, error) {
			ns := []int{16, 64, 256, 1024}
			if cfg.Quick {
				ns = []int{16, 64}
			}
			trials := cfg.trials(30, 8)

			algos := []struct {
				label   string
				builder sim.Builder
			}{
				{"probability-sweep (plain)", baselines.ProbabilitySweep{}},
				{"knockout(probability-sweep)", core.WithKnockout{Inner: baselines.ProbabilitySweep{}}},
				{"fixed-probability (paper)", core.FixedProbability{}},
			}

			result := table.New("E17 — median rounds on the SINR channel",
				append([]string{"algorithm"}, nCols(ns)...)...)
			for _, a := range algos {
				row := []string{a.label}
				for _, n := range ns {
					rounds, unsolved, err := trialRounds(cfg, trials,
						func(seed uint64) (*geom.Deployment, error) { return geom.UniformDisk(seed, n) },
						func(d *geom.Deployment) (sim.Channel, error) { return sinr.ChannelFor(DefaultParams(), d) },
						a.builder, sim.Config{MaxRounds: 40 * e1Budget(n)})
					if err != nil {
						return nil, fmt.Errorf("E17 %s n=%d: %w", a.label, n, err)
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
