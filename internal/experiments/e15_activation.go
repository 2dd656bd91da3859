package experiments

import (
	"fmt"
	"sort"

	"fadingcr/internal/core"
	"fadingcr/internal/geom"
	"fadingcr/internal/hitting"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
	"fadingcr/internal/stats"
	"fadingcr/internal/table"
	"fadingcr/internal/xrand"
)

// e15 — partial activation, the model's actual problem statement ("an
// unknown subset of nodes in V are activated"), plus the Theorem 12
// embedding: activating exactly two far-apart nodes of a large network is
// the two-player game — fading gives no advantage there, which is what lets
// the lower bound transfer to general networks.
func e15() Experiment {
	return Experiment{
		ID:    "E15",
		Title: "Partial activation: rounds depend on the activated subset, and m=2 embeds the two-player game",
		Claim: "Rounds scale with the activated count m (O(log m + log R)), not the network size n; with m = 2 the execution is distribution-identical to two-player contention resolution (the Theorem 12 embedding).",
		Run: func(cfg Config) ([]*table.Table, error) {
			const n = 1024
			ms := []int{2, 8, 64, 512, 1024}
			if cfg.Quick {
				ms = []int{2, 16, 128}
			}
			trials := cfg.trials(30, 8)

			scale := table.New(fmt.Sprintf("E15a — rounds vs activated count m (network n=%d, uniform disk)", n),
				"m activated", "mean", "median", "p95", "unsolved")
			for _, m := range ms {
				rounds, unsolved, err := trialRounds(cfg, trials,
					func(seed uint64) (*geom.Deployment, error) {
						d, err := geom.UniformDisk(seed, n)
						if err != nil {
							return nil, err
						}
						idx, err := geom.RandomSubset(xrand.Split(seed, 1), n, m)
						if err != nil {
							return nil, err
						}
						return d.Subset(idx)
					},
					func(d *geom.Deployment) (sim.Channel, error) { return sinr.ChannelFor(DefaultParams(), d) },
					core.FixedProbability{},
					sim.Config{MaxRounds: 4 * e1Budget(n)},
				)
				if err != nil {
					return nil, fmt.Errorf("E15 m=%d: %w", m, err)
				}
				s, err := stats.Summarize(rounds)
				if err != nil {
					return nil, err
				}
				scale.AddRow(table.Int(m), table.Float(s.Mean, 1), table.Float(s.Median, 1),
					table.Float(stats.QuantileOf(rounds, 0.95), 1), table.Int(unsolved))
			}

			embed, err := e15Embedding(cfg)
			if err != nil {
				return nil, err
			}
			return []*table.Table{scale, embed}, nil
		},
	}
}

// e15Embedding compares the solve-round distribution of (a) activating
// exactly two nodes of a large fading network and (b) the abstract
// two-player game on the collision channel. With two participants the SINR
// channel cannot deliver anything before the solo broadcast (both transmit ⇒
// both are deaf; one transmits ⇒ solved), so the distributions must agree —
// the observation at the heart of the Theorem 12 reduction.
func e15Embedding(cfg Config) (*table.Table, error) {
	trials := cfg.trials(400, 60)
	// One trial produces a paired observation: the same protocol seed run
	// as (a) two activated nodes on the fading network and (b) the
	// abstract two-player game.
	type paired struct {
		Embedded float64 `json:"embedded"`
		Abstract float64 `json:"abstract"`
	}
	outcomes, err := runTrials(cfg, trials, func(trial int) (paired, error) {
		dseed := xrand.Split(cfg.Seed, uint64(trial)*3)
		d, err := geom.UniformDisk(dseed, 256)
		if err != nil {
			return paired{}, err
		}
		idx, err := geom.RandomSubset(xrand.Split(cfg.Seed, uint64(trial)*3+1), 256, 2)
		if err != nil {
			return paired{}, err
		}
		pair, err := d.Subset(idx)
		if err != nil {
			return paired{}, err
		}
		ch, err := sinr.ChannelFor(DefaultParams(), pair)
		if err != nil {
			return paired{}, err
		}
		pseed := xrand.Split(cfg.Seed, uint64(trial)*3+2)
		res, err := sim.Run(ch, core.FixedProbability{}, pseed, sim.Config{MaxRounds: 100000})
		if err != nil {
			return paired{}, err
		}
		if !res.Solved {
			return paired{}, fmt.Errorf("E15 embedding trial %d unsolved", trial)
		}
		two, err := hitting.PlayTwoPlayer(core.FixedProbability{}, pseed, 100000)
		if err != nil {
			return paired{}, err
		}
		if !two.Won {
			return paired{}, fmt.Errorf("E15 two-player trial %d unsolved", trial)
		}
		return paired{Embedded: float64(res.Rounds), Abstract: float64(two.Rounds)}, nil
	})
	if err != nil {
		return nil, err
	}
	var embedded, abstract []float64
	for _, o := range outcomes {
		embedded = append(embedded, o.Embedded)
		abstract = append(abstract, o.Abstract)
	}
	sort.Float64s(embedded)
	sort.Float64s(abstract)
	result := table.New("E15b — the m=2 embedding vs the abstract two-player game (same protocol seeds)",
		"execution", "mean", "median", "p95", "max")
	for _, row := range []struct {
		label string
		xs    []float64
	}{
		{"2 activated nodes in a 256-node fading network", embedded},
		{"abstract two-player game (collision channel)", abstract},
	} {
		s, err := stats.Summarize(row.xs)
		if err != nil {
			return nil, err
		}
		result.AddRow(row.label, table.Float(s.Mean, 2), table.Float(s.Median, 1),
			table.Float(stats.Quantile(row.xs, 0.95), 1), table.Float(s.Max, 0))
	}
	d, err := stats.KolmogorovSmirnov(embedded, abstract)
	if err != nil {
		return nil, err
	}
	result.AddRow("Kolmogorov–Smirnov D (0 = identical)", table.Float(d, 4))
	return result, nil
}
