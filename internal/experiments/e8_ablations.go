package experiments

import (
	"fmt"
	"math"

	"fadingcr/internal/baselines"
	"fadingcr/internal/core"
	"fadingcr/internal/geom"
	"fadingcr/internal/radio"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
	"fadingcr/internal/stats"
	"fadingcr/internal/table"
)

// e8 — Table 3: the radio-model baselines behave as published.
func e8() Experiment {
	return Experiment{
		ID:    "E8",
		Title: "Radio-model baselines vs their published bounds",
		Claim: "On the collision channel the w.h.p. horizons of sweep and decay grow like log² n (decay's *median* is Θ(log n)); collision-detection halving stays Θ(log n) even w.h.p.",
		Run: func(cfg Config) ([]*table.Table, error) {
			ns := []int{16, 32, 64, 128, 256, 512, 1024}
			if cfg.Quick {
				ns = []int{16, 64, 256}
			}
			trials := cfg.trials(40, 10)

			entries := []comparisonEntry{
				{"probability-sweep", func(int) sim.Builder { return baselines.ProbabilitySweep{} }, "radio",
					func(n int) int { l := ilog2(n) + 1; return 200 + 40*l*l }},
				{"decay(N=n)", func(n int) sim.Builder { return baselines.Decay{N: n} }, "radio",
					func(n int) int { l := ilog2(n) + 1; return 200 + 40*l*l }},
				{"cd-halving", func(int) sim.Builder { return baselines.CollisionDetectHalving{} }, "radio+cd", e1Budget},
				{"cd-binary-estimate", func(int) sim.Builder { return baselines.CDBinaryEstimate{} }, "radio+cd", e1Budget},
			}

			results := table.New("E8 — median rounds on the radio channel",
				append([]string{"algorithm"}, nCols(ns)...)...)
			fits := table.New("E8 — growth model per algorithm (fit on medians)",
				"algorithm", "log fit RMSE", "log² fit RMSE", "better model")
			for _, entry := range entries {
				row := []string{entry.label}
				var medians []float64
				for _, n := range ns {
					med, unsolved, err := comparisonMedian(cfg, trials, n, entry)
					if err != nil {
						return nil, fmt.Errorf("E8 %s n=%d: %w", entry.label, n, err)
					}
					cell := table.Float(med, 0)
					if unsolved > 0 {
						cell += fmt.Sprintf(" (%d unsolved)", unsolved)
					}
					row = append(row, cell)
					medians = append(medians, med)
				}
				results.AddRow(row...)
				growth, err := stats.CompareGrowth(ns, medians)
				if err != nil {
					return nil, err
				}
				better := "log² n"
				if growth.LogWins() {
					better = "log n"
				}
				fits.AddRow(entry.label, table.Float(growth.Log.RMSE, 2), table.Float(growth.Log2.RMSE, 2), better)
			}

			horizons, err := e8Horizons(cfg, entries)
			if err != nil {
				return nil, err
			}
			return []*table.Table{results, fits, horizons}, nil
		},
	}
}

// e8Horizons estimates the w.h.p. horizons: the (1 − 1/n)-quantile of the
// solving round, which is where the published Θ(log² n) bounds for sweep and
// decay live (decay's median is Θ(log n) — only its tail is quadratic). The
// quantile needs ≥ ~4n trials per point, so the sweep stops at n = 256.
func e8Horizons(cfg Config, entries []comparisonEntry) (*table.Table, error) {
	ns := []int{16, 64, 256}
	if cfg.Quick {
		ns = []int{16, 64}
	}
	horizons := table.New("E8 — w.h.p. horizon: (1−1/n)-quantile of the solving round",
		append([]string{"algorithm"}, nCols(ns)...)...)
	for _, entry := range entries {
		row := []string{entry.label}
		for _, n := range ns {
			trials := 4 * n
			if cfg.Quick {
				trials = 2 * n
			}
			builder := entry.builder(n)
			simCfg := sim.Config{
				MaxRounds:          4 * entry.budget(n),
				CollisionDetection: entry.channel == "radio+cd",
			}
			rounds, unsolved, err := trialRounds(cfg, trials,
				func(uint64) (*geom.Deployment, error) { return geom.TwoNode(), nil }, // positions unused on radio
				func(*geom.Deployment) (sim.Channel, error) { return radio.New(n, simCfg.CollisionDetection) },
				builder, simCfg)
			if err != nil {
				return nil, fmt.Errorf("E8 horizon %s n=%d: %w", entry.label, n, err)
			}
			if unsolved > 0 {
				row = append(row, fmt.Sprintf("≥%d (%d unsolved)", simCfg.MaxRounds, unsolved))
				continue
			}
			row = append(row, table.Float(stats.QuantileOf(rounds, 1-1/float64(n)), 0))
		}
		horizons.AddRow(row...)
	}
	return horizons, nil
}

func ilog2(n int) int { return int(math.Ceil(math.Log2(float64(n)))) }

// e9 — Figure 6: ablations A1 (broadcast probability) and A2 (path-loss
// exponent).
func e9() Experiment {
	return Experiment{
		ID:    "E9",
		Title: "Ablations: broadcast probability p and path-loss exponent α",
		Claim: "Any constant p works (flat optimum), and the log n behaviour holds for all α > 2, degrading as α → 2.",
		Run: func(cfg Config) ([]*table.Table, error) {
			n := 512
			if cfg.Quick {
				n = 128
			}
			trials := cfg.trials(30, 8)

			pTable := table.New(fmt.Sprintf("E9a — median rounds vs broadcast probability (n=%d, α=3)", n),
				"p", "mean", "median", "p95", "unsolved")
			for _, p := range []float64{1.0 / 32, 1.0 / 16, 1.0 / 8, 0.2, 0.3, 0.5} {
				rounds, unsolved, err := sinrTrialRounds(cfg, trials, n, core.FixedProbability{P: p}, 2000)
				if err != nil {
					return nil, fmt.Errorf("E9 p=%v: %w", p, err)
				}
				s, err := stats.Summarize(rounds)
				if err != nil {
					return nil, err
				}
				pTable.AddRow(table.Float(p, 4), table.Float(s.Mean, 1), table.Float(s.Median, 1),
					table.Float(stats.QuantileOf(rounds, 0.95), 1), table.Int(unsolved))
			}

			aTable := table.New(fmt.Sprintf("E9b — median rounds vs path-loss exponent α (n=%d, p=%.2g)", n, core.DefaultP),
				"α", "mean", "median", "p95", "unsolved")
			for _, alpha := range []float64{2.1, 2.5, 3, 4, 6} {
				params := DefaultParams()
				params.Alpha = alpha
				rounds, unsolved, err := trialRounds(cfg, trials,
					func(seed uint64) (*geom.Deployment, error) { return geom.UniformDisk(seed, n) },
					func(d *geom.Deployment) (sim.Channel, error) { return sinr.ChannelFor(params, d) },
					core.FixedProbability{},
					sim.Config{MaxRounds: 2000},
				)
				if err != nil {
					return nil, fmt.Errorf("E9 α=%v: %w", alpha, err)
				}
				s, err := stats.Summarize(rounds)
				if err != nil {
					return nil, err
				}
				aTable.AddRow(table.Float(alpha, 1), table.Float(s.Mean, 1), table.Float(s.Median, 1),
					table.Float(stats.QuantileOf(rounds, 0.95), 1), table.Int(unsolved))
			}
			return []*table.Table{pTable, aTable}, nil
		},
	}
}

// e10 — Figure 7: ablation A3 — the same algorithm with and without spatial
// reuse. On the collision channel the knock-out cascade never starts (a
// reception requires a solo broadcast, which already solves the problem), so
// the algorithm must wait for n simultaneous coin flips to produce a single
// transmitter: exponentially unlikely for fixed p. On the SINR channel,
// capture effects knock out nodes continuously.
func e10() Experiment {
	return Experiment{
		ID:    "E10",
		Title: "Spatial reuse on/off: same algorithm, SINR vs collision channel",
		Claim: "The fixed-probability algorithm's speed comes entirely from spatial reuse; without fading it stalls beyond small n.",
		Run: func(cfg Config) ([]*table.Table, error) {
			ns := []int{4, 8, 16, 32, 64}
			trials := cfg.trials(20, 6)
			budget := 200000
			if cfg.Quick {
				budget = 20000
			}

			result := table.New("E10 — median rounds for fixed-probability, by channel",
				append([]string{"channel"}, nCols(ns)...)...)
			rows := []struct {
				label   string
				channel string
			}{
				{"SINR (fading)", "sinr"},
				{"collision (radio)", "radio"},
			}
			for _, r := range rows {
				row := []string{r.label}
				for _, n := range ns {
					entry := comparisonEntry{
						label:   r.label,
						builder: func(int) sim.Builder { return core.FixedProbability{} },
						channel: r.channel,
						budget:  func(int) int { return budget },
					}
					med, unsolved, err := comparisonMedian(cfg, trials, n, entry)
					if err != nil {
						return nil, fmt.Errorf("E10 %s n=%d: %w", r.label, n, err)
					}
					cell := table.Float(med, 0)
					if unsolved > 0 {
						cell = fmt.Sprintf("≥%d (%d/%d unsolved)", budget, unsolved, trials)
					}
					row = append(row, cell)
				}
				result.AddRow(row...)
			}
			note := table.New("E10 — expected stall on the collision channel", "n", "P(solo per round) = n·p·(1−p)^{n−1}")
			for _, n := range ns {
				p := core.DefaultP
				prob := float64(n) * p * math.Pow(1-p, float64(n-1))
				note.AddRow(table.Int(n), table.Sci(prob, 2))
			}
			return []*table.Table{result, note}, nil
		},
	}
}
