package experiments

import (
	"fmt"
	"math"

	"fadingcr/internal/core"
	"fadingcr/internal/geom"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
	"fadingcr/internal/table"
	"fadingcr/internal/xrand"
)

// e4 — Figure 3: the staggered geometric decay of link class sizes that the
// class-bound vectors q_t of Section 3.3 predict.
func e4() Experiment {
	return Experiment{
		ID:    "E4",
		Title: "Per-class decay vs the q_t envelope (Section 3.3)",
		Claim: "Link class sizes fall below the staggered geometric envelope q_t, smaller classes first; the whole schedule empties in Θ(log n + log R) rounds.",
		Run: func(cfg Config) ([]*table.Table, error) {
			const m, pairs = 6, 8 // 96 nodes across 6 populated classes
			trials := cfg.trials(10, 3)

			type classStat struct {
				initial    int
				halfRound  int // first round the suffix-max drops to ≤ half the initial size
				emptyRound int // first round the suffix-max reaches 0
			}
			sums := make([]classStat, m)
			counts := make([]int, m)
			var solveRounds []int
			worstSegment := 0

			// Each trial returns its solving round and per-round
			// suffix-max class sizes; the (order-sensitive) aggregation
			// below stays sequential in trial order.
			type traced struct {
				Rounds int     `json:"rounds"`
				Suffix [][]int `json:"suffix"`
			}
			outcomes, err := runTrials(cfg, trials, func(trial int) (traced, error) {
				d, err := geom.ExponentialChain(xrand.Split(cfg.Seed, uint64(trial)), m, pairs)
				if err != nil {
					return traced{}, err
				}
				ch, err := sinr.ChannelFor(DefaultParams(), d)
				if err != nil {
					return traced{}, err
				}
				an := &core.Analyzer{Points: d.Points, Alpha: DefaultParams().Alpha, R: d.R}
				res, err := sim.Run(ch, core.FixedProbability{}, xrand.Split(cfg.Seed, uint64(trial)+1000),
					sim.Config{MaxRounds: 4000, Tracer: an})
				if err != nil {
					return traced{}, err
				}
				if !res.Solved {
					return traced{}, fmt.Errorf("E4 trial %d unsolved", trial)
				}
				return traced{Rounds: res.Rounds, Suffix: an.MaxClassSizes()}, nil
			})
			if err != nil {
				return nil, err
			}
			for _, o := range outcomes {
				suffix := o.Suffix
				solveRounds = append(solveRounds, o.Rounds)
				for i := 0; i < m && i < len(suffix[0]); i++ {
					initial := suffix[0][i]
					if initial == 0 {
						continue
					}
					cs := classStat{initial: initial, halfRound: -1, emptyRound: -1}
					for r := range suffix {
						if cs.halfRound < 0 && suffix[r][i] <= initial/2 {
							cs.halfRound = r + 1
						}
						if suffix[r][i] == 0 {
							cs.emptyRound = r + 1
							break
						}
					}
					if cs.emptyRound < 0 {
						cs.emptyRound = o.Rounds // emptied by the solving round
					}
					if cs.halfRound < 0 {
						cs.halfRound = cs.emptyRound
					}
					sums[i].initial += cs.initial
					sums[i].halfRound += cs.halfRound
					sums[i].emptyRound += cs.emptyRound
					counts[i]++
				}
				if seg := fitEnvelopeSegment(suffix, o.Rounds); seg > worstSegment {
					worstSegment = seg
				}
			}

			decay := table.New("E4 — per-class decay (means over trials; exponential chain, 6 classes × 8 pairs)",
				"class", "initial size", "round ≤ half", "round empty")
			for i := 0; i < m; i++ {
				if counts[i] == 0 {
					continue
				}
				c := float64(counts[i])
				decay.AddRow(table.Int(i),
					table.Float(float64(sums[i].initial)/c, 1),
					table.Float(float64(sums[i].halfRound)/c, 1),
					table.Float(float64(sums[i].emptyRound)/c, 1))
			}

			env := table.New("E4 — q_t envelope fit", "quantity", "value")
			totalSolve := 0
			for _, r := range solveRounds {
				totalSolve += r
			}
			cb := core.DefaultClassBounds()
			env.AddRow("mean solve round", table.Float(float64(totalSolve)/float64(len(solveRounds)), 1))
			env.AddRow("envelope steps T (StepsToZero)", table.Int(cb.StepsToZero(2*m*pairs, m)))
			env.AddRow("min rounds/step so classes respect q_t", table.Int(worstSegment))
			return []*table.Table{decay, env}, nil
		},
	}
}

// fitEnvelopeSegment returns the smallest segment length L (rounds per
// envelope step) such that the observed suffix-max class sizes stay within
// the q_{⌊(r−1)/L⌋} envelope for every round r; Lemma 10 predicts a constant.
// Returns rounds+1 if even one step per round does not suffice at L = that
// bound (cannot happen in practice: at L ≥ rounds the envelope stays at q_0 ≈ n).
func fitEnvelopeSegment(suffix [][]int, rounds int) int {
	if len(suffix) == 0 {
		return 1
	}
	cb := core.DefaultClassBounds()
	m := len(suffix[0])
	n := 0
	for _, v := range suffix[0] {
		n += v
	}
	for l := 1; l <= rounds+1; l++ {
		ok := true
	scan:
		for r := range suffix {
			step := r / l
			q := cb.Vector(n, m, step)
			for i := 0; i < m; i++ {
				if float64(suffix[r][i]) > math.Max(q[i], 0) {
					ok = false
					break scan
				}
			}
		}
		if ok {
			return l
		}
	}
	return rounds + 1
}

// e5 — Figure 4: Lemma 6 — when a class dominates the smaller classes, at
// least half its nodes are good.
func e5() Experiment {
	return Experiment{
		ID:    "E5",
		Title: "Good-node fractions per link class (Lemma 6)",
		Claim: "If n_{<i} ≤ δ·n_i then at least half the nodes of class d_i are good (annulus capacities 96·2^{t·α/2}).",
		Run: func(cfg Config) ([]*table.Table, error) {
			n := 512
			if cfg.Quick {
				n = 128
			}
			trials := cfg.trials(10, 3)
			const delta = 1.0 // even weaker than the lemma's δ < 1: a strict test

			type agg struct {
				cells, holds int
				fracSum      float64
				minFrac      float64
			}
			perClass := map[int]*agg{}

			type cell struct {
				Class int     `json:"class"`
				Frac  float64 `json:"frac"`
			}
			outcomes, err := runTrials(cfg, trials, func(trial int) ([]cell, error) {
				d, err := geom.UniformDisk(xrand.Split(cfg.Seed, uint64(trial)), n)
				if err != nil {
					return nil, err
				}
				active := make([]bool, n)
				for i := range active {
					active[i] = true
				}
				lc := geom.ComputeLinkClasses(d.Points, active)
				alpha := DefaultParams().Alpha
				var cells []cell
				for i, size := range lc.Sizes {
					if size == 0 || float64(lc.SizeBelow(i)) > delta*float64(size) {
						continue
					}
					good := 0
					for u := range d.Points {
						if lc.Class[u] != i {
							continue
						}
						if geom.IsGood(d.Points, active, u, i, alpha, geom.MaxAnnulusIndex(d.R, i)) {
							good++
						}
					}
					cells = append(cells, cell{Class: i, Frac: float64(good) / float64(size)})
				}
				return cells, nil
			})
			if err != nil {
				return nil, err
			}
			for _, cells := range outcomes {
				for _, c := range cells {
					a := perClass[c.Class]
					if a == nil {
						a = &agg{minFrac: 2}
						perClass[c.Class] = a
					}
					a.cells++
					a.fracSum += c.Frac
					if c.Frac < a.minFrac {
						a.minFrac = c.Frac
					}
					if c.Frac >= 0.5 {
						a.holds++
					}
				}
			}

			result := table.New(fmt.Sprintf("E5 — good-node fraction where n_<i ≤ δ·n_i (δ=%.1f, uniform disk n=%d, %d trials)", delta, n, trials),
				"class", "qualifying cells", "mean good frac", "min good frac", "≥½ holds")
			maxClass := -1
			for i := range perClass {
				if i > maxClass {
					maxClass = i
				}
			}
			for i := 0; i <= maxClass; i++ {
				a := perClass[i]
				if a == nil {
					continue
				}
				result.AddRow(table.Int(i), table.Int(a.cells),
					table.Float(a.fracSum/float64(a.cells), 3),
					table.Float(a.minFrac, 3),
					fmt.Sprintf("%d/%d", a.holds, a.cells))
			}
			return []*table.Table{result}, nil
		},
	}
}
