package core

import (
	"fadingcr/internal/geom"
	"fadingcr/internal/sim"
)

// Snapshot records the analysis-relevant state of one executed round. The
// active set is captured *before* the round's knock-outs take effect (the
// engine invokes tracers between delivery and the nodes' Hear calls).
type Snapshot struct {
	// Round is the 1-based round index.
	Round int
	// Active is the number of active nodes entering the round.
	Active int
	// Transmitters is the number of nodes that transmitted.
	Transmitters int
	// Knockouts is the number of active listeners that received a message
	// this round (and therefore deactivate).
	Knockouts int
	// ClassSizes[i] is n_i, the size of link class d_i entering the round.
	ClassSizes []int
	// GoodPerClass[i] counts the good nodes (Definition 1) in class d_i;
	// nil unless the Analyzer has Goodness enabled.
	GoodPerClass []int
}

// Analyzer is a sim.Tracer that reconstructs the paper's analysis quantities
// round by round: link class sizes, knock-outs, and optionally good-node
// counts. It requires the protocol's population to report activity, so
// that the nodes it is handed implement Activeness (as the core
// algorithm's do).
type Analyzer struct {
	// Points are the node positions of the deployment under execution.
	Points []geom.Point
	// Alpha is the path-loss exponent used by the goodness test.
	Alpha float64
	// R is the deployment's link-length ratio, bounding annulus indices.
	R float64
	// Goodness enables the (quadratic-cost) good-node census per round.
	Goodness bool

	// Snapshots accumulates one entry per executed round.
	Snapshots []Snapshot
}

var _ sim.Tracer = (*Analyzer)(nil)

// OnRound implements sim.Tracer.
func (a *Analyzer) OnRound(round int, nodes []sim.Node, tx []bool, recv []int) {
	n := len(nodes)
	active := make([]bool, n)
	activeCount := 0
	for i, node := range nodes {
		if act, ok := node.(Activeness); ok && act.Active() {
			active[i] = true
			activeCount++
		}
	}
	snap := Snapshot{Round: round, Active: activeCount}
	for i := range tx {
		if tx[i] {
			snap.Transmitters++
		}
		if recv[i] >= 0 && active[i] {
			snap.Knockouts++
		}
	}
	lc := geom.ComputeLinkClasses(a.Points, active)
	snap.ClassSizes = append([]int(nil), lc.Sizes...)
	if a.Goodness {
		snap.GoodPerClass = make([]int, len(lc.Sizes))
		for u := range nodes {
			c := lc.Class[u]
			if c < 0 {
				continue
			}
			maxT := geom.MaxAnnulusIndex(a.R, c)
			if geom.IsGood(a.Points, active, u, c, a.Alpha, maxT) {
				snap.GoodPerClass[c]++
			}
		}
	}
	a.Snapshots = append(a.Snapshots, snap)
}

// MaxClassSizes returns, for each round r (0-based into Snapshots), the
// maximum observed size of class i at or after r — the "permanent bound"
// view of Section 3.3: class sizes may fluctuate upward through migrations,
// so the meaningful comparison against q_t is suprema over suffixes.
func (a *Analyzer) MaxClassSizes() [][]int {
	if len(a.Snapshots) == 0 {
		return nil
	}
	m := 0
	for _, s := range a.Snapshots {
		if len(s.ClassSizes) > m {
			m = len(s.ClassSizes)
		}
	}
	out := make([][]int, len(a.Snapshots))
	suffix := make([]int, m)
	for r := len(a.Snapshots) - 1; r >= 0; r-- {
		for i := 0; i < m; i++ {
			v := 0
			if i < len(a.Snapshots[r].ClassSizes) {
				v = a.Snapshots[r].ClassSizes[i]
			}
			if v > suffix[i] {
				suffix[i] = v
			}
		}
		out[r] = append([]int(nil), suffix...)
	}
	return out
}
