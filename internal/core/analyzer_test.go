package core

import (
	"testing"

	"fadingcr/internal/geom"
	"fadingcr/internal/sim"
)

func TestAnalyzerRecordsExecution(t *testing.T) {
	d, err := geom.UniformDisk(21, 40)
	if err != nil {
		t.Fatal(err)
	}
	an := &Analyzer{Points: d.Points, Alpha: 3, R: d.R}
	ch := sinrChannel(t, d)
	res, err := sim.Run(ch, FixedProbability{}, 77, sim.Config{MaxRounds: 4000, Tracer: an})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("run unsolved")
	}
	if len(an.Snapshots) != res.Rounds {
		t.Fatalf("snapshots = %d, want %d", len(an.Snapshots), res.Rounds)
	}
	first := an.Snapshots[0]
	if first.Active != 40 {
		t.Errorf("round 1 active = %d, want 40", first.Active)
	}
	total := 0
	for _, s := range first.ClassSizes {
		total += s
	}
	if total != 40 {
		t.Errorf("round 1 class sizes sum to %d, want 40", total)
	}
	// Active counts never increase, and the drop from round r to r+1 is
	// exactly the knock-outs of round r.
	for r := 1; r < len(an.Snapshots); r++ {
		prev, cur := an.Snapshots[r-1], an.Snapshots[r]
		if cur.Active > prev.Active {
			t.Fatalf("active grew: round %d %d → %d", r, prev.Active, cur.Active)
		}
		if got := prev.Active - cur.Active; got != prev.Knockouts {
			t.Errorf("round %d: active dropped by %d but knockouts = %d", r, got, prev.Knockouts)
		}
	}
	// The solving round has exactly one transmitter.
	last := an.Snapshots[len(an.Snapshots)-1]
	if last.Transmitters != 1 {
		t.Errorf("solving round transmitters = %d, want 1", last.Transmitters)
	}
}

func TestAnalyzerGoodness(t *testing.T) {
	d, err := geom.UniformDisk(5, 30)
	if err != nil {
		t.Fatal(err)
	}
	an := &Analyzer{Points: d.Points, Alpha: 3, R: d.R, Goodness: true}
	ch := sinrChannel(t, d)
	if _, err := sim.Run(ch, FixedProbability{}, 3, sim.Config{MaxRounds: 2000, Tracer: an}); err != nil {
		t.Fatal(err)
	}
	for r, s := range an.Snapshots {
		if s.GoodPerClass == nil {
			t.Fatalf("round %d: goodness census missing", r+1)
		}
		if len(s.GoodPerClass) != len(s.ClassSizes) {
			t.Fatalf("round %d: %d good entries for %d classes", r+1, len(s.GoodPerClass), len(s.ClassSizes))
		}
		for i := range s.GoodPerClass {
			if s.GoodPerClass[i] > s.ClassSizes[i] {
				t.Errorf("round %d class %d: %d good of %d nodes", r+1, i, s.GoodPerClass[i], s.ClassSizes[i])
			}
		}
	}
	// On a sparse uniform deployment the overwhelming majority of nodes
	// should be good in round 1 (annulus capacities are generous: 96·2^{tα/2}).
	s := an.Snapshots[0]
	good, all := 0, 0
	for i := range s.ClassSizes {
		good += s.GoodPerClass[i]
		all += s.ClassSizes[i]
	}
	if good*2 < all {
		t.Errorf("only %d/%d nodes good in round 1 of a uniform deployment", good, all)
	}
}

func TestAnalyzerWithoutActivenessNodes(t *testing.T) {
	// Nodes that do not implement Activeness are treated as inactive; the
	// analyzer must not panic and must record zero actives.
	an := &Analyzer{Points: []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}, Alpha: 3, R: 1}
	nodes := []sim.Node{plainNode{}, plainNode{}}
	an.OnRound(1, nodes, []bool{false, false}, []int{-1, -1})
	if an.Snapshots[0].Active != 0 {
		t.Errorf("active = %d, want 0", an.Snapshots[0].Active)
	}
}

// plainNode is a node that reports no activity.
type plainNode struct{}

func TestMaxClassSizesSuffixMaxima(t *testing.T) {
	an := &Analyzer{}
	an.Snapshots = []Snapshot{
		{Round: 1, ClassSizes: []int{4, 2}},
		{Round: 2, ClassSizes: []int{1, 3, 1}},
		{Round: 3, ClassSizes: []int{0, 1}},
	}
	got := an.MaxClassSizes()
	want := [][]int{
		{4, 3, 1},
		{1, 3, 1},
		{0, 1, 0},
	}
	for r := range want {
		for i := range want[r] {
			if got[r][i] != want[r][i] {
				t.Fatalf("MaxClassSizes = %v, want %v", got, want)
			}
		}
	}
	if (&Analyzer{}).MaxClassSizes() != nil {
		t.Error("empty analyzer should return nil")
	}
}
