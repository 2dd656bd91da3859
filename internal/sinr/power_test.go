package sinr

import (
	"math"
	"testing"

	"fadingcr/internal/geom"
	"fadingcr/internal/sim"
	"fadingcr/internal/xrand"
)

func TestNewWithPowersValidation(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	params := Params{Alpha: 3, Beta: 1.5, Noise: 1}
	if _, err := NewWithPowers(params, pts, []float64{1, 1}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := NewWithPowers(Params{Alpha: 0, Beta: 1}, pts, []float64{1, 1}); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := NewWithPowers(params, nil, nil); err == nil {
		t.Error("empty deployment accepted")
	}
	if _, err := NewWithPowers(params, pts, []float64{1}); err == nil {
		t.Error("mismatched powers accepted")
	}
	for _, bad := range []float64{0, -1, math.Inf(1)} {
		if _, err := NewWithPowers(params, pts, []float64{1, bad}); err == nil {
			t.Errorf("power %v accepted", bad)
		}
	}
}

// TestUniformPowersMatchesUniformChannel: the per-node-power channel with
// uniform powers reproduces the uniform channel's decisions exactly.
func TestUniformPowersMatchesUniformChannel(t *testing.T) {
	d, err := geom.UniformDisk(3, 30)
	if err != nil {
		t.Fatal(err)
	}
	params := Params{Alpha: 3, Beta: 1.5, Noise: 1}
	params.Power = MinSingleHopPower(params.Alpha, params.Beta, params.Noise, d.R, DefaultSingleHopMargin)
	uni, err := New(params, d.Points)
	if err != nil {
		t.Fatal(err)
	}
	per, err := NewWithPowers(params, d.Points, UniformPowers(30, params.Power))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(5)
	tx := make([]bool, 30)
	ra := make([]int, 30)
	rb := make([]int, 30)
	for round := 0; round < 30; round++ {
		for i := range tx {
			tx[i] = rng.Float64() < 0.25
		}
		uni.Deliver(tx, ra)
		per.Deliver(tx, rb)
		for v := range ra {
			if ra[v] != rb[v] {
				t.Fatalf("round %d listener %d: uniform %d vs per-node %d", round, v, ra[v], rb[v])
			}
		}
	}
}

func TestPowerChannelCaptureByStrongerTransmitter(t *testing.T) {
	// Two transmitters equidistant from a listener: the 10×-stronger one is
	// decoded (β modest), where equal powers would collide.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 1, Y: 0}}
	params := Params{Alpha: 3, Beta: 2, Noise: 0}
	equal, err := NewWithPowers(params, pts, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := NewWithPowers(params, pts, []float64{10, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	tx := []bool{true, true, false}
	recv := make([]int, 3)
	equal.Deliver(tx, recv)
	if recv[2] != -1 {
		t.Errorf("equal powers decoded %d, want collision", recv[2])
	}
	skewed.Deliver(tx, recv)
	if recv[2] != 0 {
		t.Errorf("skewed powers decoded %d, want 0", recv[2])
	}
}

func TestPowerChannelPowersCopied(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	powers := []float64{5, 5}
	c, err := NewWithPowers(Params{Alpha: 3, Beta: 1, Noise: 0}, pts, powers)
	if err != nil {
		t.Fatal(err)
	}
	powers[0] = 1e-9
	got := c.Powers()
	if got[0] != 5 {
		t.Error("channel aliased the caller's power slice")
	}
	got[1] = 42
	if c.Powers()[1] != 5 {
		t.Error("Powers() exposed internal state")
	}
}

func TestPowerChannelImplementsSimChannel(t *testing.T) {
	var _ sim.Channel = (*Channel)(nil)
}

// TestFixedProbabilitySurvivesPowerHeterogeneity: the algorithm still solves
// when node powers are spread over a 4× hardware range (all still
// single-hop feasible).
func TestFixedProbabilitySurvivesPowerHeterogeneity(t *testing.T) {
	d, err := geom.UniformDisk(11, 64)
	if err != nil {
		t.Fatal(err)
	}
	params := Params{Alpha: 3, Beta: 1.5, Noise: 1}
	base := MinSingleHopPower(params.Alpha, params.Beta, params.Noise, d.R, DefaultSingleHopMargin)
	rng := xrand.New(13)
	powers := make([]float64, 64)
	for i := range powers {
		powers[i] = base * (1 + 3*rng.Float64()) // [P, 4P]
	}
	ch, err := NewWithPowers(params, d.Points, powers)
	if err != nil {
		t.Fatal(err)
	}
	// Use the core algorithm through the sim engine without importing core
	// (cycle-free): a minimal local clone of the fixed-probability node.
	res, err := sim.Run(ch, fixedPBuilder{}, 21, sim.Config{MaxRounds: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Errorf("unsolved under power heterogeneity: %+v", res)
	}
}

// fixedPBuilder is a tiny local stand-in for core.FixedProbability (the core
// package imports sinr in its tests; importing core here would be fine for
// Go but keeps the dependency arrow one-way as a matter of layering).
type fixedPBuilder struct{}

func (fixedPBuilder) Name() string { return "fixed-p-test" }
func (fixedPBuilder) Populate(n int, seed uint64) sim.Population {
	return &fixedPNodes{seeds: xrand.SplitN(seed, n), downed: make([]bool, n)}
}

// fixedPNodes transmit with probability 0.2 in round r from the stream
// xrand.New(Split(seeds[u], r)) until they receive a message.
type fixedPNodes struct {
	seeds  []uint64
	downed []bool
}

func (p *fixedPNodes) Act(round int, live []int, tx []bool) (count, last int) {
	last = -1
	for _, u := range live {
		tx[u] = !p.downed[u] && xrand.New(xrand.Split(p.seeds[u], uint64(round))).Float64() < 0.2
		if tx[u] {
			count++
			last = u
		}
	}
	return count, last
}

func (p *fixedPNodes) Hear(_ int, live []int, recv []int, _ sim.Feedback) []int {
	for _, u := range live {
		if recv[u] >= 0 {
			p.downed[u] = true
		}
	}
	return live
}
