package sinr

import (
	"fmt"
	"math"
	"testing"

	"fadingcr/internal/geom"
	"fadingcr/internal/xrand"
)

// recordedReception is one observer callback.
type recordedReception struct {
	listener, from int
	sinr, margin   float64
}

// recordingObserver captures callbacks into a preallocated buffer so that
// observing adds no allocations of its own.
type recordingObserver struct {
	got []recordedReception
}

func (o *recordingObserver) OnReception(listener, from int, sinr, margin float64) {
	o.got = append(o.got, recordedReception{listener, from, sinr, margin})
}

// observerChannels builds one channel per variant: uniform and per-node
// powers, and faded, at the workers the channel picks and at 3 workers.
func observerChannels(t *testing.T) map[string]*Channel {
	t.Helper()
	d, err := geom.UniformDisk(11, 48)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Alpha: 3, Beta: 1.5, Noise: 1}
	p.Power = MinSingleHopPower(p.Alpha, p.Beta, p.Noise, d.R, DefaultSingleHopMargin)
	powers := UniformPowers(d.N(), p.Power)
	for i := range powers {
		powers[i] *= 1 + float64(i%3)/4
	}
	out := map[string]*Channel{}
	add := func(name string, c *Channel, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out[name] = c
	}
	c, err := New(p, d.Points)
	add("uniform", c, err)
	c, err = NewWithPowers(p, d.Points, powers)
	add("per-node", c, err)
	c, err = NewRayleigh(p, d.Points, 5)
	add("rayleigh", c, err)
	c, err = NewRayleigh(p, d.Points, 5)
	add("rayleigh/3 workers", atWorkers(c, 3), err)
	return out
}

// TestObserverMatchesDeliveries: for every engine, the observer sees exactly
// the receptions committed to recv, in ascending listener order, with
// sinr ≥ β and margin = sinr − β; and observing never changes recv.
func TestObserverMatchesDeliveries(t *testing.T) {
	for name, ch := range observerChannels(t) {
		n := ch.N()
		rng := xrand.New(99)
		tx := make([]bool, n)
		recv := make([]int, n)
		beta := 1.5
		for round := 0; round < 30; round++ {
			for i := range tx {
				tx[i] = rng.Float64() < 0.2
			}
			obs := &recordingObserver{got: make([]recordedReception, 0, n)}
			ch.SetObserver(obs)
			ch.Deliver(tx, recv)
			ch.SetObserver(nil)

			want := 0
			prev := -1
			for v, from := range recv {
				if from < 0 {
					continue
				}
				if want >= len(obs.got) {
					t.Fatalf("%s round %d: %d receptions, observer saw %d", name, round, want+1, len(obs.got))
				}
				g := obs.got[want]
				if g.listener != v || g.from != from {
					t.Fatalf("%s round %d: observer[%d] = (%d,%d), recv has (%d,%d)", name, round, want, g.listener, g.from, v, from)
				}
				if g.listener <= prev {
					t.Fatalf("%s round %d: listeners out of order: %d after %d", name, round, g.listener, prev)
				}
				prev = g.listener
				if g.sinr < beta {
					t.Errorf("%s round %d: observed sinr %v < β", name, round, g.sinr)
				}
				if g.margin != g.sinr-beta {
					t.Errorf("%s round %d: margin %v != sinr−β %v", name, round, g.margin, g.sinr-beta)
				}
				want++
			}
			if want != len(obs.got) {
				t.Fatalf("%s round %d: observer saw %d receptions, recv has %d", name, round, len(obs.got), want)
			}
		}
	}
}

// TestObserverDoesNotChangeDeliveries: the same deterministic channel
// configuration delivers bit-identically with and without an observer (the
// Rayleigh engines are excluded here: their per-round fade streams advance
// with every Deliver, so two sequential runs on one channel differ by
// design — determinism across observer states for Rayleigh is covered by
// rebuilding channels with equal seeds).
func TestObserverDoesNotChangeDeliveries(t *testing.T) {
	d, err := geom.UniformDisk(17, 40)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Alpha: 3, Beta: 1.5, Noise: 1}
	p.Power = MinSingleHopPower(p.Alpha, p.Beta, p.Noise, d.R, DefaultSingleHopMargin)

	build := func(seed uint64, attach bool) [][]int {
		c, err := NewRayleigh(p, d.Points, seed)
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			c.SetObserver(&recordingObserver{})
		}
		rng := xrand.New(3)
		tx := make([]bool, d.N())
		var rounds [][]int
		for round := 0; round < 20; round++ {
			for i := range tx {
				tx[i] = rng.Float64() < 0.25
			}
			recv := make([]int, d.N())
			c.Deliver(tx, recv)
			rounds = append(rounds, recv)
		}
		return rounds
	}
	plain, observed := build(5, false), build(5, true)
	for r := range plain {
		for v := range plain[r] {
			if plain[r][v] != observed[r][v] {
				t.Fatalf("round %d listener %d: %d (plain) != %d (observed)", r, v, plain[r][v], observed[r][v])
			}
		}
	}

	c, err := New(p, d.Points)
	if err != nil {
		t.Fatal(err)
	}
	tx := make([]bool, d.N())
	for i := range tx {
		tx[i] = i%4 == 0
	}
	a, b := make([]int, d.N()), make([]int, d.N())
	c.Deliver(tx, a)
	c.SetObserver(&recordingObserver{})
	c.Deliver(tx, b)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("deterministic channel: listener %d delivers %d plain, %d observed", v, a[v], b[v])
		}
	}
}

// TestObserverZeroAllocDeliver: with an observer installed whose buffer is
// preallocated, steady-state Deliver still performs zero allocations — the
// hook is one pointer test plus an interface call — and so does a round
// of two tiles at 3 workers, faded and unfaded.
func TestObserverZeroAllocDeliver(t *testing.T) {
	chans := observerChannels(t)
	const side = 46 // n = 2116: a round's listeners span two tiles
	pts := gridPoints(side)
	p := gridParams(3, 1.5, 1, side)
	c, err := New(p, pts)
	if err != nil {
		t.Fatal(err)
	}
	chans["uniform/3 workers, two tiles"] = atWorkers(c, 3)
	if c, err = NewRayleigh(p, pts, 5); err != nil {
		t.Fatal(err)
	}
	chans["rayleigh/3 workers, two tiles"] = atWorkers(c, 3)
	for name, ch := range chans {
		n := ch.N()
		tx := make([]bool, n)
		recv := make([]int, n)
		for i := range tx {
			tx[i] = i%5 == 0 && (n <= deliverTile || i%200 == 0)
		}
		if n > deliverTile && n-countTx(tx) <= deliverTile {
			t.Fatalf("%s: the round's listeners fill one tile", name)
		}
		obs := &recordingObserver{got: make([]recordedReception, 0, n)}
		ch.SetObserver(obs)
		ch.Deliver(tx, recv) // warm scratch
		if allocs := testing.AllocsPerRun(50, func() {
			obs.got = obs.got[:0]
			ch.Deliver(tx, recv)
		}); allocs != 0 {
			t.Errorf("%s: observed Deliver allocates %.1f times per call, want 0", name, allocs)
		}
		ch.SetObserver(nil)
	}
}

// TestObserverSINRValueIsConsistent: the observed SINR of an isolated solo
// transmission equals the closed-form signal/noise ratio.
func TestObserverSINRValueIsConsistent(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 0}}
	p := Params{Alpha: 3, Beta: 1, Noise: 1, Power: 1000}
	c, err := New(p, pts)
	if err != nil {
		t.Fatal(err)
	}
	obs := &recordingObserver{}
	c.SetObserver(obs)
	recv := make([]int, 2)
	c.Deliver([]bool{true, false}, recv)
	if recv[1] != 0 || len(obs.got) != 1 {
		t.Fatalf("recv = %v, observations = %v", recv, obs.got)
	}
	want := p.Signal(3) / p.Noise
	if math.Abs(obs.got[0].sinr-want)/want > 1e-12 {
		t.Errorf("observed sinr %v, want %v", obs.got[0].sinr, want)
	}
}

// TestObservedSINRIsTheLiteralSum: with an observer installed every
// listener takes the full sum (sumAll), so every observed reception must
// be, bit for bit, what a literal ascending loop over
// powers[u]·attenuation(Dist2(u, v), α) gives: the first strict maximum's
// sender and best/(N + total − best). β is the smallest float, so every
// listener with a signal reports. It covers α ∈ {2, 2.5, 3, 4, 6} (the
// in-place α = 3 signals and the pre-loop pass), uniform powers on a
// lattice (exact ties, which only the first strict maximum breaks) and on
// a disk, per-node powers, rounds of at most 64 transmitters and of more,
// and a faded channel, whose literal loop draws expFade from each round's
// stream in order, independently of the draws the engine keeps, as a
// replay's pre-loop pass must read them.
func TestObservedSINRIsTheLiteralSum(t *testing.T) {
	const side = 16
	n := side * side
	disk, err := geom.UniformDisk(31, n)
	if err != nil {
		t.Fatal(err)
	}
	const fadeSeed = 9
	rng := xrand.New(41)
	small, large, compared := 0, 0, 0
	for _, alpha := range []float64{2, 2.5, 3, 4, 6} {
		for _, layout := range []struct {
			name string
			pts  []geom.Point
		}{{"lattice", gridPoints(side)}, {"disk", disk.Points}} {
			p := Params{Alpha: alpha, Beta: math.SmallestNonzeroFloat64, Noise: 1, Power: 3}
			uniform := UniformPowers(n, p.Power)
			perNode := make([]float64, n)
			for i := range perNode {
				perNode[i] = p.Power * (1 + float64(i%3)/4)
			}
			for _, variant := range []string{"uniform", "per-node", "faded"} {
				label := fmt.Sprintf("α=%v %s %s", alpha, layout.name, variant)
				var c *Channel
				powers := uniform
				switch variant {
				case "uniform":
					c, err = New(p, layout.pts)
				case "per-node":
					c, err = NewWithPowers(p, layout.pts, perNode)
					powers = perNode
				default:
					c, err = NewRayleigh(p, layout.pts, fadeSeed)
				}
				if err != nil {
					t.Fatal(err)
				}
				obs := &recordingObserver{}
				c.SetObserver(obs)
				recv := make([]int, n)
				for round, density := range []float64{0.1, 0.4, 0.1, 0.6} {
					tx := randomTx(rng, n, density)
					obs.got = obs.got[:0]
					c.Deliver(tx, recv)
					var fades *xrand.Reseedable
					if variant == "faded" {
						fades = xrand.NewReseedable(xrand.Split(fadeSeed, uint64(round)))
					}
					m := 0
					for _, on := range tx {
						if on {
							m++
						}
					}
					if m <= certSmallTx {
						small++
					} else {
						large++
					}
					seen := 0
					for v, pv := range layout.pts {
						if tx[v] {
							continue
						}
						total, best, from := 0.0, -1.0, -1
						for u, pu := range layout.pts {
							if !tx[u] {
								continue
							}
							s := powers[u] * attenuation(pu.Dist2(pv), alpha)
							if fades != nil {
								s *= expFade(fades)
							}
							total += s
							if s > best {
								best, from = s, u
							}
						}
						ratio := best / (p.Noise + (total - best))
						if from < 0 || !(ratio >= p.Beta) {
							continue
						}
						if seen >= len(obs.got) {
							t.Fatalf("%s round %d: listener %d decodes %d in the literal sum; the observer saw %d receptions", label, round, v, from, len(obs.got))
						}
						g := obs.got[seen]
						if g.listener != v || g.from != from || math.Float64bits(g.sinr) != math.Float64bits(ratio) {
							t.Fatalf("%s round %d: observed listener %d from %d at sinr %v; the literal sum has listener %d from %d at %v",
								label, round, g.listener, g.from, g.sinr, v, from, ratio)
						}
						seen++
					}
					if seen != len(obs.got) {
						t.Fatalf("%s round %d: the observer saw %d receptions, the literal sum %d", label, round, len(obs.got), seen)
					}
					compared += seen
				}
			}
		}
	}
	if small == 0 || large == 0 {
		t.Fatalf("%d rounds of at most %d transmitters and %d of more; want both", small, certSmallTx, large)
	}
	t.Logf("%d observed receptions compared over %d rounds of at most %d transmitters and %d of more", compared, small, certSmallTx, large)
}
