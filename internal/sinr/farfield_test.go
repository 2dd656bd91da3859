package sinr

import (
	"math"
	"math/rand/v2"
	"testing"

	"fadingcr/internal/geom"
	"fadingcr/internal/xrand"
)

// gridPoints builds a side×side unit grid — a constant-density deployment
// with shortest link 1, constructed directly so large-n tests skip the
// O(n²) deployment normalisation.
func gridPoints(side int) []geom.Point {
	pts := make([]geom.Point, 0, side*side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			pts = append(pts, geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	return pts
}

// gridParams derives single-hop-feasible parameters for a side×side grid.
func gridParams(alpha, beta, noise float64, side int) Params {
	maxDist := float64(side-1) * math.Sqrt2
	return Params{
		Alpha: alpha,
		Beta:  beta,
		Noise: noise,
		Power: MinSingleHopPower(alpha, beta, noise, maxDist, DefaultSingleHopMargin),
	}
}

func randomTx(rng *rand.Rand, n int, density float64) []bool {
	tx := make([]bool, n)
	for i := range tx {
		tx[i] = rng.Float64() < density
	}
	return tx
}

// TestFarFieldCrossCheck is the exact-vs-ε cross-check: over randomized
// dense transmit sets, every ε-mode reception disagreement with the exact
// engine must be (a) one-sided — ε-mode delivers where exact just misses the
// threshold, never the reverse — and (b) within the documented margin
// window: the exact SINR of the disputed reception is at least
// β/(1 + β·eps·(Noise+T)/s), where T is the exact total signal at the
// listener and s the disputed transmitter's signal. The observed
// disagreement rate is logged as the quantification the bound promises.
func TestFarFieldCrossCheck(t *testing.T) {
	const side = 40
	n := side * side
	pts := gridPoints(side)
	for _, alpha := range []float64{3, 4} {
		for _, eps := range []float64{1e-3, 0.05} {
			p := gridParams(alpha, 1.5, 1, side)
			exact, err := New(p, pts)
			if err != nil {
				t.Fatal(err)
			}
			approx, err := New(p, pts, WithFarFieldEps(eps))
			if err != nil {
				t.Fatal(err)
			}
			rng := xrand.New(uint64(1000*alpha) + uint64(eps*1e6))
			re, ra := make([]int, n), make([]int, n)
			listeners, disagreements := 0, 0
			for round := 0; round < 6; round++ {
				tx := randomTx(rng, n, 0.2)
				exact.Deliver(tx, re)
				approx.Deliver(tx, ra)
				for v := 0; v < n; v++ {
					if tx[v] {
						continue
					}
					listeners++
					if re[v] == ra[v] {
						continue
					}
					disagreements++
					// One-sided: ε-mode may deliver where exact does not;
					// an exact reception can never be lost or redirected.
					if re[v] != -1 {
						t.Fatalf("α=%v eps=%v listener %d: exact delivered %d but ε-mode %d — disagreement is not one-sided",
							alpha, eps, v, re[v], ra[v])
					}
					// The disputed reception must sit inside the ε margin
					// window just below the threshold.
					u := ra[v]
					s, total := 0.0, 0.0
					for w := range tx {
						if !tx[w] || w == v {
							continue
						}
						sw := p.Power * attenuation(pts[w].Dist2(pts[v]), p.Alpha)
						total += sw
						if w == u {
							s = sw
						}
					}
					exactRatio := p.SINR(s, total-s)
					if exactRatio >= p.Beta {
						t.Fatalf("α=%v eps=%v listener %d: exact SINR %v ≥ β=%v yet exact engine delivered nothing",
							alpha, eps, v, exactRatio, p.Beta)
					}
					floor := p.Beta / (1 + p.Beta*eps*(p.Noise+total)/s)
					if exactRatio < floor*(1-1e-9) {
						t.Fatalf("α=%v eps=%v listener %d: exact SINR %v below ε margin floor %v — pruning dropped more than eps allows",
							alpha, eps, v, exactRatio, floor)
					}
				}
			}
			rate := float64(disagreements) / float64(listeners)
			t.Logf("α=%v eps=%v: %d/%d listener-rounds disagree (rate %.2e)", alpha, eps, disagreements, listeners, rate)
		}
	}
}

// TestFarFieldPrunes: the ε engine must actually skip far transmitters on a
// large dense deployment (otherwise it is just a slower exact engine), and
// the skipped work must be visible in the sinr.farfield_pruned_tx metric.
func TestFarFieldPrunes(t *testing.T) {
	const side = 40
	n := side * side
	pts := gridPoints(side)
	p := gridParams(4, 1.5, 1, side)
	c, err := New(p, pts, WithFarFieldEps(0.05))
	if err != nil {
		t.Fatal(err)
	}
	before := mFarFieldPrunedTx.Load()
	rng := xrand.New(7)
	recv := make([]int, n)
	c.Deliver(randomTx(rng, n, 0.2), recv)
	if pruned := mFarFieldPrunedTx.Load() - before; pruned <= 0 {
		t.Fatalf("eps=0.05 on a %d-node dense grid pruned %d transmitter evaluations, want > 0", n, pruned)
	}
}

// TestFarFieldSmallTxIsExact: with at most farFieldSmallTx transmitters the
// ε engine uses the transmitter list directly, so receptions are
// bit-identical to the exact engine — the sparse regime contention
// resolution converges to never pays an approximation.
func TestFarFieldSmallTxIsExact(t *testing.T) {
	const side = 30
	n := side * side
	pts := gridPoints(side)
	p := gridParams(3, 1.5, 1, side)
	exact, err := New(p, pts)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := New(p, pts, WithFarFieldEps(0.4))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(23)
	re, ra := make([]int, n), make([]int, n)
	for _, k := range []int{1, 2, farFieldSmallTx} {
		tx := make([]bool, n)
		for picked := 0; picked < k; {
			u := int(rng.Uint64() % uint64(n))
			if !tx[u] {
				tx[u] = true
				picked++
			}
		}
		exact.Deliver(tx, re)
		approx.Deliver(tx, ra)
		for v := range re {
			if re[v] != ra[v] {
				t.Fatalf("|tx|=%d listener %d: exact recv %d, ε recv %d — small-tx path must be exact", k, v, re[v], ra[v])
			}
		}
	}
}

// TestFarFieldZeroAllocSteadyState: the sequential ε engine shares the
// zero-allocation hot-path guarantee — near-set buffers are preallocated
// per worker and slices.Sort is in-place.
func TestFarFieldZeroAllocSteadyState(t *testing.T) {
	const side = 32
	n := side * side
	pts := gridPoints(side)
	p := gridParams(4, 1.5, 1, side)
	c, err := New(p, pts, WithFarFieldEps(0.01))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(5)
	tx := randomTx(rng, n, 0.2)
	recv := make([]int, n)
	c.Deliver(tx, recv) // warm-up
	if allocs := testing.AllocsPerRun(10, func() { c.Deliver(tx, recv) }); allocs != 0 {
		t.Errorf("sequential ε Deliver allocates %v times per round, want 0", allocs)
	}
}

// TestFarFieldRayleighDeterministic: the faded ε engine draws per-listener
// fade substreams, so equal seeds give equal receptions across separate
// channels.
func TestFarFieldRayleighDeterministic(t *testing.T) {
	const side = 24
	n := side * side
	pts := gridPoints(side)
	p := gridParams(3, 1.5, 1, side)
	a, err := NewRayleigh(p, pts, 42, WithFarFieldEps(0.02))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRayleigh(p, pts, 42, WithFarFieldEps(0.02))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(31)
	ra, rb := make([]int, n), make([]int, n)
	for round := 0; round < 4; round++ {
		tx := randomTx(rng, n, 0.3)
		a.Deliver(tx, ra)
		b.Deliver(tx, rb)
		for v := range ra {
			if ra[v] != rb[v] {
				t.Fatalf("round %d listener %d: recv %d vs %d with equal seeds", round, v, ra[v], rb[v])
			}
		}
	}
}

// TestFarFieldPowerChannelBounds: the heterogeneous-power ε engine must
// stay within the same one-sided disagreement discipline (its pruning bound
// uses the per-channel min/max powers).
func TestFarFieldPowerChannelBounds(t *testing.T) {
	const side = 24
	n := side * side
	pts := gridPoints(side)
	p := gridParams(4, 1.5, 1, side)
	powers := make([]float64, n)
	prng := xrand.New(99)
	for i := range powers {
		powers[i] = p.Power * (0.5 + prng.Float64()) // heterogeneous ×[0.5, 1.5)
	}
	exact, err := NewWithPowers(p, pts, powers)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := NewWithPowers(p, pts, powers, WithFarFieldEps(0.05))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(13)
	re, ra := make([]int, n), make([]int, n)
	for round := 0; round < 5; round++ {
		tx := randomTx(rng, n, 0.25)
		exact.Deliver(tx, re)
		approx.Deliver(tx, ra)
		for v := range re {
			if re[v] != ra[v] && re[v] != -1 {
				t.Fatalf("round %d listener %d: exact delivered %d, ε %d — power-channel disagreement not one-sided",
					round, v, re[v], ra[v])
			}
		}
	}
}

func TestFarFieldOptionValidation(t *testing.T) {
	pts := gridPoints(4)
	p := gridParams(3, 1.5, 1, 4)
	for _, eps := range []float64{-0.1, 0.5, 0.9, math.Inf(1), math.NaN()} {
		if _, err := New(p, pts, WithFarFieldEps(eps)); err == nil {
			t.Errorf("eps=%v accepted, want error", eps)
		}
	}
	for _, workers := range []int{-1, MaxDeliverParallelism + 1} {
		if _, err := New(p, pts, WithDeliverParallelism(workers)); err == nil {
			t.Errorf("workers=%d accepted, want error", workers)
		}
	}
	if _, err := EngineOptions(0.7, 0); err == nil {
		t.Error("eps=0.7 accepted by EngineOptions")
	}
	if _, err := EngineOptions(0, -3); err == nil {
		t.Error("workers=-3 accepted by EngineOptions")
	}
	if opts, err := EngineOptions(0, 0); err != nil || len(opts) != 0 {
		t.Errorf("EngineOptions(0, 0) = %d options, %v; want none", len(opts), err)
	}
	opts, err := EngineOptions(0.1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) != 2 {
		t.Errorf("EngineOptions(0.1, 8) = %d options, want 2", len(opts))
	}
	if _, err := New(p, pts, opts...); err != nil {
		t.Errorf("valid EngineOptions rejected by New: %v", err)
	}
}
