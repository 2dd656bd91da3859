package sinr

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"fadingcr/internal/geom"
	"fadingcr/internal/obs"
	"fadingcr/internal/xrand"
)

func validParams() Params {
	return Params{Alpha: 3, Beta: 2, Noise: 1, Power: 1e6}
}

func TestParamsValidate(t *testing.T) {
	if err := validParams().Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []Params{
		{Alpha: 0, Beta: 1, Noise: 0, Power: 1},
		{Alpha: -1, Beta: 1, Noise: 0, Power: 1},
		{Alpha: math.Inf(1), Beta: 1, Noise: 0, Power: 1},
		{Alpha: 3, Beta: 0, Noise: 0, Power: 1},
		{Alpha: 3, Beta: -2, Noise: 0, Power: 1},
		{Alpha: 3, Beta: 1, Noise: -1, Power: 1},
		{Alpha: 3, Beta: 1, Noise: math.NaN(), Power: 1},
		{Alpha: 3, Beta: 1, Noise: 0, Power: 0},
		{Alpha: 3, Beta: 1, Noise: 0, Power: math.Inf(1)},
		{Alpha: math.NaN(), Beta: 1, Noise: 0, Power: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d (%+v) accepted", i, p)
		}
	}
}

func TestSignalKnownValues(t *testing.T) {
	p := Params{Alpha: 2, Beta: 1, Noise: 0, Power: 100}
	if got := p.Signal(1); got != 100 {
		t.Errorf("Signal(1) = %v, want 100", got)
	}
	if got := p.Signal(10); math.Abs(got-1) > 1e-12 {
		t.Errorf("Signal(10) = %v, want 1", got)
	}
	p.Alpha = 3
	if got := p.Signal(2); math.Abs(got-12.5) > 1e-12 {
		t.Errorf("alpha=3 Signal(2) = %v, want 12.5", got)
	}
}

func TestSignalMonotoneInDistanceProperty(t *testing.T) {
	p := validParams()
	f := func(aRaw, bRaw uint16) bool {
		a := 1 + float64(aRaw)/100
		b := a + 0.01 + float64(bRaw)/100
		return p.Signal(a) > p.Signal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSINR(t *testing.T) {
	p := Params{Alpha: 3, Beta: 1, Noise: 2, Power: 1}
	if got := p.SINR(10, 3); got != 2 {
		t.Errorf("SINR(10, 3) = %v, want 2", got)
	}
	if got := p.SINR(10, 0); got != 5 {
		t.Errorf("SINR(10, 0) = %v, want 5", got)
	}
}

func TestMinSingleHopPower(t *testing.T) {
	p := MinSingleHopPower(3, 2, 1, 10, 4)
	if p <= 4*2*1*1000 {
		t.Errorf("power %v does not exceed 4βN·R^α = 8000", p)
	}
	params := Params{Alpha: 3, Beta: 2, Noise: 1, Power: p}
	if !params.SingleHopFeasible(10, 4) {
		t.Error("MinSingleHopPower output fails SingleHopFeasible")
	}
	if params.SingleHopFeasible(11, 4) {
		t.Error("SingleHopFeasible true beyond the design distance")
	}
	if got := MinSingleHopPower(3, 2, 0, 10, 4); got != 1 {
		t.Errorf("zero-noise power = %v, want 1", got)
	}
}

func TestNewValidation(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	if _, err := New(Params{}, pts); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := New(validParams(), nil); err == nil {
		t.Error("empty deployment accepted")
	}
	c, err := New(validParams(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 2 {
		t.Errorf("N = %d, want 2", c.N())
	}
	if c.Params() != validParams() {
		t.Errorf("Params = %+v", c.Params())
	}
}

func TestNewCopiesPoints(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	c, err := New(validParams(), pts)
	if err != nil {
		t.Fatal(err)
	}
	pts[1] = geom.Point{X: 500, Y: 500}
	recv := make([]int, 2)
	c.Deliver([]bool{true, false}, recv)
	if recv[1] != 0 {
		t.Error("mutating the caller's slice changed the channel: points not copied")
	}
}

func TestDeliverSoloTransmitterHeard(t *testing.T) {
	// Two nodes at distance 1 with ample power: a solo transmission is
	// received by the listener.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	c, err := New(validParams(), pts)
	if err != nil {
		t.Fatal(err)
	}
	recv := make([]int, 2)
	c.Deliver([]bool{true, false}, recv)
	if recv[0] != -1 {
		t.Errorf("transmitter recv = %d, want -1", recv[0])
	}
	if recv[1] != 0 {
		t.Errorf("listener recv = %d, want 0", recv[1])
	}
}

func TestDeliverNobodyTransmits(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	c, _ := New(validParams(), pts)
	recv := make([]int, 2)
	c.Deliver([]bool{false, false}, recv)
	if recv[0] != -1 || recv[1] != -1 {
		t.Errorf("recv = %v, want all -1", recv)
	}
}

func TestDeliverSymmetricCollision(t *testing.T) {
	// Two co-located-ish transmitters and a listener midway: with β ≥ 1 the
	// two equal signals destroy each other.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 1, Y: 0}}
	c, _ := New(Params{Alpha: 3, Beta: 1.5, Noise: 0, Power: 1}, pts)
	recv := make([]int, 3)
	c.Deliver([]bool{true, true, false}, recv)
	if recv[2] != -1 {
		t.Errorf("midpoint listener decoded %d under a symmetric collision", recv[2])
	}
}

func TestDeliverCaptureEffect(t *testing.T) {
	// A listener near one of two transmitters decodes the near one: spatial
	// reuse in action.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 1, Y: 0}, {X: 99, Y: 0}}
	c, _ := New(Params{Alpha: 3, Beta: 2, Noise: 0, Power: 1}, pts)
	recv := make([]int, 4)
	c.Deliver([]bool{true, true, false, false}, recv)
	if recv[2] != 0 {
		t.Errorf("listener 2 decoded %d, want 0", recv[2])
	}
	if recv[3] != 1 {
		t.Errorf("listener 3 decoded %d, want 1", recv[3])
	}
}

func TestDeliverNoisePreventsWeakSignal(t *testing.T) {
	// Signal P/d^α = 1/8; SINR = (1/8)/noise. With noise 1 and β 2: no.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}}
	c, _ := New(Params{Alpha: 3, Beta: 2, Noise: 1, Power: 1}, pts)
	recv := make([]int, 2)
	c.Deliver([]bool{true, false}, recv)
	if recv[1] != -1 {
		t.Errorf("noise-drowned signal decoded: recv = %d", recv[1])
	}
}

func TestDeliverPanicsOnBadLengths(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	c, _ := New(validParams(), pts)
	defer func() {
		if recover() == nil {
			t.Error("Deliver with wrong slice lengths did not panic")
		}
	}()
	c.Deliver([]bool{true}, make([]int, 2))
}

// TestDeliverMoreInterferenceNeverHelps: adding a transmitter never lets a
// listener decode a message it could not decode before from the same sender
// (monotonicity of the SINR equation).
func TestDeliverMoreInterferenceNeverHelps(t *testing.T) {
	f := func(seed uint64, nRaw, extraRaw uint8) bool {
		n := 3 + int(nRaw%20)
		d, err := geom.UniformDisk(seed, n)
		if err != nil {
			return false
		}
		params := Params{Alpha: 3, Beta: 1.5, Noise: 0.1,
			Power: MinSingleHopPower(3, 1.5, 0.1, d.R, DefaultSingleHopMargin)}
		c, err := New(params, d.Points)
		if err != nil {
			return false
		}
		tx := make([]bool, n)
		tx[0] = true
		recv := make([]int, n)
		c.Deliver(tx, recv)
		base := append([]int(nil), recv...)

		// Add one more transmitter (not node 0).
		extra := 1 + int(extraRaw)%(n-1)
		tx[extra] = true
		c.Deliver(tx, recv)
		for v := range recv {
			if v == extra {
				continue // became a transmitter; allowed to change
			}
			// If v previously decoded node 0 it may now fail, but it must
			// not decode a *different* message from nowhere stronger; and if
			// v previously decoded nothing it can now decode only the new
			// transmitter.
			if base[v] == -1 && recv[v] != -1 && recv[v] != extra {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDeliverAtMostOneDecodedHighBeta: with β ≥ 1, Receivable never returns
// more than one transmitter for any listener.
func TestDeliverAtMostOneDecodedHighBeta(t *testing.T) {
	f := func(seed uint64, nRaw uint8, txSeed uint64) bool {
		n := 2 + int(nRaw%20)
		d, err := geom.UniformDisk(seed, n)
		if err != nil {
			return false
		}
		params := Params{Alpha: 3, Beta: 1, Noise: 0,
			Power: 1}
		c, err := New(params, d.Points)
		if err != nil {
			return false
		}
		tx := make([]bool, n)
		s := txSeed
		for i := range tx {
			s = s*6364136223846793005 + 1442695040888963407
			tx[i] = s>>63 == 1
		}
		for v := range tx {
			if tx[v] {
				continue
			}
			if got := c.Receivable(tx, v); len(got) > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDeliverConsistentWithReceivable: whenever Deliver reports a reception,
// that transmitter is in the Receivable set; whenever Receivable is empty,
// Deliver reports -1.
func TestDeliverConsistentWithReceivable(t *testing.T) {
	d, err := geom.UniformDisk(17, 15)
	if err != nil {
		t.Fatal(err)
	}
	params := Params{Alpha: 2.5, Beta: 0.5, Noise: 0.01, Power: 10}
	c, err := New(params, d.Points)
	if err != nil {
		t.Fatal(err)
	}
	tx := make([]bool, 15)
	for _, u := range []int{0, 3, 7, 11} {
		tx[u] = true
	}
	recv := make([]int, 15)
	c.Deliver(tx, recv)
	for v := range recv {
		set := c.Receivable(tx, v)
		if recv[v] == -1 {
			if tx[v] {
				continue
			}
			if len(set) != 0 {
				t.Errorf("listener %d: Deliver=-1 but Receivable=%v", v, set)
			}
			continue
		}
		found := false
		for _, u := range set {
			if u == recv[v] {
				found = true
			}
		}
		if !found {
			t.Errorf("listener %d decoded %d not in Receivable %v", v, recv[v], set)
		}
	}
}

func TestReceivableTransmitterGetsNil(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	c, _ := New(validParams(), pts)
	if got := c.Receivable([]bool{true, false}, 0); got != nil {
		t.Errorf("transmitting node has Receivable = %v, want nil", got)
	}
}

func TestInterferenceAt(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}
	p := Params{Alpha: 2, Beta: 1, Noise: 0, Power: 4}
	c, _ := New(p, pts)
	tx := []bool{true, false, true}
	// At node 1: 4/1² from node 0 + 4/1² from node 2 = 8.
	if got := c.InterferenceAt(tx, 1); math.Abs(got-8) > 1e-12 {
		t.Errorf("InterferenceAt(1) = %v, want 8", got)
	}
	// A transmitter's own signal is excluded: at node 0 only node 2
	// contributes 4/4 = 1.
	if got := c.InterferenceAt(tx, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("InterferenceAt(0) = %v, want 1", got)
	}
}

func TestRayleighDeterministicPerSeed(t *testing.T) {
	d, err := geom.UniformDisk(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	params := Params{Alpha: 3, Beta: 1, Noise: 0.1,
		Power: MinSingleHopPower(3, 1, 0.1, d.R, DefaultSingleHopMargin)}
	mk := func(seed uint64) [][]int {
		c, err := NewRayleigh(params, d.Points, seed)
		if err != nil {
			t.Fatal(err)
		}
		var rounds [][]int
		tx := make([]bool, 12)
		tx[0], tx[5] = true, true
		for r := 0; r < 5; r++ {
			recv := make([]int, 12)
			c.Deliver(tx, recv)
			rounds = append(rounds, recv)
		}
		return rounds
	}
	a, b := mk(9), mk(9)
	for r := range a {
		for v := range a[r] {
			if a[r][v] != b[r][v] {
				t.Fatalf("round %d listener %d: %d vs %d with equal seeds", r, v, a[r][v], b[r][v])
			}
		}
	}
}

func TestRayleighFadesVaryAcrossRounds(t *testing.T) {
	// With two symmetric transmitters and a midpoint listener, the
	// deterministic channel never decodes; Rayleigh fading should sometimes
	// tip the balance across many rounds (capture through fade diversity).
	pts := []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 1, Y: 0}}
	params := Params{Alpha: 3, Beta: 1.1, Noise: 0, Power: 1}
	c, err := NewRayleigh(params, pts, 31)
	if err != nil {
		t.Fatal(err)
	}
	tx := []bool{true, true, false}
	recv := make([]int, 3)
	decoded := 0
	for r := 0; r < 500; r++ {
		c.Deliver(tx, recv)
		if recv[2] != -1 {
			decoded++
		}
	}
	if decoded == 0 {
		t.Error("Rayleigh fading never broke the symmetric tie in 500 rounds")
	}
	if decoded == 500 {
		t.Error("Rayleigh fading decoded every round; fades look degenerate")
	}
}

func TestRayleighValidation(t *testing.T) {
	if _, err := NewRayleigh(Params{}, []geom.Point{{X: 0, Y: 0}}, 1); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := NewRayleigh(validParams(), nil, 1); err == nil {
		t.Error("empty deployment accepted")
	}
}

// randomGeometry returns a uniform-disk deployment, single-hop parameters
// derived from its radius, and a transmit vector with roughly the given
// density.
func randomGeometry(t *testing.T, seed uint64, n int, density float64) (*geom.Deployment, Params, []bool) {
	t.Helper()
	d, err := geom.UniformDisk(seed, n)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Alpha: 3, Beta: 1.5, Noise: 1}
	p.Power = MinSingleHopPower(p.Alpha, p.Beta, p.Noise, d.R, DefaultSingleHopMargin)
	return d, p, randomTx(xrand.New(seed+1), n, density)
}

// TestDeliverZeroAllocsSteadyState: after the first call, sequential
// Deliver allocates nothing for uniform powers, per-node powers, and both
// fade-stream rules.
func TestDeliverZeroAllocsSteadyState(t *testing.T) {
	// Recording is on by default; assert it so the zero-alloc bound below
	// covers the metric increments on the hot path, not just the engine.
	if !obs.Enabled() {
		t.Fatal("metrics recording unexpectedly disabled; this test must measure the instrumented path")
	}
	const n = 96
	d, p, tx := randomGeometry(t, 21, n, 0.25)
	powers := UniformPowers(n, p.Power)
	powers[0] *= 2
	recv := make([]int, n)

	uniform, err := New(p, d.Points)
	if err != nil {
		t.Fatal(err)
	}
	perNode, err := NewWithPowers(p, d.Points, powers)
	if err != nil {
		t.Fatal(err)
	}
	faded, err := NewRayleigh(p, d.Points, 7)
	if err != nil {
		t.Fatal(err)
	}
	substream, err := NewRayleigh(p, d.Points, 7, WithDeliverParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	listeners := []int{0, 3, 4, 40, n - 1}
	for name, c := range map[string]*Channel{"uniform": uniform, "per-node": perNode, "faded": faded, "faded/substream": substream} {
		c.Deliver(tx, recv) // warm the scratch buffers
		if allocs := testing.AllocsPerRun(50, func() { c.Deliver(tx, recv) }); allocs != 0 {
			t.Errorf("%s: steady-state Deliver allocates %.1f times per call, want 0", name, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() { c.DeliverTo(tx, listeners, recv) }); allocs != 0 {
			t.Errorf("%s: steady-state DeliverTo allocates %.1f times per call, want 0", name, allocs)
		}
	}
}

// TestSingleStreamFadeIgnoresListenerSubset: the single fade stream draws
// the round's fades listener by listener, so a faded channel without
// options evaluates every listener even when DeliverTo lists a few — round
// after round its receptions, and so its fade stream, stay those of
// Deliver.
func TestSingleStreamFadeIgnoresListenerSubset(t *testing.T) {
	const n = 120
	d, p, _ := randomGeometry(t, 13, n, 0)
	full, err := NewRayleigh(p, d.Points, 3)
	if err != nil {
		t.Fatal(err)
	}
	subset, err := NewRayleigh(p, d.Points, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(14)
	want, got := make([]int, n), make([]int, n)
	for round := 0; round < 8; round++ {
		tx := randomTx(rng, n, 0.15)
		full.Deliver(tx, want)
		subset.DeliverTo(tx, randomListeners(rng, n, round%5), got)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: DeliverTo receptions %v, Deliver %v", round, got, want)
		}
	}
}

// TestDeliveryCounters: every Deliver moves the sinr.deliveries metric, the
// ε engine's calls are attributed to sinr.deliveries_farfield, and
// sinr.listeners sums the listeners each call evaluated.
func TestDeliveryCounters(t *testing.T) {
	d, p, tx := randomGeometry(t, 41, 24, 0.3)
	recv := make([]int, 24)
	exact, err := New(p, d.Points)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := New(p, d.Points, WithFarFieldEps(0.1))
	if err != nil {
		t.Fatal(err)
	}
	faded, err := NewRayleigh(p, d.Points, 2)
	if err != nil {
		t.Fatal(err)
	}
	total0, far0, listeners0 := mDeliveries.Load(), mDeliveriesFarField.Load(), mListeners.Load()
	exact.Deliver(tx, recv)
	exact.Deliver(tx, recv)
	approx.Deliver(tx, recv)
	exact.DeliverTo(tx, []int{1, 5, 9}, recv)
	faded.DeliverTo(tx, []int{2}, recv) // the single fade stream evaluates all 24
	if got := mDeliveries.Load() - total0; got != 5 {
		t.Errorf("sinr.deliveries delta = %d, want 5", got)
	}
	if got := mDeliveriesFarField.Load() - far0; got != 1 {
		t.Errorf("sinr.deliveries_farfield delta = %d, want 1", got)
	}
	if got := mListeners.Load() - listeners0; got != 4*24+3 {
		t.Errorf("sinr.listeners delta = %d, want %d", got, 4*24+3)
	}
}
