package sinr

import (
	"fmt"
	"math"
	"math/rand/v2"
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

// TestDeliverZeroAllocsSteadyState: after the first call, Deliver and
// DeliverTo allocate nothing for uniform powers, per-node powers, and
// faded channels, which settle most listeners by their bracketed pass: in
// rounds of 24 transmitters by bracketing every fade, and in rounds of 100
// on the certificate's walk. Rounds whose lists span two tiles do not
// allocate at 3 workers either, faded and unfaded, small and certified:
// the helpers are the package's, the job and the scratch the channel's.
// Every case runs at α = 3, whose pair loops compute their signals in
// place, and at α = 2.5, whose loops read the per-worker scratch the
// pre-loop pass fills; so does a faded round whose listener at β replays
// its draws through the exact sum (replayRound), delivered again and
// again.
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
	listeners := []int{0, 3, 4, 40, n - 1}
	const large = 400
	dl, pl, txl := randomGeometry(t, 22, large, 0.25)
	recvl := make([]int, large)
	// Two tiles: a 47-wide lattice, 2209 nodes, with 24 or 100
	// transmitters, listed all but every 50th.
	const side = 47
	tiled := gridPoints(side)
	pt := gridParams(3, 1.5, 1, side)
	recvt := make([]int, len(tiled))
	var tiledList []int
	for v := range tiled {
		if v%50 != 49 {
			tiledList = append(tiledList, v)
		}
	}
	tiledTx := func(m int) []bool {
		tx := make([]bool, len(tiled))
		for i := range m {
			tx[i*len(tiled)/m] = true
		}
		return tx
	}
	type round struct {
		c         *Channel
		tx        []bool
		listeners []int
		recv      []int
		replay    bool // zero the round count before each call: the same round again
	}
	rounds := map[string]round{}
	for _, alpha := range []float64{3, 2.5} {
		p, pl, pt := p, pl, pt
		p.Alpha, pl.Alpha, pt.Alpha = alpha, alpha, alpha
		must := func(c *Channel, err error) *Channel {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		add := func(name string, r round) { rounds[fmt.Sprintf("α=%v %s", alpha, name)] = r }
		add("uniform", round{c: must(New(p, d.Points)), tx: tx, listeners: listeners, recv: recv})
		add("per-node", round{c: must(NewWithPowers(p, d.Points, powers)), tx: tx, listeners: listeners, recv: recv})
		add("faded", round{c: must(NewRayleigh(p, d.Points, 7)), tx: tx, listeners: listeners, recv: recv})
		add("faded/3 workers", round{c: atWorkers(must(NewRayleigh(p, d.Points, 7)), 3), tx: tx, listeners: listeners, recv: recv})
		for _, m := range []int{24, 100} {
			add(fmt.Sprintf("uniform/3 workers, two tiles, %d transmitters", m),
				round{c: atWorkers(must(New(pt, tiled)), 3), tx: tiledTx(m), listeners: tiledList, recv: recvt})
			add(fmt.Sprintf("faded/3 workers, two tiles, %d transmitters", m),
				round{c: atWorkers(must(NewRayleigh(pt, tiled, 7)), 3), tx: tiledTx(m), listeners: tiledList, recv: recvt})
		}
		add("faded, walked", round{c: must(NewRayleigh(pl, dl.Points, 7)), tx: txl, listeners: []int{0, 3, 4, 40, 200, large - 1}, recv: recvl})
		replayed, txr, near := replayRound(t, alpha)
		add("faded, replayed", round{c: replayed, tx: txr, listeners: []int{near, near + 7, len(txr) - 1}, recv: make([]int, len(txr)), replay: true})
	}
	settled0, walked0 := mFadedCertified.Load(), mFadedWalked.Load()
	for name, r := range rounds {
		again := func() {
			if r.replay {
				r.c.fade.round = 0
			}
		}
		replayed0 := mFadedFallbacks.Load()
		again()
		r.c.Deliver(r.tx, r.recv) // warm the scratch buffers
		if allocs := testing.AllocsPerRun(50, func() { again(); r.c.Deliver(r.tx, r.recv) }); allocs != 0 {
			t.Errorf("%s: steady-state Deliver allocates %.1f times per call, want 0", name, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() { again(); r.c.DeliverTo(r.tx, r.listeners, r.recv) }); allocs != 0 {
			t.Errorf("%s: steady-state DeliverTo allocates %.1f times per call, want 0", name, allocs)
		}
		// One warm-up call, then 51 calls of each kind, AllocsPerRun's own
		// warm-up included.
		if replays := mFadedFallbacks.Load() - replayed0; r.replay && replays < 103 {
			t.Errorf("%s: %d listeners replayed over 103 rounds, want at least one a round", name, replays)
		}
	}
	if mFadedCertified.Load() == settled0 || mFadedWalked.Load() == walked0 {
		t.Error("the faded rounds settled no listener by brackets, or none on the walk; the bound covers only the exact sum")
	}
	if m := countTx(txl); m <= certSmallTx {
		t.Errorf("the walked round has %d transmitters, want more than %d", m, certSmallTx)
	}
	if len(tiledList)-100 <= deliverTile {
		t.Errorf("the two-tile rounds list %d listeners, want more than %d", len(tiledList)-100, deliverTile)
	}
}

// TestFadedDeliverToKeepsStreamAligned: a faded DeliverTo draws only its
// listed listeners' fades and jumps the stream over everyone else's, so
// round after round — over every randomListeners kind (empty, single,
// full, sparse and dense, the last three with unlisted transmitters),
// lists with leading and trailing gaps, and a list of the round's
// transmitters alone — it decodes at every listed listener what a twin
// channel's Deliver decodes, leaves every other entry untouched, and stays
// aligned with the twin in the rounds that follow, at 3 workers.
func TestFadedDeliverToKeepsStreamAligned(t *testing.T) {
	const n = 120
	const untouched = -7
	d, p, _ := randomGeometry(t, 13, n, 0)
	full, err := NewRayleigh(p, d.Points, 3)
	if err != nil {
		t.Fatal(err)
	}
	subset, err := NewRayleigh(p, d.Points, 3)
	if err != nil {
		t.Fatal(err)
	}
	subset.setWorkers(3)
	rng := xrand.New(14)
	want, got := make([]int, n), make([]int, n)
	span := func(lo, hi int) []int {
		var out []int
		for v := lo; v < hi; v++ {
			out = append(out, v)
		}
		return out
	}
	for round := 0; round < 16; round++ {
		tx := randomTx(rng, n, 0.15)
		var list []int
		switch round {
		case 10:
			list = span(n/3, n) // a leading gap
		case 11:
			list = span(0, 2*n/3) // a trailing gap
		case 12:
			list = span(40, 80) // both
		case 13:
			for v, on := range tx {
				if on {
					list = append(list, v)
				}
			}
		default:
			list = randomListeners(rng, n, round%5)
		}
		full.Deliver(tx, want)
		for v := range got {
			got[v] = untouched
		}
		subset.DeliverTo(tx, list, got)
		checkListed(t, fmt.Sprintf("round %d (%d listeners)", round, len(list)), got, want, list, untouched)
	}
}

// checkListed requires got to equal want at every listed listener and to
// hold untouched at every other one.
func checkListed(t *testing.T, label string, got, want, list []int, untouched int) {
	t.Helper()
	listed := make([]bool, len(got))
	for _, v := range list {
		listed[v] = true
	}
	for v := range got {
		switch {
		case listed[v] && got[v] != want[v]:
			t.Fatalf("%s: listener %d decoded %d, Deliver %d", label, v, got[v], want[v])
		case !listed[v] && got[v] != untouched:
			t.Fatalf("%s: unlisted listener %d was overwritten with %d", label, v, got[v])
		}
	}
}

// fadedDeliverToInput is one input of FuzzFadedDeliverTo.
type fadedDeliverToInput struct {
	seed                               uint64
	size, rounds, density, listen, sel uint8
	raw                                []byte
}

// fadedDeliverToSeeds are FuzzFadedDeliverTo's seed inputs. The sixth to
// eighth have rounds of more than certSmallTx transmitters, whose
// listeners walk the certificate's grid; the eighth has coincident points.
// The last three list two tiles' worth of listeners or more (sel&32), at 3
// workers and at 1: small rounds, whose listeners bracket every fade, and
// rounds that walk.
var fadedDeliverToSeeds = []fadedDeliverToInput{
	{1, 60, 3, 40, 128, 0, nil},
	{2, 200, 5, 10, 30, 1, nil},
	{3, 1, 0, 255, 255, 2, nil},
	{4, 90, 2, 120, 0, 3, nil},
	{5, 12, 4, 90, 200, 4, []byte{1, 0, 1, 0, 1, 0, 1, 0, 2, 0, 2, 0, 3, 128, 0, 0, 1, 0, 1, 0}},
	{6, 200, 3, 100, 200, 5, nil},
	{7, 255, 2, 150, 120, 22, nil},
	{8, 180, 2, 130, 255, 9, []byte{1, 0, 1, 0, 1, 0, 1, 0, 5, 0, 5, 0, 5, 0, 5, 0, 9, 64, 2, 0, 9, 64, 2, 0}},
	{9, 40, 1, 3, 200, 16 | 32 | 4, nil},
	{10, 40, 1, 8, 200, 16 | 32 | 5, nil},
	{11, 40, 1, 8, 220, 32 | 7, nil},
}

// FuzzFadedDeliverTo: on fuzzer-built point sets (coordinates read from the
// input on a 1/256 grid, so coincident points come easily, or a uniform
// square, padded for sel&32 with a row-major lattice of 2·deliverTile
// nodes, so consecutive listeners share grid cells and the tiles of a
// round's list start mid-cell and mid-stream), a faded channel's DeliverTo,
// at 3 workers for sel&16, over a random listener mask decodes,
// round after round, what a twin channel's Deliver decodes at every listed
// listener and leaves every other entry untouched: its jumps keep the fade
// stream aligned with the twin's. Both take the bracketed pass, on the
// certificate's walk in rounds of more than certSmallTx transmitters, so
// every listed listener is also held to an observed twin's Deliver, which
// sums every listener exactly.
func FuzzFadedDeliverTo(f *testing.F) {
	for _, in := range fadedDeliverToSeeds {
		f.Add(in.seed, in.size, in.rounds, in.density, in.listen, in.sel, in.raw)
	}
	f.Fuzz(func(t *testing.T, seed uint64, size, rounds, density, listen, sel uint8, raw []byte) {
		checkFadedDeliverTo(t, fadedDeliverToInput{seed, size, rounds, density, listen, sel, raw})
	})
}

// TestFadedDeliverToSeedsReachTheWalk: FuzzFadedDeliverTo's seeds hold
// listeners settled on the certificate's walk to the twins, not only
// listeners that bracket every fade.
func TestFadedDeliverToSeedsReachTheWalk(t *testing.T) {
	walked0 := mFadedWalked.Load()
	for _, in := range fadedDeliverToSeeds {
		checkFadedDeliverTo(t, in)
	}
	if mFadedWalked.Load() == walked0 {
		t.Error("no seed of FuzzFadedDeliverTo settled a listener on the walk")
	}
}

// checkFadedDeliverTo is FuzzFadedDeliverTo's check of one input.
func checkFadedDeliverTo(t *testing.T, in fadedDeliverToInput) {
	t.Helper()
	n := 1 + int(in.size)
	if in.sel&32 != 0 {
		n += 2 * deliverTile
	}
	rng := xrand.New(in.seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		switch j := i - 1 - int(in.size); {
		case 4*i+4 <= len(in.raw):
			b := in.raw[4*i : 4*i+4]
			pts[i] = geom.Point{X: float64(int8(b[0])) + float64(b[1])/256, Y: float64(int8(b[2])) + float64(b[3])/256}
		case j >= 0:
			pts[i] = geom.Point{X: 0.3 * (float64(j%64) + rng.Float64()/2), Y: 0.3 * (float64(j/64) + rng.Float64()/2)}
		default:
			pts[i] = geom.Point{X: 20 * rng.Float64(), Y: 20 * rng.Float64()}
		}
	}
	alphas := []float64{2.5, 3, 4}
	betas := []float64{0.5, 1, 1.5}
	p := Params{Alpha: alphas[int(in.sel)%len(alphas)], Beta: betas[int(in.sel/4)%len(betas)], Noise: 1e-3, Power: 1}
	full, err := NewRayleigh(p, pts, in.seed)
	if err != nil {
		t.Fatal(err)
	}
	listed, err := NewRayleigh(p, pts, in.seed)
	if err != nil {
		t.Fatal(err)
	}
	if in.sel&16 != 0 {
		listed.setWorkers(3)
	}
	observed, err := NewRayleigh(p, pts, in.seed)
	if err != nil {
		t.Fatal(err)
	}
	observed.SetObserver(fullSum{})
	const untouched = -7
	want, got, exact := make([]int, n), make([]int, n), make([]int, n)
	for round := 0; round <= int(in.rounds)%6; round++ {
		tx := randomTx(rng, n, float64(in.density)/255)
		var list []int
		for v := range n {
			if rng.IntN(255) < int(in.listen) {
				list = append(list, v)
			}
		}
		full.Deliver(tx, want)
		observed.Deliver(tx, exact)
		for v := range got {
			got[v] = untouched
		}
		listed.DeliverTo(tx, list, got)
		checkListed(t, fmt.Sprintf("round %d", round), got, want, list, untouched)
		checkListed(t, fmt.Sprintf("round %d, against the exact sum", round), got, exact, list, untouched)
	}
}

// TestDeliveryCounters: every Deliver moves the sinr.deliveries metric,
// sinr.deliveries_parallel counts the rounds whose pass one spans two
// tiles or more, whatever the worker count, sinr.listeners sums the
// listeners each call evaluated, the listed ones on a faded channel too,
// sinr.fades_drawn (summed over a round's tiles) and sinr.fades_skipped
// (added once per round) split a faded round's stream between the listed
// listeners and everyone else, and every listed listener of a faded round
// is either settled by brackets (sinr.faded_certified) or replayed
// (sinr.faded_fallbacks), unless an observer keeps it on the exact sum.
// Every count is exact, and the same at 1 worker and at 3, over rounds of
// 24 nodes and rounds of more than deliverTile listeners.
func TestDeliveryCounters(t *testing.T) {
	d, p, tx := randomGeometry(t, 41, 24, 0.3)
	recv := make([]int, 24)
	m, listening := int64(countTx(tx)), int64(0)
	for _, v := range []int{1, 2, 3} {
		if !tx[v] {
			listening++
		}
	}
	if m == 0 || listening == 0 {
		t.Fatalf("%d transmitters, %d listening listed nodes: the faded round draws nothing", m, listening)
	}
	// A 47-wide lattice: 2209 nodes, every 22nd transmitting, so the
	// round is certified and its listeners span two tiles.
	const side = 47
	pts := gridPoints(side)
	pl := gridParams(3, 1.5, 1, side)
	nl := int64(len(pts))
	txl := make([]bool, nl)
	var list []int
	for v := range txl {
		txl[v] = v%22 == 0
		if v%40 != 0 {
			list = append(list, v)
		}
	}
	recvl := make([]int, nl)
	ml, listeningl := int64(countTx(txl)), int64(0)
	for _, v := range list {
		if !txl[v] {
			listeningl++
		}
	}
	if ml <= certSmallTx || nl-ml <= deliverTile || int64(len(list)) <= deliverTile {
		t.Fatalf("%d transmitters, %d listeners, %d listed: the large rounds must be certified and span two tiles", ml, nl-ml, len(list))
	}
	must := func(c *Channel, err error) *Channel {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, w := range []int{1, 3} {
		exact := atWorkers(must(New(p, d.Points)), w)
		faded := atWorkers(must(NewRayleigh(p, d.Points, 2)), w)
		exactL := atWorkers(must(New(pl, pts)), w)
		fadedL := atWorkers(must(NewRayleigh(pl, pts, 2)), w)
		total0, par0, listeners0 := mDeliveries.Load(), mDeliveriesParallel.Load(), mListeners.Load()
		drawn0, skipped0 := mFadesDrawn.Load(), mFadesSkipped.Load()
		settled0, replayed0 := mFadedCertified.Load(), mFadedFallbacks.Load()
		exact.Deliver(tx, recv)
		exact.Deliver(tx, recv)
		exact.DeliverTo(tx, []int{1, 5, 9}, recv)
		faded.DeliverTo(tx, []int{1, 2, 3}, recv)
		exactL.Deliver(txl, recvl)
		fadedL.Deliver(txl, recvl)
		fadedL.DeliverTo(txl, list, recvl)
		for _, c := range []struct {
			name      string
			got, want int64
		}{
			{"sinr.deliveries", mDeliveries.Load() - total0, 7},
			{"sinr.deliveries_parallel", mDeliveriesParallel.Load() - par0, 3},
			{"sinr.listeners", mListeners.Load() - listeners0, 2*24 + 3 + 3 + 2*nl + int64(len(list))},
			{"sinr.fades_drawn", mFadesDrawn.Load() - drawn0, m*listening + ml*(nl-ml) + ml*listeningl},
			{"sinr.fades_skipped", mFadesSkipped.Load() - skipped0, m*(24-m-listening) + ml*(nl-ml-listeningl)},
			{"sinr.faded_certified + sinr.faded_fallbacks",
				mFadedCertified.Load() - settled0 + mFadedFallbacks.Load() - replayed0, listening + nl - ml + listeningl},
		} {
			if c.got != c.want {
				t.Errorf("%d workers: %s delta = %d, want %d", w, c.name, c.got, c.want)
			}
		}
		observed := must(NewRayleigh(p, d.Points, 2))
		observed.SetObserver(fullSum{})
		settled0, replayed0 = mFadedCertified.Load(), mFadedFallbacks.Load()
		observed.DeliverTo(tx, []int{1, 2, 3}, recv)
		if got := mFadedCertified.Load() - settled0 + mFadedFallbacks.Load() - replayed0; got != 0 {
			t.Errorf("%d workers: an observed round moved sinr.faded_certified + sinr.faded_fallbacks by %d, want 0", w, got)
		}
	}
}
