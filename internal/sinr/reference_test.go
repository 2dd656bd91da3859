package sinr

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"fadingcr/internal/geom"
	"fadingcr/internal/xrand"
)

// The independent Eq. (1) reference. referenceDeliver shares no code with
// the engine: it evaluates the paper's equation literally for every
// listener and every transmitter, with math.Hypot distances and math.Pow
// path loss, and sums in ascending transmitter order. Its floats therefore
// differ from the engine's in the last bits, so a listener whose reference
// SINR lies within refBand (relative) of β — or whose two strongest signals
// tie within refBand without being equal — is exempt from comparison; the
// tests report how many were exempt (0 is expected). An exact tie in the
// reference's arithmetic is a tie of distances and powers (a lattice's
// equidistant neighbours), which the engine sees as exactly too, so the
// lower index decodes in both and it is compared, not exempt.
const refBand = 1e-9

// refOutcome is the reference's verdict at one listener.
type refOutcome struct {
	from   int     // decoded transmitter, −1 if none
	sinr   float64 // SINR of the strongest transmitter; NaN if none
	total  float64 // Σ of every transmitter's signal at the listener
	exempt bool    // too close to β, or a near tie, to judge
}

// refFades returns, for one round, the fade draw function of listener v, or
// nil for the unfaded channel. A faded channel draws every fade of the
// round from one generator seeded Split(seed, round), listener by listener;
// the reference visits every listener, so it draws them all in turn.
type refFades func(v int) func() float64

func singleStreamFades(seed, round uint64) refFades {
	rng := xrand.New(xrand.Split(seed, round))
	draw := func() float64 { return -math.Log(1 - rng.Float64()) }
	return func(int) func() float64 { return draw }
}

// refSignal is P_u/d(u,v)^α, written as in the paper.
func refSignal(p Params, pts []geom.Point, powers []float64, u, v int) float64 {
	dist := math.Hypot(pts[u].X-pts[v].X, pts[u].Y-pts[v].Y)
	return powers[u] * math.Pow(dist, -p.Alpha)
}

// referenceDeliver is one round of Eq. (1): listener v decodes the
// strongest transmitter u (the first in ascending index on exact ties) iff
// P_u/d(u,v)^α / (N + Σ_{w≠u} P_w/d(w,v)^α) ≥ β — only the strongest can
// clear β if any does, since the ratio grows with the signal.
func referenceDeliver(p Params, pts []geom.Point, powers []float64, tx []bool, fades refFades) []refOutcome {
	out := make([]refOutcome, len(pts))
	for v := range pts {
		out[v] = refOutcome{from: -1, sinr: math.NaN()}
		if tx[v] {
			continue
		}
		var draw func() float64
		if fades != nil {
			draw = fades(v)
		}
		var ids []int
		var sig []float64
		for u := range pts {
			if !tx[u] {
				continue
			}
			s := refSignal(p, pts, powers, u, v)
			if draw != nil {
				s *= draw()
			}
			ids = append(ids, u)
			sig = append(sig, s)
		}
		if len(ids) == 0 {
			continue
		}
		best, second := 0, -1
		for i := 1; i < len(sig); i++ {
			if sig[i] > sig[best] {
				best, second = i, best
			} else if second < 0 || sig[i] > sig[second] {
				second = i
			}
		}
		interference, total := 0.0, 0.0
		for i, s := range sig {
			total += s
			if i != best {
				interference += s
			}
		}
		o := &out[v]
		o.sinr = sig[best] / (p.Noise + interference)
		o.total = total
		if o.sinr >= p.Beta {
			o.from = ids[best]
		}
		o.exempt = math.Abs(o.sinr-p.Beta) <= refBand*p.Beta ||
			(o.sinr >= p.Beta*(1-refBand) && second >= 0 && sig[second] != sig[best] && sig[second] >= sig[best]*(1-refBand))
	}
	return out
}

// refCase is one randomized configuration of the differential tests.
type refCase struct {
	label  string
	p      Params
	pts    []geom.Point
	powers []float64
	hetero bool
}

// newRefCases returns the uniform-power and heterogeneous-power cases of one
// parameter set over a random uniform-disk deployment of size n.
func newRefCases(t *testing.T, seed uint64, n int, alpha, beta, noise float64) [2]refCase {
	t.Helper()
	d, err := geom.UniformDisk(seed, n)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Alpha: alpha, Beta: beta, Noise: noise}
	p.Power = MinSingleHopPower(alpha, beta, noise, d.R, DefaultSingleHopMargin)
	rng := xrand.New(seed + 1)
	hetero := make([]float64, n)
	for i := range hetero {
		hetero[i] = p.Power * (0.5 + rng.Float64())
	}
	label := fmt.Sprintf("n=%d α=%v β=%v N=%v", n, alpha, beta, noise)
	return [2]refCase{
		{label + " uniform", p, d.Points, UniformPowers(n, p.Power), false},
		{label + " hetero", p, d.Points, hetero, true},
	}
}

// refCases sweeps α ∈ {2, 2.5, 3, 4, 6} (on and off the attenuation fast
// paths), β ∈ {0.5, 1, 1.5}, N ∈ {0, 1}, and uniform and heterogeneous
// powers, each over its own random deployment of size n.
func refCases(t *testing.T, seed uint64, n int) []refCase {
	t.Helper()
	var out []refCase
	for _, alpha := range []float64{2, 2.5, 3, 4, 6} {
		for _, beta := range []float64{0.5, 1, 1.5} {
			for _, noise := range []float64{0, 1} {
				seed = xrand.Split(seed, 1)
				cs := newRefCases(t, seed, n, alpha, beta, noise)
				out = append(out, cs[:]...)
			}
		}
	}
	return out
}

// build returns the case's channel: uniform powers through New, the paper's
// constructor, and heterogeneous ones through NewWithPowers.
func (rc refCase) build(t *testing.T) *Channel {
	t.Helper()
	var c *Channel
	var err error
	if rc.hetero {
		c, err = NewWithPowers(rc.p, rc.pts, rc.powers)
	} else {
		c, err = New(rc.p, rc.pts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// buildFaded returns the case's faded channel (uniform powers only, as
// NewRayleigh builds them).
func (rc refCase) buildFaded(t *testing.T, seed uint64) *Channel {
	t.Helper()
	c, err := NewRayleigh(rc.p, rc.pts, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// compareExact requires recv to equal the reference at every non-exempt
// listener and returns the number of exempt listeners.
func compareExact(t *testing.T, label string, recv []int, ref []refOutcome) int {
	t.Helper()
	exempt := 0
	for v, o := range ref {
		if o.exempt {
			exempt++
			continue
		}
		if recv[v] != o.from {
			t.Fatalf("%s listener %d: engine decoded %d, Eq. (1) reference %d (reference SINR %v)",
				label, v, recv[v], o.from, o.sinr)
		}
	}
	return exempt
}

// compareListed is compareExact over the listed listeners only; every
// other entry of recv must still hold untouched.
func compareListed(t *testing.T, label string, recv []int, ref []refOutcome, listeners []int, untouched int) int {
	t.Helper()
	listed := make([]bool, len(recv))
	for _, v := range listeners {
		listed[v] = true
	}
	exempt := 0
	for v, o := range ref {
		switch {
		case !listed[v]:
			if recv[v] != untouched {
				t.Fatalf("%s: unlisted listener %d was overwritten with %d", label, v, recv[v])
			}
		case o.exempt:
			exempt++
		case recv[v] != o.from:
			t.Fatalf("%s listener %d: engine decoded %d, Eq. (1) reference %d (reference SINR %v)",
				label, v, recv[v], o.from, o.sinr)
		}
	}
	return exempt
}

// randomListeners returns an ascending listener list over n nodes: kind 0
// lists none, 1 a single random node, 2 every node, 3 and 4 each node with
// probability 0.1 and 0.6.
func randomListeners(rng *rand.Rand, n, kind int) []int {
	switch kind {
	case 0:
		return []int{}
	case 1:
		return []int{rng.IntN(n)}
	}
	density := map[int]float64{2: 1, 3: 0.1, 4: 0.6}[kind]
	var out []int
	for v := 0; v < n; v++ {
		if density == 1 || rng.Float64() < density {
			out = append(out, v)
		}
	}
	return out
}

// refFadeSeed seeds every faded channel of the differential tests.
const refFadeSeed = 77

// refVariant is one engine configuration judged against the reference;
// fade, when non-nil, gives the reference the channel's fade rule.
type refVariant struct {
	name string
	ch   *Channel
	fade func(round uint64) refFades
}

// exactVariants are the case's unfaded engines: at 1 worker and tiled over
// 3.
func exactVariants(t *testing.T, rc refCase) []refVariant {
	t.Helper()
	return []refVariant{
		{name: "workers=1", ch: atWorkers(rc.build(t), 1)},
		{name: "workers=3", ch: atWorkers(rc.build(t), 3)},
	}
}

// singleStream gives the reference the faded channels' one fade stream.
func singleStream(round uint64) refFades { return singleStreamFades(refFadeSeed, round) }

// fadedVariants are the case's faded engines: at the worker count the
// channel picks itself, at 1 worker and tiled over 3, all on the one fade
// stream.
func fadedVariants(t *testing.T, rc refCase) []refVariant {
	t.Helper()
	return []refVariant{
		{"faded", rc.buildFaded(t, refFadeSeed), singleStream},
		{"faded workers=1", atWorkers(rc.buildFaded(t, refFadeSeed), 1), singleStream},
		{"faded workers=3", atWorkers(rc.buildFaded(t, refFadeSeed), 3), singleStream},
	}
}

// matchReference runs every variant of the selected cases — the α/β/N
// sweep at n ∈ {2, 17, 90}, then one case of n > 2·deliverTile, so three
// listener tiles run concurrently at workers=3 and the single fade stream
// crosses tile boundaries — over random transmitter sets, and requires
// each to decode exactly what the reference decodes.
func matchReference(t *testing.T, hetero bool, variantsFor func(*testing.T, refCase) []refVariant) {
	t.Helper()
	listeners, exempt := 0, 0
	rng := xrand.New(5)
	run := func(rc refCase, densities ...float64) {
		n := len(rc.pts)
		recv := make([]int, n)
		variants := variantsFor(t, rc)
		for round, density := range densities {
			tx := randomTx(rng, n, density)
			var unfaded []refOutcome
			for _, vt := range variants {
				var ref []refOutcome
				if vt.fade == nil {
					if unfaded == nil {
						unfaded = referenceDeliver(rc.p, rc.pts, rc.powers, tx, nil)
					}
					ref = unfaded
				} else {
					ref = referenceDeliver(rc.p, rc.pts, rc.powers, tx, vt.fade(uint64(round)))
				}
				vt.ch.Deliver(tx, recv)
				listeners += n
				exempt += compareExact(t, fmt.Sprintf("%s %s round %d", rc.label, vt.name, round), recv, ref)
			}
		}
	}
	for i, n := range []int{2, 17, 90} {
		for _, rc := range refCases(t, uint64(100+i), n) {
			if rc.hetero == hetero {
				run(rc, 0.05, 0.2, 0.5)
			}
		}
	}
	for _, rc := range newRefCases(t, 9, 2*deliverTile+400, 3, 1.5, 1) {
		if rc.hetero == hetero {
			run(rc, 0.01, 0.03)
		}
	}
	t.Logf("%d listener-rounds compared, %d exempt (within %g of β or tied)", listeners, exempt, refBand)
}

// TestDeliverMatchesReferenceUniform: the exact engine at uniform power —
// the paper's channel, built by New — sequential and tiled over 3 workers,
// decodes exactly what the literal Eq. (1) reference decodes.
func TestDeliverMatchesReferenceUniform(t *testing.T) {
	matchReference(t, false, exactVariants)
}

// TestDeliverMatchesReferencePowers: the same for heterogeneous per-node
// powers (NewWithPowers), which the reference weighs as P_u/d(u,v)^α.
func TestDeliverMatchesReferencePowers(t *testing.T) {
	matchReference(t, true, exactVariants)
}

// TestDeliverMatchesReferenceFaded: the faded channel (NewRayleigh) decodes
// what the reference decodes when it draws the same fades — one stream per
// round, at any worker count.
func TestDeliverMatchesReferenceFaded(t *testing.T) {
	matchReference(t, false, fadedVariants)
}

// TestDeliverToMatchesReference: DeliverTo over ascending listener lists —
// empty, a single node, every node, sparse and dense random ones — decodes
// at every listed listener what the literal Eq. (1) reference decodes and
// leaves every other entry of recv untouched, for uniform and per-node
// powers, sequential and tiled over 3 workers, and for faded channels built
// with 1 or 3 workers, which jump their one fade stream over the unlisted
// listeners' draws. The n > 2·deliverTile case spans several tiles of list
// positions.
func TestDeliverToMatchesReference(t *testing.T) {
	const untouched = -7
	listeners, exempt := 0, 0
	rng := xrand.New(6)
	run := func(rc refCase, densities []float64, kinds []int) {
		n := len(rc.pts)
		var variants []refVariant
		for _, w := range []int{1, 3} {
			variants = append(variants, refVariant{fmt.Sprintf("workers=%d", w), atWorkers(rc.build(t), w), nil})
			if !rc.hetero {
				variants = append(variants, refVariant{fmt.Sprintf("faded workers=%d", w),
					atWorkers(rc.buildFaded(t, refFadeSeed), w), singleStream})
			}
		}
		recv := make([]int, n)
		for round, density := range densities {
			tx := randomTx(rng, n, density)
			list := randomListeners(rng, n, kinds[round%len(kinds)])
			unfaded := referenceDeliver(rc.p, rc.pts, rc.powers, tx, nil)
			for _, vt := range variants {
				ref := unfaded
				if vt.fade != nil {
					ref = referenceDeliver(rc.p, rc.pts, rc.powers, tx, vt.fade(uint64(round)))
				}
				for v := range recv {
					recv[v] = untouched
				}
				vt.ch.DeliverTo(tx, list, recv)
				label := fmt.Sprintf("%s %s round %d (%d listeners)", rc.label, vt.name, round, len(list))
				listeners += len(list)
				exempt += compareListed(t, label, recv, ref, list, untouched)
			}
		}
	}
	for i, n := range []int{2, 17, 90} {
		for _, rc := range refCases(t, uint64(200+i), n) {
			run(rc, []float64{0.05, 0.2, 0.5, 0.2, 0.2}, []int{0, 1, 2, 3, 4})
		}
	}
	for _, rc := range newRefCases(t, 10, 2*deliverTile+400, 3, 1.5, 1) {
		run(rc, []float64{0.01, 0.03}, []int{2, 4})
	}
	t.Logf("%d listed listener-rounds compared, %d exempt (within %g of β or tied)", listeners, exempt, refBand)
}

// TestCertifiedMatchesReference: in rounds with more than certSmallTx
// transmitters — the rounds whose listeners the exact engine certifies from
// a few grid rings — every engine decodes what the literal Eq. (1)
// reference decodes: over a uniform disk, a lattice (equal distances,
// exact ties), clusters and an exponential chain; the α ∈ {2, 2.5, 3, 4,
// 6}, β ∈ {0.5, 1, 1.5, 4}, N ∈ {0, 1, 10⁶} grid; uniform and per-node
// powers; sequential and over 3 workers; through Deliver and through
// DeliverTo over ascending subsets. The shapes subtest holds every grid
// shape a round can pick to the reference too.
func TestCertifiedMatchesReference(t *testing.T) {
	t.Run("shapes", certifiedShapesMatchReference)
	const n = 300
	const untouched = -7
	listeners, exempt := 0, 0
	certified0 := mCertifiedListeners.Load()
	rng := xrand.New(13)
	for i, cd := range certDeployments(t, 50, n) {
		for j, rc := range certCases(cd, uint64(60+i)) {
			tx := denseTx(t, rng, n, []float64{0.25, 0.5}[j%2])
			ref := referenceDeliver(rc.p, rc.pts, rc.powers, tx, nil)
			list := randomListeners(rng, n, 4)
			recv := make([]int, n)
			for _, vt := range exactVariants(t, rc) {
				vt.ch.Deliver(tx, recv)
				listeners += n
				exempt += compareExact(t, fmt.Sprintf("%s %s", rc.label, vt.name), recv, ref)
				for v := range recv {
					recv[v] = untouched
				}
				vt.ch.DeliverTo(tx, list, recv)
				listeners += len(list)
				exempt += compareListed(t, fmt.Sprintf("%s %s (%d listeners)", rc.label, vt.name, len(list)), recv, ref, list, untouched)
			}
		}
	}
	certified := mCertifiedListeners.Load() - certified0
	if certified == 0 {
		t.Error("the certificate decided no listener; the cases do not exercise it")
	}
	t.Logf("%d listener-rounds compared in certified rounds, %d certified, %d exempt (within %g of β or tied)",
		listeners, certified, exempt, refBand)
}

// certifiedShapesMatchReference: on a 5120-node disk (uniform powers) and
// an exponential chain (per-node powers), rounds of certSmallTx+1 up to
// n/5 transmitters pick every grid shape their counts can pick, and in
// each every engine, sequential and over 3 workers, decodes what the
// literal Eq. (1) reference decodes, through Deliver and through DeliverTo
// over a random ascending list.
func certifiedShapesMatchReference(t *testing.T) {
	const n = 5120
	const untouched = -7
	rng := xrand.New(17)
	listeners, exempt := 0, 0
	certified0 := mCertifiedListeners.Load()
	for i, cd := range shapeDeployments(t, 51, n) {
		n := cd.d.N()
		p := Params{Alpha: 3, Beta: 1.5, Noise: 1}
		p.Power = MinSingleHopPower(p.Alpha, p.Beta, p.Noise, cd.d.R, DefaultSingleHopMargin)
		rc := refCase{cd.name + " uniform", p, cd.d.Points, UniformPowers(n, p.Power), false}
		if i == 1 {
			rc.hetero, rc.label = true, cd.name+" per-node"
			for u := range rc.powers {
				rc.powers[u] = p.Power * math.Pow(10, 2*rng.Float64()-1)
			}
		}
		variants := exactVariants(t, rc)
		recv := make([]int, n)
		for _, tx := range shapeRounds(t, variants[0].ch, rng, n/5) {
			ref := referenceDeliver(rc.p, rc.pts, rc.powers, tx, nil)
			list := randomListeners(rng, n, 4)
			for _, vt := range variants {
				label := fmt.Sprintf("%s %s, %d transmitters", rc.label, vt.name, countTx(tx))
				vt.ch.Deliver(tx, recv)
				listeners += n
				exempt += compareExact(t, label, recv, ref)
				for v := range recv {
					recv[v] = untouched
				}
				vt.ch.DeliverTo(tx, list, recv)
				listeners += len(list)
				exempt += compareListed(t, label+" DeliverTo", recv, ref, list, untouched)
			}
		}
	}
	certified := mCertifiedListeners.Load() - certified0
	if certified == 0 {
		t.Error("the certificate decided no listener; the cases do not exercise it")
	}
	t.Logf("%d listener-rounds compared over every shape, %d certified, %d exempt (within %g of β or tied)",
		listeners, certified, exempt, refBand)
}
