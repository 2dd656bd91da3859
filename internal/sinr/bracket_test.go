package sinr

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"fadingcr/internal/geom"
	"fadingcr/internal/xrand"
)

// TestFadeBracketContainsLog: fadeBracket's lo ≤ −math.Log(x) ≤ hi at
// x = 1 and x = 2⁻⁵³, the ends of the draw range; at both ends of every
// table cell at every exponent a draw reaches, and at their float
// neighbours; and at 10⁶ random draws, half of them 1 − Float64 as the
// fade stream takes them and half j·2⁻⁵³ with j spread log-uniformly, so
// that every exponent is hit.
func TestFadeBracketContainsLog(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		lo, hi := fadeBracket(x)
		if h := -math.Log(x); !(lo <= h && h <= hi) {
			t.Fatalf("x = %v (%#x): bracket [%v, %v] misses −math.Log(x) = %v", x, math.Float64bits(x), lo, hi, h)
		}
	}
	check(1)
	check(0x1p-53)
	for e := -53; e <= -1; e++ {
		for i := 0; i <= 1<<fadeBits; i++ {
			edge := math.Ldexp(1+float64(i)/(1<<fadeBits), e)
			for _, x := range []float64{math.Nextafter(edge, 0), edge, math.Nextafter(edge, 2)} {
				if x >= 0x1p-53 && x <= 1 {
					check(x)
				}
			}
		}
	}
	rng := xrand.NewReseedable(1)
	for range 500_000 {
		check(1 - rng.Float64())
	}
	for range 500_000 {
		j := rng.Uint64()>>(11+rng.Uint64()%53) + 1
		check(float64(j) * 0x1p-53)
	}
}

// TestFadeBracketUpperEndIsMonotone: walkFaded caps every fade of a
// listener at the upper bracket of its smallest x, which holds only if
// fadeBracket's upper end never grows with x. Check it between every pair
// of neighbouring table cells at every exponent a draw reaches, across
// every binade boundary, and at 10⁶ sorted random draws.
func TestFadeBracketUpperEndIsMonotone(t *testing.T) {
	var xs []float64
	for e := -53; e <= -1; e++ {
		for i := 0; i <= 1<<fadeBits; i++ {
			edge := math.Ldexp(1+float64(i)/(1<<fadeBits), e)
			xs = append(xs, math.Nextafter(edge, 0), edge)
		}
	}
	rng := xrand.NewReseedable(2)
	for range 1_000_000 {
		xs = append(xs, 1-rng.Float64())
	}
	xs = append(xs, 0x1p-53, 1)
	slices.Sort(xs)
	for i := 1; i < len(xs); i++ {
		_, a := fadeBracket(xs[i-1])
		_, b := fadeBracket(xs[i])
		if b > a {
			t.Fatalf("x = %v < %v, but the upper ends are %v < %v", xs[i-1], xs[i], a, b)
		}
	}
}

// expFade draws a unit-mean exponential fade the literal way, by
// inverse-CDF sampling of the stream's next Float64 (1 − U avoids log(0)):
// the reference for the fades the engine computes from its kept draws.
func expFade(rng *xrand.Reseedable) float64 {
	return -math.Log(1 - rng.Float64())
}

// TestDrawFadesCapsEveryFade: drawFades keeps the stream's draws in
// order, each giving x = 1 − U through drawX, and its cap bounds every fade
// the kernel computes from them, −math.Log(x) as expFade takes it, within
// one table cell of the largest: unseen transmitters on a faded walk are
// capped by it.
func TestDrawFadesCapsEveryFade(t *testing.T) {
	for seed := range uint64(200) {
		us := make([]uint64, 1+int(seed%7)*int(seed%41))
		rng := xrand.NewReseedable(seed)
		replay := *rng
		fadeCap := drawFades(rng, us)
		largest := 0.0
		for i, u := range us {
			at := replay
			if x, want := drawX(u), 1-at.Float64(); x != want {
				t.Fatalf("seed %d draw %d: x = %v, want %v", seed, i, x, want)
			}
			h := expFade(&replay)
			if h > fadeCap {
				t.Fatalf("seed %d draw %d: fade %v above the cap %v", seed, i, h, fadeCap)
			}
			largest = max(largest, h)
		}
		if fadeCap-largest > 0x1p-9 {
			t.Fatalf("seed %d: cap %v, largest fade %v: looser than a table cell", seed, fadeCap, largest)
		}
		if *rng != replay {
			t.Fatalf("seed %d: drawFades left the stream elsewhere than %d draws on", seed, len(us))
		}
	}
}

// literalBracket is a faded listener's full bracket the literal way: draw
// v's fades from rng in ascending transmitter index, bracket each one
// around the unfaded signal g (g·lo ≤ g·fade ≤ g·hi), and sum the ends in
// that order into L and U, keeping the largest upper end T (the first on
// ties), its rank ti and lower end ℓ, and T₂, the largest upper end of the
// others. ties counts the finite upper ends that equalled T when met.
func literalBracket(c *Channel, v int, txList []int, rng *xrand.Reseedable) (lo, hi, top, topLo, second float64, ti, ties int) {
	top, topLo, second, ti = -1, -1, -1, -1
	for i, u := range txList {
		g := c.signal(u, v)
		flo, fhi := fadeBracket(1 - rng.Float64())
		s, t := g*flo, g*fhi
		lo += s
		hi += t
		if t == top && !math.IsInf(t, 1) {
			ties++
		}
		if t > top {
			second, top, topLo, ti = top, t, s, i
		} else if t > second {
			second = t
		}
	}
	return lo, hi, top, topLo, second, ti, ties
}

// TestBracketAllIsTheLiteralBracket: the full bracket is the walk of one
// run over the round's transmitters in ascending index (bracketAll), on
// fades kept by drawFades. Its L, U, T, ℓ, T₂ and T's rank must be
// literalBracket's bit for bit, at α ∈ {2, 2.5, 3, 4, 6} (the in-place
// α = 3 signals and the pre-loop pass) on a disk, on a lattice (exact ties
// in the unfaded signals) and on a lattice whose points lie three to a
// site (infinite signals, which tie at T).
func TestBracketAllIsTheLiteralBracket(t *testing.T) {
	const side = 16
	n := side * side
	disk, err := geom.UniformDisk(12, n)
	if err != nil {
		t.Fatal(err)
	}
	lattice := gridPoints(side)
	stacked := gridPoints(side)
	for i := range stacked {
		stacked[i] = stacked[i-i%3]
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	rng := xrand.New(8)
	compared, ties, infinite := 0, 0, 0
	for _, alpha := range []float64{2, 2.5, 3, 4, 6} {
		for _, layout := range []struct {
			name string
			pts  []geom.Point
		}{{"disk", disk.Points}, {"lattice", lattice}, {"stacked", stacked}} {
			c, err := NewRayleigh(Params{Alpha: alpha, Beta: 1, Noise: 1, Power: 1}, layout.pts, 1)
			if err != nil {
				t.Fatal(err)
			}
			sig := make([]float64, n)
			for _, density := range []float64{0.1, 0.5} {
				tx := randomTx(rng, n, density)
				txList := c.scratch.indices(tx)
				r := deliverRound{tx: tx, txList: txList, nodes: c.gather(c.scratch.txNodes, txList)}
				fades := make([]uint64, len(txList))
				for v := range n {
					if tx[v] {
						continue
					}
					draws := xrand.NewReseedable(uint64(v))
					literal := *draws
					drawFades(draws, fades)
					var w certWalk
					c.bracketAll(&w, v, r, fades, sig)
					lo, hi, top, topLo, second, ti, tied := literalBracket(c, v, txList, &literal)
					if !same(w.lo, lo) || !same(w.hi, hi) || !same(w.top, top) || !same(w.topLo, topLo) || !same(w.second, second) || w.tu != ti {
						t.Fatalf("α=%v %s density %v listener %d: walk L=%v U=%v T=%v ℓ=%v T₂=%v rank %d; literal L=%v U=%v T=%v ℓ=%v T₂=%v rank %d",
							alpha, layout.name, density, v, w.lo, w.hi, w.top, w.topLo, w.second, w.tu, lo, hi, top, topLo, second, ti)
					}
					compared++
					ties += tied
					if math.IsInf(top, 1) {
						infinite++
					}
				}
			}
		}
	}
	if ties == 0 || infinite == 0 {
		t.Fatalf("%d finite upper ends tied T and %d listeners had an infinite T; the cases must have both", ties, infinite)
	}
	t.Logf("%d full brackets compared, %d finite ties at T, %d infinite T", compared, ties, infinite)
}

// fadedTwins returns two channels with the same parameters, points and
// fade seed: the first takes the bracketed pass, the second has a no-op
// observer installed, which keeps every listener on the exact sum.
func fadedTwins(t *testing.T, p Params, pts []geom.Point, seed uint64) (bracketed, exact *Channel) {
	t.Helper()
	bracketed, err := NewRayleigh(p, pts, seed)
	if err != nil {
		t.Fatal(err)
	}
	exact, err = NewRayleigh(p, pts, seed)
	if err != nil {
		t.Fatal(err)
	}
	exact.SetObserver(fullSum{})
	return bracketed, exact
}

// TestFadedBracketsMatchFullSum: a faded channel, whose listeners take the
// bracketed pass, decodes at every listener exactly what the same channel
// and seed decode on the exact sum (a no-op observer installed), bit for
// bit with no exemption: round after round, through Deliver and through
// random ascending DeliverTo lists, over a disk, a lattice (exact ties in
// the unfaded signals), clusters and an exponential chain, α ∈ {2, 2.5, 3,
// 4, 6}, β ∈ {0.5, 1, 1.5, 4} and N ∈ {0, 1, 10⁶}. Rounds of 15 and 60
// transmitters bracket every fade; rounds of 150 walk the certificate's
// grid. Each deployment must have listeners the walk settled, listeners
// the brackets settled and listeners they replayed, or the comparison
// proves nothing. Then the same over lists of two tiles and more, at 1
// worker and at 3 (fadedTilesMatchFullSum).
func TestFadedBracketsMatchFullSum(t *testing.T) {
	fadedTilesMatchFullSum(t)
	const n = 300
	const untouched = -7
	rng := xrand.New(22)
	for i, cd := range certDeployments(t, 32, n) {
		compared := 0
		settled0, walked0, replayed0 := mFadedCertified.Load(), mFadedWalked.Load(), mFadedFallbacks.Load()
		for j, rc := range certCases(cd, uint64(50+i)) {
			if rc.hetero {
				continue // NewRayleigh builds uniform powers only
			}
			bracketed, exact := fadedTwins(t, rc.p, rc.pts, uint64(100*i+j))
			want, got := make([]int, n), make([]int, n)
			for round, density := range []float64{0.05, 0.2, 0.5} {
				tx := randomTx(rng, n, density)
				exact.Deliver(tx, want)
				bracketed.Deliver(tx, got)
				for v := range got {
					if got[v] != want[v] {
						t.Fatalf("%s round %d listener %d: bracketed %d, exact sum %d", rc.label, round, v, got[v], want[v])
					}
				}
				compared += n
				list := randomListeners(rng, n, 3+round%2)
				exact.DeliverTo(tx, list, want)
				for v := range got {
					got[v] = untouched
				}
				bracketed.DeliverTo(tx, list, got)
				checkListed(t, fmt.Sprintf("%s round %d DeliverTo", rc.label, round), got, want, list, untouched)
				compared += len(list)
			}
		}
		settled, replayed := mFadedCertified.Load()-settled0, mFadedFallbacks.Load()-replayed0
		walked := mFadedWalked.Load() - walked0
		if walked == 0 || settled == walked || replayed == 0 {
			t.Errorf("%s: the walk settled %d listeners, the brackets %d in all, and %d were replayed; the cases must have each",
				cd.name, walked, settled, replayed)
		}
		t.Logf("%s: %d listener decisions compared, %d settled by brackets (%d on the walk), %d replayed", cd.name, compared, settled, walked, replayed)
	}
}

// fadedTilesMatchFullSum is TestFadedBracketsMatchFullSum over lists of
// two tiles and more, at 1 worker and at 3: a row-major lattice 65 wide
// (4225 nodes), so a tile starts in the grid cell of the listener before
// it, and mid-stream, at α ∈ {2.5, 3}, in rounds of 40 transmitters, which
// bracket every fade, and of 250, which walk, through Deliver and through
// random DeliverTo lists of about 2500 listeners.
func fadedTilesMatchFullSum(t *testing.T) {
	const side = 65
	const untouched = -7
	pts := gridPoints(side)
	n := len(pts)
	rng := xrand.New(23)
	for _, alpha := range []float64{2.5, 3} {
		p := gridParams(alpha, 1, 1, side)
		for _, w := range []int{1, 3} {
			label := fmt.Sprintf("lattice of %d, α=%v, %d workers", n, alpha, w)
			bracketed, exact := fadedTwins(t, p, pts, 9)
			bracketed.setWorkers(w)
			settled0, walked0 := mFadedCertified.Load(), mFadedWalked.Load()
			midCell := false
			want, got := make([]int, n), make([]int, n)
			for round, m := range []int{40, 250, 40, 250} {
				tx := txCount(rng, n, m)
				list := randomListeners(rng, n, 4)
				for _, deliverTo := range []bool{false, true} {
					for v := range got {
						got[v] = untouched
					}
					full := bracketed.allListeners()
					if deliverTo {
						full = list
						exact.DeliverTo(tx, list, want)
						bracketed.DeliverTo(tx, list, got)
						checkListed(t, fmt.Sprintf("%s round %d DeliverTo", label, round), got, want, list, untouched)
					} else {
						exact.Deliver(tx, want)
						bracketed.Deliver(tx, got)
						checkListed(t, fmt.Sprintf("%s round %d", label, round), got, want, full, untouched)
					}
					if m > certSmallTx {
						cell, stream := tileStarts(bracketed, tx, full)
						if !stream {
							t.Fatalf("%s round %d (DeliverTo %v): a tile starts at the stream's start", label, round, deliverTo)
						}
						midCell = midCell || cell
					}
				}
			}
			settled, walked := mFadedCertified.Load()-settled0, mFadedWalked.Load()-walked0
			if walked == 0 || settled == walked || !midCell {
				t.Errorf("%s: the walk settled %d listeners, the brackets %d in all, a tile started mid-cell: %v; the rounds must have each",
					label, walked, settled, midCell)
			}
		}
	}
}

// thresholdLayout is the threshold tests' deployment: near transmitters
// filling a 6×6 square, and listeners in its centre after them.
func thresholdLayout(near, listeners int) (pts []geom.Point, tx []bool) {
	rng := xrand.New(14)
	n := near + listeners
	pts = make([]geom.Point, n)
	tx = make([]bool, n)
	for i := range pts {
		if i < near {
			pts[i] = geom.Point{X: 6 * rng.Float64(), Y: 6 * rng.Float64()}
			tx[i] = true
		} else {
			pts[i] = geom.Point{X: 2.1 + 1.8*rng.Float64(), Y: 2.1 + 1.8*rng.Float64()}
		}
	}
	return pts, tx
}

// replayRound returns a faded channel over thresholdLayout at α and the
// transmitters of its first round, built as TestFadedBracketsAtThreshold
// builds such rounds: β is the exact sum's ratio at listener near (the
// first listener) in that round, so that listener replays its draws
// through the exact sum. Zeroing the channel's round count before a call
// delivers the same round again.
func replayRound(t *testing.T, alpha float64) (c *Channel, tx []bool, near int) {
	t.Helper()
	const listeners, seed = 20, 5
	near = 400
	pts, tx := thresholdLayout(near, listeners)
	p := Params{Alpha: alpha, Beta: math.SmallestNonzeroFloat64, Noise: 1, Power: 1}
	probe, err := NewRayleigh(p, pts, seed)
	if err != nil {
		t.Fatal(err)
	}
	ratios := ratioObserver{}
	probe.SetObserver(ratios)
	probe.Deliver(tx, make([]int, len(pts)))
	p.Beta = ratios[near]
	if c, err = NewRayleigh(p, pts, seed); err != nil {
		t.Fatal(err)
	}
	return c, tx, near
}

// ratioObserver records the ratio of every reception it sees.
type ratioObserver map[int]float64

func (o ratioObserver) OnReception(v, _ int, sinr, _ float64) { o[v] = sinr }

// TestFadedBracketsAtThreshold puts faded listeners exactly on the SINR
// threshold: β is set to the exact sum's own ratio at a listener, fades
// included, or to a float neighbour of it, so the reception turns on the
// last bit of the kernel's arithmetic. No bracket is that narrow, so the
// listener must be replayed through the exact sum, after its walk and its
// full bracket both gave up, and every listener must decode what the exact
// sum decodes. The round's 400 transmitters put every listener on the walk,
// which must settle some of them. Then the same for listeners in a list's
// second tile, at 1 worker and at 3 (fadedTilesAtThreshold).
func TestFadedBracketsAtThreshold(t *testing.T) {
	fadedTilesAtThreshold(t)
	const near, listeners, seed = 400, 20, 5
	const untouched = -7
	pts, tx := thresholdLayout(near, listeners)
	n := len(pts)
	decisions := 0
	walked0 := mFadedWalked.Load()
	for _, alpha := range []float64{2, 3, 4} {
		for _, noise := range []float64{0, 1} {
			p := Params{Alpha: alpha, Beta: 1, Noise: noise, Power: 1}
			// The exact sum's ratios: at the smallest β every listener with
			// a signal decodes, and the observer sees its ratio.
			probeP := p
			probeP.Beta = math.SmallestNonzeroFloat64
			probe, err := NewRayleigh(probeP, pts, seed)
			if err != nil {
				t.Fatal(err)
			}
			ratios := ratioObserver{}
			probe.SetObserver(ratios)
			probe.Deliver(tx, make([]int, n))
			for v := near; v < n; v++ {
				ratio, ok := ratios[v]
				if !ok {
					t.Fatalf("α=%v N=%v listener %d: no ratio observed", alpha, noise, v)
				}
				for _, beta := range []float64{math.Nextafter(ratio, 0), ratio, math.Nextafter(ratio, math.Inf(1))} {
					q := p
					q.Beta = beta
					label := fmt.Sprintf("α=%v N=%v β=%v (listener %d's ratio or a neighbour)", alpha, noise, beta, v)
					bracketed, exact := fadedTwins(t, q, pts, seed)
					got, want := make([]int, n), make([]int, n)
					bracketed.Deliver(tx, got)
					exact.Deliver(tx, want)
					for w := near; w < n; w++ {
						if got[w] != want[w] {
							t.Fatalf("%s listener %d: bracketed %d, exact sum %d", label, w, got[w], want[w])
						}
					}
					// Alone in a fresh channel's first round, v draws the
					// same fades and must be replayed.
					alone, _ := fadedTwins(t, q, pts, seed)
					replayed0 := mFadedFallbacks.Load()
					got[v] = untouched
					alone.DeliverTo(tx, []int{v}, got)
					if got[v] != want[v] || mFadedFallbacks.Load()-replayed0 != 1 {
						t.Fatalf("%s: listener %d decoded %d (exact sum %d), replayed %d times, want once",
							label, v, got[v], want[v], mFadedFallbacks.Load()-replayed0)
					}
					decisions += listeners
				}
			}
		}
	}
	if mFadedWalked.Load() == walked0 {
		t.Error("the walk settled no listener; the comparison covers only the full bracket")
	}
	t.Logf("%d listener decisions compared, %d settled on the walk", decisions, mFadedWalked.Load()-walked0)
}

// fadedTilesAtThreshold is TestFadedBracketsAtThreshold for listeners in
// the second tile of a list: thresholdLayout's 400 transmitters, then
// deliverTile listeners in the same square, then its 20 listeners, which
// a DeliverTo list of every listener puts in its second tile. That tile
// starts at the first of them, v, whose fades start at stream position
// m·(v − t_v) = 400·(v − 400). At β on the exact sum's ratio of one of the
// first four listeners, or a float neighbour of it, the listener must
// decode what the exact sum decodes, at 1 worker and at 3, and some
// listener of the round must be replayed.
func fadedTilesAtThreshold(t *testing.T) {
	const near, fill, listeners, seed = 400, deliverTile, 20, 5
	pts, tx := thresholdLayout(near+fill, listeners)
	for i := range tx[near : near+fill] {
		tx[near+i] = false
	}
	n := len(pts)
	list := make([]int, 0, n-near)
	for v := near; v < n; v++ {
		list = append(list, v)
	}
	for _, alpha := range []float64{2, 3, 4} {
		for _, noise := range []float64{0, 1} {
			p := Params{Alpha: alpha, Beta: math.SmallestNonzeroFloat64, Noise: noise, Power: 1}
			probe, err := NewRayleigh(p, pts, seed)
			if err != nil {
				t.Fatal(err)
			}
			ratios := ratioObserver{}
			probe.SetObserver(ratios)
			probe.DeliverTo(tx, list, make([]int, n))
			for v := near + fill; v < near+fill+4; v++ {
				ratio, ok := ratios[v]
				if !ok {
					t.Fatalf("α=%v N=%v listener %d: no ratio observed", alpha, noise, v)
				}
				for _, beta := range []float64{math.Nextafter(ratio, 0), ratio, math.Nextafter(ratio, math.Inf(1))} {
					q := p
					q.Beta = beta
					_, exact := fadedTwins(t, q, pts, seed)
					want := make([]int, n)
					exact.DeliverTo(tx, []int{v}, want)
					for _, w := range []int{1, 3} {
						label := fmt.Sprintf("α=%v N=%v β=%v (listener %d's ratio or a neighbour), %d workers", alpha, noise, beta, v, w)
						bracketed, _ := fadedTwins(t, q, pts, seed)
						bracketed.setWorkers(w)
						got := make([]int, n)
						replayed0 := mFadedFallbacks.Load()
						bracketed.DeliverTo(tx, list, got)
						if got[v] != want[v] || mFadedFallbacks.Load() == replayed0 {
							t.Fatalf("%s: listener %d decoded %d (exact sum %d), %d listeners replayed, want at least one",
								label, v, got[v], want[v], mFadedFallbacks.Load()-replayed0)
						}
					}
				}
			}
		}
	}
}

// TestFadedVerdictWithExactBrackets: fadedVerdict's tests hold for any
// brackets around the kernel's computed signals, so they must hold for
// exact ones, lo = hi = the signal, where nothing but the margin η keeps a
// verdict on the kernel's side. With L = U the kernel's own ascending sum,
// T = ℓ its strongest signal and T₂ the strongest of the others, at β set
// to a listener's own ratio or a float neighbour, and at β a relative 2⁻¹⁰
// off it, every verdict the tests reach must be the kernel's; off the
// threshold they must reach some.
func TestFadedVerdictWithExactBrackets(t *testing.T) {
	const near, listeners = 400, 40
	pts, _ := thresholdLayout(near, listeners)
	compared, decided := 0, 0
	for _, alpha := range []float64{2, 3, 4} {
		for _, noise := range []float64{0, 1} {
			p := Params{Alpha: alpha, Beta: 1, Noise: noise, Power: 1}
			probe, err := New(p, pts)
			if err != nil {
				t.Fatal(err)
			}
			for v := near; v < len(pts); v++ {
				// The kernel's floats at v: the ascending sum, the first
				// strict maximum and the strongest of the others.
				total, best, second := 0.0, -1.0, -1.0
				for u := 0; u < near; u++ {
					s := probe.signal(u, v)
					total += s
					if s > best {
						best, second = s, best
					} else if s > second {
						second = s
					}
				}
				ratio := p.SINR(best, total-best)
				// Three βs on the threshold, then two off it.
				for i, beta := range []float64{math.Nextafter(ratio, 0), ratio, math.Nextafter(ratio, math.Inf(1)),
					ratio * (1 - 0x1p-10), ratio * (1 + 0x1p-10)} {
					q := p
					q.Beta = beta
					k, ok := q.fadedVerdict(total, total, best, best, second, 0)
					if decoded, want := k == 0, q.SINR(best, total-best) >= beta; ok && decoded != want {
						t.Fatalf("α=%v N=%v β=%v listener %d: verdict decoded=%v, kernel %v", alpha, noise, beta, v, decoded, want)
					}
					compared++
					if ok && i >= 3 {
						decided++
					}
				}
			}
		}
	}
	if decided == 0 {
		t.Error("no exact-bracket verdict was reached off the threshold; the cases do not exercise the tests")
	}
	t.Logf("%d exact-bracket verdicts compared, %d reached off the threshold", compared, decided)
}

// TestFadedVerdictMarginFollowsUpperSum: the no-reception test's margin η
// covers the rounding of a kernel sum as large as U, so it scales with U,
// not with L. A listener whose lower sum clears the test by less than
// certEps·U is not settled, however far L sits below U; with U close to L
// the same listener is.
func TestFadedVerdictMarginFollowsUpperSum(t *testing.T) {
	p := Params{Alpha: 3, Beta: 1, Noise: 1, Power: 1}
	// T = 1.2 < N + L − T = 1.8, but not once η ≈ certEps·2³⁰ = 1.
	if k, ok := p.fadedVerdict(2, 0x1p30, 1.2, 0, 1.2, 0); ok {
		t.Errorf("L = 2, U = 2³⁰: settled (decoded rank %d), want the margin from U to leave it open", k)
	}
	if k, ok := p.fadedVerdict(2, 2.5, 1.2, 0, 1.2, 0); !ok || k != -1 {
		t.Errorf("L = 2, U = 2.5: decoded rank %d ok=%v, want settled with no reception", k, ok)
	}
}

// TestFadedBracketsKeepTheStrictMaximum: at β = 0.5 a listener can clear β
// from either of two transmitters, and with both at the same distance the
// kernel decodes the one whose fade is larger. When the two fades' brackets
// overlap, the larger upper bound need not belong to the larger fade, so
// only ℓ > T₂ keeps the bracketed verdict on the kernel's sender. Each
// listener sits midway between its own two transmitters, far from every
// other group: 32 groups make rounds of 64 transmitters, which bracket every
// fade, and 100 groups rounds of 200, which walk the certificate's grid.
// The brackets must overlap at some listeners, and every listener must
// decode what the exact sum decodes.
func TestFadedBracketsKeepTheStrictMaximum(t *testing.T) {
	for _, tc := range []struct{ groups, rounds int }{{32, 900}, {100, 300}} {
		pts := make([]geom.Point, 0, 3*tc.groups)
		for k := range tc.groups {
			x := 1000 * float64(k)
			pts = append(pts, geom.Point{X: x - 1}, geom.Point{X: x}, geom.Point{X: x + 1})
		}
		n := len(pts)
		tx := make([]bool, n)
		for v := range n {
			tx[v] = v%3 != 1
		}
		p := Params{Alpha: 3, Beta: 0.5, Noise: 1e-3, Power: 1}
		bracketed, exact := fadedTwins(t, p, pts, 9)
		got, want := make([]int, n), make([]int, n)
		replayed0, walked0 := mFadedFallbacks.Load(), mFadedWalked.Load()
		for round := range tc.rounds {
			bracketed.Deliver(tx, got)
			exact.Deliver(tx, want)
			for v := 1; v < n; v += 3 {
				if got[v] != want[v] {
					t.Fatalf("%d transmitters, round %d listener %d: bracketed %d, exact sum %d", 2*tc.groups, round, v, got[v], want[v])
				}
			}
		}
		replayed, walked := mFadedFallbacks.Load()-replayed0, mFadedWalked.Load()-walked0
		if replayed == 0 {
			t.Errorf("%d transmitters: no listener was replayed in %d listener-rounds; the brackets never overlapped", 2*tc.groups, tc.groups*tc.rounds)
		}
		if onWalk := 2*tc.groups > certSmallTx; (walked > 0) != onWalk {
			t.Errorf("%d transmitters: the walk settled %d listeners, want some: %v", 2*tc.groups, walked, onWalk)
		}
		t.Logf("%d transmitters: %d of %d listener-rounds replayed, %d settled on the walk", 2*tc.groups, replayed, tc.groups*tc.rounds, walked)
	}
}
