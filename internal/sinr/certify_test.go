package sinr

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"fadingcr/internal/geom"
	"fadingcr/internal/xrand"
)

// fullSum is a no-op reception observer. Installing it keeps every listener
// on the full ascending sum, by SetObserver's contract, so a channel with
// it is the certificate's yardstick without a knob.
type fullSum struct{}

func (fullSum) OnReception(int, int, float64, float64) {}

// certDeployment is one deployment shape of the certificate tests.
type certDeployment struct {
	name string
	d    *geom.Deployment
}

// certDeployments returns n-node deployments of the shapes the certificate
// must handle: a uniform disk; a lattice, where many distances are equal
// and signals tie exactly; clusters, dense pockets far apart; and an
// exponential chain, one grid row of pairs at separations 1, 2, 4, ….
func certDeployments(t *testing.T, seed uint64, n int) []certDeployment {
	t.Helper()
	disk, err := geom.UniformDisk(seed, n)
	if err != nil {
		t.Fatal(err)
	}
	lattice, err := geom.PerturbedGrid(seed, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := geom.Clusters(seed, n, 5, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := geom.ExponentialChain(seed, 5, n/10)
	if err != nil {
		t.Fatal(err)
	}
	return []certDeployment{{"disk", disk}, {"lattice", lattice}, {"clusters", clusters}, {"chain", chain}}
}

// certCases sweeps the certificate's parameter grid over a deployment:
// α ∈ {2, 2.5, 3, 4, 6}, β ∈ {0.5, 1, 1.5, 4}, N ∈ {0, 1, 10⁶}, with the
// power that makes N = 1 single-hop feasible (so N = 0 is interference
// only and N = 10⁶ noise-bound), each with uniform powers and with per-node
// powers spread log-uniformly over [P/10, 10·P].
func certCases(cd certDeployment, seed uint64) []refCase {
	var out []refCase
	rng := xrand.New(seed)
	n := cd.d.N()
	for _, alpha := range []float64{2, 2.5, 3, 4, 6} {
		for _, beta := range []float64{0.5, 1, 1.5, 4} {
			for _, noise := range []float64{0, 1, 1e6} {
				p := Params{Alpha: alpha, Beta: beta, Noise: noise}
				p.Power = MinSingleHopPower(alpha, beta, 1, cd.d.R, DefaultSingleHopMargin)
				hetero := make([]float64, n)
				for i := range hetero {
					hetero[i] = p.Power * math.Pow(10, 2*rng.Float64()-1)
				}
				label := fmt.Sprintf("%s n=%d α=%v β=%v N=%v", cd.name, n, alpha, beta, noise)
				out = append(out,
					refCase{label + " uniform", p, cd.d.Points, UniformPowers(n, p.Power), false},
					refCase{label + " per-node", p, cd.d.Points, hetero, true})
			}
		}
	}
	return out
}

// countTx returns the number of transmitters in tx.
func countTx(tx []bool) int {
	m := 0
	for _, t := range tx {
		if t {
			m++
		}
	}
	return m
}

// denseTx returns a transmit mask with more than certSmallTx
// transmitters — a round the certificate runs in — at the given density.
func denseTx(t *testing.T, rng *rand.Rand, n int, density float64) []bool {
	t.Helper()
	for try := 0; try < 100; try++ {
		if tx := randomTx(rng, n, density); countTx(tx) > certSmallTx {
			return tx
		}
	}
	t.Fatalf("no transmit mask with more than %d of %d nodes at density %v", certSmallTx, n, density)
	return nil
}

// txCount returns a transmit mask over n nodes with exactly m transmitters,
// chosen at random.
func txCount(rng *rand.Rand, n, m int) []bool {
	tx := make([]bool, n)
	for _, u := range rng.Perm(n)[:m] {
		tx[u] = true
	}
	return tx
}

// shapeRounds returns transmit masks whose transmitter counts run from
// certSmallTx+1 up to hi and pick, between them, every grid shape c's
// rounds can pick in that range: a round at each end of the range, and for
// each shape with a cell count inside it a round with that many
// transmitters, unless another round already picks the shape.
func shapeRounds(t *testing.T, c *Channel, rng *rand.Rand, hi int) [][]bool {
	t.Helper()
	g := c.certGrid()
	if g == nil {
		t.Fatal("the channel cannot certify")
	}
	lo := certSmallTx + 1
	counts := []int{lo, hi}
	for j := 0; ; j++ {
		cols, rows := g.shapeAt(j)
		if m := cols * rows; lo < m && m < hi {
			counts = append(counts, m)
		}
		if cols == 1 && rows == 1 {
			break
		}
	}
	want, got := map[int]bool{}, map[int]bool{}
	for m := lo; m <= hi; m++ {
		want[g.shapeFor(m)] = true
	}
	var out [][]bool
	for i, m := range counts {
		if j := g.shapeFor(m); i < 2 || !got[j] {
			got[j] = true
			out = append(out, txCount(rng, c.N(), m))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("rounds of %d..%d transmitters pick %d shapes; the masks cover %d", lo, hi, len(want), len(got))
	}
	return out
}

// splitsCell reports whether c's last certified round, over m listeners in
// cell order, split a cell across a deliverTile boundary.
func splitsCell(c *Channel, m int) bool {
	g := c.grid
	for at := deliverTile; at < m; at += deliverTile {
		if g.cellID[g.order[at-1]] == g.cellID[g.order[at]] {
			return true
		}
	}
	return false
}

// shapeDeployments returns the deployments of the shape sweeps: a uniform
// disk of n nodes and an exponential chain of about n.
func shapeDeployments(t *testing.T, seed uint64, n int) []certDeployment {
	t.Helper()
	disk, err := geom.UniformDisk(seed, n)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := geom.ExponentialChain(seed, 5, n/10)
	if err != nil {
		t.Fatal(err)
	}
	return []certDeployment{{"disk", disk}, {"chain", chain}}
}

// TestCertifiedMatchesFullSum: in rounds with more than certSmallTx
// transmitters, the certified engine — sequential and over 3 workers,
// through Deliver and through DeliverTo over ascending subsets — decodes at
// every listener exactly what the full ascending sum decodes (a channel with
// a no-op observer), bit for bit with no exemption, across lattice ties,
// clusters, exponential chains, the α/β/N grid and per-node powers. Every
// deployment shape must actually be certified, or the comparison proves
// nothing. The shapes subtest does the same over every grid shape a round
// can pick.
func TestCertifiedMatchesFullSum(t *testing.T) {
	t.Run("shapes", certifiedShapesMatchFullSum)
	const n = 400
	const untouched = -7
	rng := xrand.New(12)
	for i, cd := range certDeployments(t, 30, n) {
		compared, certified0 := 0, mCertifiedListeners.Load()
		for _, rc := range certCases(cd, uint64(40+i)) {
			full := rc.build(t)
			full.SetObserver(fullSum{})
			certs := []*Channel{atWorkers(rc.build(t), 1), atWorkers(rc.build(t), 3)}
			want, got := make([]int, n), make([]int, n)
			for round, density := range []float64{0.2, 0.5} {
				tx := denseTx(t, rng, n, density)
				full.Deliver(tx, want)
				for w, c := range certs {
					c.Deliver(tx, got)
					for v := range got {
						if got[v] != want[v] {
							t.Fatalf("%s round %d engine %d listener %d: certified %d, full sum %d",
								rc.label, round, w, v, got[v], want[v])
						}
					}
					compared += n
				}
				list := randomListeners(rng, n, 4)
				full.DeliverTo(tx, list, want)
				for w, c := range certs {
					for v := range got {
						got[v] = untouched
					}
					c.DeliverTo(tx, list, got)
					listed := 0
					for v := range got {
						switch {
						case listed < len(list) && list[listed] == v:
							listed++
							if got[v] != want[v] {
								t.Fatalf("%s round %d engine %d DeliverTo listener %d: certified %d, full sum %d",
									rc.label, round, w, v, got[v], want[v])
							}
						case got[v] != untouched:
							t.Fatalf("%s round %d engine %d: unlisted listener %d overwritten with %d",
								rc.label, round, w, v, got[v])
						}
					}
					compared += len(list)
				}
			}
		}
		certified := mCertifiedListeners.Load() - certified0
		if certified == 0 {
			t.Errorf("%s: the certificate decided no listener; the cases do not exercise it", cd.name)
		}
		t.Logf("%s: %d listener decisions compared, %d certified", cd.name, compared, certified)
	}
}

// certifiedShapesMatchFullSum: on a 5120-node disk and an exponential
// chain, rounds of certSmallTx+1 up to n/5 transmitters pick every grid
// shape their counts can pick, the finest among them, and in each the
// certified engine,
// sequential and over 3 workers, through Deliver and through DeliverTo
// over random ascending lists, decodes what the full sum decodes at every
// listener. Lists longer than deliverTile must split a cell across tiles
// at least once per deployment, and the walks past a cell's block must
// happen, or the sweep does not test what it claims.
func certifiedShapesMatchFullSum(t *testing.T) {
	const n = 5120
	const untouched = -7
	rng := xrand.New(16)
	params := []Params{{Alpha: 2, Beta: 1, Noise: 0}, {Alpha: 3, Beta: 1.5, Noise: 1}, {Alpha: 4, Beta: 0.5, Noise: 1e6}, {Alpha: 2.5, Beta: 4, Noise: 1}}
	for _, cd := range shapeDeployments(t, 31, n) {
		n := cd.d.N()
		splits, shapes, walks0, certified0 := 0, map[int]bool{}, mCertWalks.Load(), mCertifiedListeners.Load()
		for i, p := range params {
			p.Power = MinSingleHopPower(p.Alpha, p.Beta, 1, cd.d.R, DefaultSingleHopMargin)
			rc := refCase{fmt.Sprintf("%s α=%v β=%v N=%v", cd.name, p.Alpha, p.Beta, p.Noise), p, cd.d.Points, UniformPowers(n, p.Power), false}
			if i == len(params)-1 {
				rc.hetero, rc.label = true, rc.label+" per-node"
				for u := range rc.powers {
					rc.powers[u] = p.Power * math.Pow(10, 2*rng.Float64()-1)
				}
			}
			full := rc.build(t)
			full.SetObserver(fullSum{})
			certs := []*Channel{atWorkers(rc.build(t), 1), atWorkers(rc.build(t), 3)}
			want, got := make([]int, n), make([]int, n)
			for _, tx := range shapeRounds(t, certs[0], rng, n/5) {
				m := countTx(tx)
				full.Deliver(tx, want)
				list := randomListeners(rng, n, 4)
				for w, c := range certs {
					c.Deliver(tx, got)
					for v := range got {
						if got[v] != want[v] {
							t.Fatalf("%s, %d transmitters (shape %d), engine %d listener %d: certified %d, full sum %d",
								rc.label, m, c.grid.shift, w, v, got[v], want[v])
						}
					}
					if splitsCell(c, n-m) {
						splits++
					}
					shapes[c.grid.shift] = true
					for v := range got {
						got[v] = untouched
					}
					c.DeliverTo(tx, list, got)
					listed := 0
					for v := range got {
						switch {
						case listed < len(list) && list[listed] == v:
							listed++
							if got[v] != want[v] {
								t.Fatalf("%s, %d transmitters, engine %d DeliverTo listener %d: certified %d, full sum %d",
									rc.label, m, w, v, got[v], want[v])
							}
						case got[v] != untouched:
							t.Fatalf("%s, %d transmitters, engine %d: unlisted listener %d overwritten with %d", rc.label, m, w, v, got[v])
						}
					}
				}
			}
		}
		walks, certified := mCertWalks.Load()-walks0, mCertifiedListeners.Load()-certified0
		if splits == 0 || walks == 0 || certified == 0 || !shapes[0] {
			t.Errorf("%s: %d rounds split a cell across tiles, %d listeners walked past their block, %d were certified, finest shape picked: %v",
				cd.name, splits, walks, certified, shapes[0])
		}
		t.Logf("%s: %d shapes, %d rounds split a cell across tiles, %d walks, %d certified", cd.name, len(shapes), splits, walks, certified)
	}
}

// TestCertificateAtThreshold puts listeners exactly on the SINR threshold:
// β is set to the full sum's own ratio at a listener, or to a float
// neighbour of it, so the reception turns on the last bit of the kernel's
// arithmetic. The certificate sums in another order and tests β·(…)
// against b or B rather than dividing; only the margins η and η̂ keep its
// verdicts on the full sum's side of the threshold. 400 transmitters fill
// a 3×3-cell square and the listeners sit in its centre cell, so each
// block sees every one of them and would otherwise decide. In the far
// layout 100 more transmitters sit 2²⁰ away: unseen by every block, they
// put unseen·ringCap into η̂ and add less than a rounding to the kernel's
// sum. Where the full sum decodes nothing at any listener, a certified
// listener was settled by the bound test, the certificate's one
// no-reception verdict; both layouts must have some.
func TestCertificateAtThreshold(t *testing.T) {
	const near, listeners = 400, 40
	for _, far := range []int{0, 100} {
		m, n := near+far, near+far+listeners
		rng := xrand.New(14)
		pts := make([]geom.Point, n)
		for i := range pts {
			switch {
			case i < near:
				pts[i] = geom.Point{X: 6 * rng.Float64(), Y: 6 * rng.Float64()}
			case i < m:
				pts[i] = geom.Point{X: 0x1p20 + 6*rng.Float64(), Y: 6 * rng.Float64()}
			default:
				pts[i] = geom.Point{X: 2.1 + 1.8*rng.Float64(), Y: 2.1 + 1.8*rng.Float64()}
			}
		}
		tx := make([]bool, n)
		for u := 0; u < m; u++ {
			tx[u] = true
		}
		certified0, decisions, bound := mCertifiedListeners.Load(), 0, int64(0)
		for _, alpha := range []float64{2, 3, 4} {
			for _, noise := range []float64{0, 1} {
				p := Params{Alpha: alpha, Beta: 1, Noise: noise, Power: 1}
				probe, err := New(p, pts)
				if err != nil {
					t.Fatal(err)
				}
				for v := m; v < n; v++ {
					// The kernel's own ratio at v: the ascending sum, the
					// strongest signal, and finalizeReceptions' expression.
					total, best := 0.0, -1.0
					for u := 0; u < m; u++ {
						s := probe.signal(u, v)
						total += s
						best = math.Max(best, s)
					}
					ratio := p.SINR(best, total-best)
					for _, beta := range []float64{math.Nextafter(ratio, 0), ratio, math.Nextafter(ratio, math.Inf(1))} {
						q := p
						q.Beta = beta
						cert, err := New(q, pts)
						if err != nil {
							t.Fatal(err)
						}
						full, err := New(q, pts)
						if err != nil {
							t.Fatal(err)
						}
						full.SetObserver(fullSum{})
						got, want := make([]int, n), make([]int, n)
						before := mCertifiedListeners.Load()
						cert.Deliver(tx, got)
						full.Deliver(tx, want)
						decoded := false
						for w := m; w < n; w++ {
							if got[w] != want[w] {
								t.Fatalf("%d far, α=%v N=%v β=%v (listener %d's ratio or a neighbour) listener %d: certified %d, full sum %d",
									far, alpha, noise, beta, v, w, got[w], want[w])
							}
							decoded = decoded || want[w] >= 0
						}
						if !decoded {
							bound += mCertifiedListeners.Load() - before
						}
						decisions += listeners
					}
				}
			}
		}
		if far > 0 {
			// Every listener's block holds the near transmitters only.
			c, err := New(Params{Alpha: 3, Beta: 1, Noise: 1, Power: 1}, pts)
			if err != nil {
				t.Fatal(err)
			}
			c.Deliver(tx, make([]int, n))
			var blk certBlock
			for v := m; v < n; v++ {
				if c.grid.setBlock(&blk, int(c.grid.cellID[v])); blk.seen != near {
					t.Fatalf("%d far: listener %d's block holds %d transmitters, want %d", far, v, blk.seen, near)
				}
			}
		}
		certified := mCertifiedListeners.Load() - certified0
		if certified == 0 || bound == 0 {
			t.Errorf("%d far: the certificate decided %d listeners, %d by the bound test in rounds without a reception; the threshold cases do not exercise it",
				far, certified, bound)
		}
		t.Logf("%d far: %d listener decisions compared, %d certified, %d by the bound test in rounds without a reception",
			far, decisions, certified, bound)
	}
}

// TestCertifiedDeliverZeroAllocs: certified rounds allocate nothing once
// the channel has built its grid, sequential Deliver and DeliverTo alike,
// across rounds whose transmitter counts pick different grid shapes: at
// α = 3, whose pair loops compute their signals in place, and at α = 2.5,
// whose loops read the per-worker scratch the pre-loop pass fills. Nor does
// a faded round of 400 transmitters on the certificate's grid whose
// listener at β walks, brackets every fade and replays its draws through
// the exact sum (replayRound), delivered again and again.
func TestCertifiedDeliverZeroAllocs(t *testing.T) {
	const n = 2000
	d, err := geom.UniformDisk(8, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{3, 2.5} {
		p := DefaultParams()
		p.Alpha = alpha
		p.Power = MinSingleHopPower(p.Alpha, p.Beta, p.Noise, d.R, DefaultSingleHopMargin)
		c, err := New(p, d.Points)
		if err != nil {
			t.Fatal(err)
		}
		rounds := shapeRounds(t, c, xrand.New(3), n/2)
		recv := make([]int, n)
		listeners := randomListeners(xrand.New(4), n, 4)
		certified0, shapes := mCertifiedListeners.Load(), map[int]bool{}
		for _, tx := range rounds {
			c.Deliver(tx, recv)
			shapes[c.grid.shift] = true
		}
		if mCertifiedListeners.Load() == certified0 || len(shapes) < 3 {
			t.Fatalf("α=%v: the warm-up rounds certified %d listeners over %d shapes; want some, over 3 or more",
				alpha, mCertifiedListeners.Load()-certified0, len(shapes))
		}
		if allocs := testing.AllocsPerRun(10, func() {
			for _, tx := range rounds {
				c.Deliver(tx, recv)
			}
		}); allocs != 0 {
			t.Errorf("α=%v: certified Deliver over %d shapes allocates %.1f times per pass, want 0", alpha, len(shapes), allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			for _, tx := range rounds {
				c.DeliverTo(tx, listeners, recv)
			}
		}); allocs != 0 {
			t.Errorf("α=%v: certified DeliverTo over %d shapes allocates %.1f times per pass, want 0", alpha, len(shapes), allocs)
		}

		faded, tx, near := replayRound(t, alpha)
		recv, alone := make([]int, len(tx)), []int{near}
		walked0, replayed0 := mFadedWalked.Load(), mFadedFallbacks.Load()
		faded.Deliver(tx, recv) // build the grid
		if allocs := testing.AllocsPerRun(10, func() {
			faded.fade.round = 0 // the same round again
			faded.Deliver(tx, recv)
			faded.fade.round = 0
			faded.DeliverTo(tx, alone, recv)
		}); allocs != 0 {
			t.Errorf("α=%v: a faded round with a replay allocates %.1f times per Deliver and DeliverTo, want 0", alpha, allocs)
		}
		if mFadedWalked.Load() == walked0 || mFadedFallbacks.Load()-replayed0 < 23 {
			t.Errorf("α=%v: the faded rounds walked %d listeners and replayed %d over 23 rounds; want some walked and a replay a round",
				alpha, mFadedWalked.Load()-walked0, mFadedFallbacks.Load()-replayed0)
		}
	}
}

// TestCertificateScope: the exact engine's certificate never runs where it
// must not — on a faded channel (whose listeners walk over brackets and
// count apart, in sinr.faded_walked), with an observer installed, in a
// round with at most certSmallTx transmitters, or outside the ranges where
// its rounding argument holds (β below 1/certRange, a grid extent whose
// square overflows certRange, a non-finite position) — and runs otherwise.
// Where it does not run, the full sum's receptions stand.
func TestCertificateScope(t *testing.T) {
	const n = 600
	d, err := geom.UniformDisk(9, n)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Power = MinSingleHopPower(p.Alpha, p.Beta, p.Noise, d.R, DefaultSingleHopMargin)
	build := func(faded bool) *Channel {
		t.Helper()
		var c *Channel
		var err error
		if faded {
			c, err = NewRayleigh(p, d.Points, 1)
		} else {
			c, err = New(p, d.Points)
		}
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	observed := build(false)
	observed.SetObserver(fullSum{})
	rng := xrand.New(5)
	dense := denseTx(t, rng, n, 0.25)
	sparse := make([]bool, n)
	for v := 0; v < certSmallTx; v++ {
		sparse[v*7] = true
	}
	// Channels outside the certificate's ranges, each with a full-sum twin.
	tinyBeta := p
	tinyBeta.Beta = 1e-300
	far := make([]geom.Point, n)
	for i, q := range d.Points {
		far[i] = q.Scale(0x1p460)
	}
	farP := Params{Alpha: 2, Beta: p.Beta, Noise: p.Noise}
	farP.Power = MinSingleHopPower(farP.Alpha, farP.Beta, farP.Noise, d.R*0x1p460, DefaultSingleHopMargin)
	nan := append([]geom.Point(nil), d.Points...)
	nan[n-1] = geom.Point{X: math.NaN(), Y: 0}
	outside := map[string]func() (*Channel, error){
		"β below 1/certRange":     func() (*Channel, error) { return New(tinyBeta, d.Points) },
		"extent beyond certRange": func() (*Channel, error) { return New(farP, far) },
		"non-finite position":     func() (*Channel, error) { return New(p, nan) },
	}
	recv, want := make([]int, n), make([]int, n)
	type scopeCase struct {
		name string
		c    *Channel
		tx   []bool
		want bool
	}
	cases := []scopeCase{
		{"exact", build(false), dense, true},
		{"exact, 3 workers", atWorkers(build(false), 3), dense, true},
		{"exact, sparse round", build(false), sparse, false},
		{"observed", observed, dense, false},
		{"faded", build(true), dense, false},
		{"faded, 3 workers", atWorkers(build(true), 3), dense, false},
	}
	for name, mk := range outside {
		c, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, scopeCase{name, c, dense, false})
	}
	for _, tc := range cases {
		before := mCertifiedListeners.Load()
		tc.c.Deliver(tc.tx, recv)
		if got := mCertifiedListeners.Load() > before; got != tc.want {
			t.Errorf("%s: certified listeners: %v, want %v", tc.name, got, tc.want)
		}
		if mk, ok := outside[tc.name]; ok {
			full, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			full.SetObserver(fullSum{})
			full.Deliver(tc.tx, want)
			for v := range recv {
				if recv[v] != want[v] {
					t.Fatalf("%s listener %d: decoded %d, full sum %d", tc.name, v, recv[v], want[v])
				}
			}
		}
	}
}

// TestCertificateFallsBackOnCoincidentPoints: a listener that coincides
// with a transmitter sees an infinite signal; the certificate leaves it —
// and any listener whose walk meets an infinite signal — to the full sum,
// whose verdict (no reception, as the ratio is NaN) stands.
func TestCertificateFallsBackOnCoincidentPoints(t *testing.T) {
	const side = 20
	pts := gridPoints(side)
	pts = append(pts, pts[:side]...) // the first row twice over
	n := len(pts)
	p := gridParams(3, 1.5, 1, side)
	cert, err := New(p, pts)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(p, pts)
	if err != nil {
		t.Fatal(err)
	}
	full.SetObserver(fullSum{})
	rng := xrand.New(6)
	got, want := make([]int, n), make([]int, n)
	for round := 0; round < 4; round++ {
		tx := denseTx(t, rng, n, 0.3)
		cert.Deliver(tx, got)
		full.Deliver(tx, want)
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("round %d listener %d: certified %d, full sum %d", round, v, got[v], want[v])
			}
		}
	}
}

// FuzzCertifiedDelivery: on fuzzer-built point sets — coordinates read from
// the input on a 1/256 grid (so coincident and collinear points come
// easily), or a uniform square, a lattice, a line, or clusters with
// duplicated points — with a fuzzed transmitter count anywhere from none to
// every node (so every grid shape a round can pick), and fuzzed α, β, N and
// power assignments, the certified engine decodes at every listener what
// the full sum decodes, through Deliver and through DeliverTo, sequential
// and over 3 workers.
func FuzzCertifiedDelivery(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint8(0), uint8(2), uint8(2), uint8(1), uint16(150), []byte{})
	f.Add(uint64(2), uint16(500), uint8(1), uint8(0), uint8(0), uint8(0), uint16(400), []byte{})
	f.Add(uint64(3), uint16(250), uint8(2), uint8(4), uint8(3), uint8(2), uint16(315), []byte{})
	f.Add(uint64(4), uint16(400), uint8(7), uint8(9), uint8(6), uint8(3), uint16(65), []byte{})
	f.Add(uint64(5), uint16(120), uint8(4), uint8(1), uint8(1), uint8(1), uint16(170),
		[]byte{1, 0, 1, 0, 1, 0, 1, 0, 2, 0, 2, 0, 3, 128, 0, 0, 1, 0, 1, 0})
	f.Add(uint64(6), uint16(699), uint8(0), uint8(2), uint8(2), uint8(1), uint16(700), []byte{})
	alphas := []float64{2, 2.5, 3, 4, 6}
	betas := []float64{0.5, 1, 1.5, 4}
	noises := []float64{0, 1, 1e6, 1e-3}
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, layout, alphaSel, betaSel, noiseSel uint8, count uint16, raw []byte) {
		n := certSmallTx + 1 + int(size)%700
		rng := xrand.New(seed)
		side := int(math.Ceil(math.Sqrt(float64(n))))
		pts := make([]geom.Point, n)
		for i := range pts {
			switch {
			case 4*i+4 <= len(raw):
				b := raw[4*i : 4*i+4]
				pts[i] = geom.Point{X: float64(int8(b[0])) + float64(b[1])/256, Y: float64(int8(b[2])) + float64(b[3])/256}
			case layout%4 == 0:
				pts[i] = geom.Point{X: 40 * rng.Float64(), Y: 40 * rng.Float64()}
			case layout%4 == 1:
				pts[i] = geom.Point{X: float64(i % side), Y: float64(i / side)}
			case layout%4 == 2:
				pts[i] = geom.Point{X: float64(i) * 0.75, Y: float64(i) * 0.25}
			default:
				if i > 0 && rng.IntN(8) == 0 {
					pts[i] = pts[rng.IntN(i)] // a coincident point
				} else {
					c := float64(rng.IntN(4)) * 30
					pts[i] = geom.Point{X: c + 3*rng.Float64(), Y: c + 3*rng.Float64()}
				}
			}
		}
		p := Params{Alpha: alphas[int(alphaSel)%len(alphas)], Beta: betas[int(betaSel)%len(betas)],
			Noise: noises[int(noiseSel)%len(noises)], Power: 1}
		if alphaSel >= 128 {
			p.Alpha = 1 + float64(alphaSel-128)/16 // α ∈ [1, 9), off the fast paths
		}
		if betaSel >= 128 {
			p.Beta = float64(betaSel-127) / 16
		}
		powers := UniformPowers(n, 1)
		if layout&4 != 0 {
			for i := range powers {
				powers[i] = math.Pow(10, 3*rng.Float64()-1)
			}
		}
		cert, err := NewWithPowers(p, pts, powers)
		if err != nil {
			t.Fatal(err)
		}
		if layout&8 != 0 {
			cert.setWorkers(3)
		}
		full, err := NewWithPowers(p, pts, powers)
		if err != nil {
			t.Fatal(err)
		}
		full.SetObserver(fullSum{})
		tx := txCount(rng, n, int(count)%(n+1))
		got, want := make([]int, n), make([]int, n)
		cert.Deliver(tx, got)
		full.Deliver(tx, want)
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("listener %d (%d transmitters): certified %d, full sum %d", v, countTx(tx), got[v], want[v])
			}
		}
		list := randomListeners(rng, n, 3)
		cert.DeliverTo(tx, list, got)
		full.DeliverTo(tx, list, want)
		for _, v := range list {
			if got[v] != want[v] {
				t.Fatalf("DeliverTo listener %d (%d transmitters): certified %d, full sum %d", v, countTx(tx), got[v], want[v])
			}
		}
	})
}

// TestRingWalkCoversSquares: on every shape a round can pick — on square,
// wide and tall grids — prepare picks the coarsest shape with at least as
// many transmitters as cells only when no finer one qualifies, the
// column-major copy holds each cell's ranks and nodes exactly as the
// row-major CSR does, a cell's block holds exactly the transmitters of
// rings 0 and 1, and walking rings 2 through k after it visits exactly the
// transmitters within Chebyshev distance k: the counts the summed-area
// table gives, which the far bound F starts from. Each ring is at most
// four runs, each a range of one copy, and costs the walk one work unit
// per run beyond its transmitters.
func TestRingWalkCoversSquares(t *testing.T) {
	rng := xrand.New(15)
	for _, extent := range [][2]float64{{40, 40}, {400, 3}, {3, 400}} {
		pts := make([]geom.Point, 500)
		for i := range pts {
			pts[i] = geom.Point{X: extent[0] * rng.Float64(), Y: extent[1] * rng.Float64()}
		}
		c, err := New(Params{Alpha: 3, Beta: 1, Noise: 1, Power: 1}, pts)
		if err != nil {
			t.Fatal(err)
		}
		g := c.certGrid()
		tx := denseTx(t, rng, len(pts), 0.3)
		txList := c.scratch.indices(tx)
		nodes := c.gather(c.scratch.txNodes, txList)
		// Another round's transmitters, bucketed first in every shape, so a
		// copy left from an earlier round shows.
		other := slices.Clone(c.scratch.indices(denseTx(t, rng, len(pts), 0.1)))
		otherNodes := c.gather(make([]txNode, len(other)), other)
		txList = c.scratch.indices(tx)
		for j := 0; ; j++ {
			cols, rows := g.shapeAt(j)
			// A round with as many transmitters as this shape has cells picks
			// it, and one with a transmitter fewer a coarser one.
			if got := g.shapeFor(cols * rows); got != j {
				t.Fatalf("grid %d×%d: %d transmitters pick shape %d, want %d", cols, rows, cols*rows, got, j)
			}
			if got := g.shapeFor(cols*rows - 1); cols*rows > 1 && got <= j {
				t.Fatalf("grid %d×%d: %d transmitters pick shape %d, want a coarser one", cols, rows, cols*rows-1, got)
			}
			g.setShape(j)
			g.bucket(other, otherNodes)
			g.bucket(txList, nodes)
			m := int32(len(txList))
			if got := g.cstart[len(g.cstart)-1]; got != 2*m {
				t.Fatalf("grid %d×%d: the column-major copy ends at %d, want %d", g.cols, g.rows, got, 2*m)
			}
			for cell := 0; cell < g.cols*g.rows; cell++ {
				col, row := cell%g.cols, cell/g.cols
				byRow := g.start[cell]
				first, end := g.cstart[col*g.rows+row], g.cstart[col*g.rows+row+1]
				if first < m || end-first != g.start[cell+1]-byRow {
					t.Fatalf("grid %d×%d, cell (%d, %d): column-major run [%d, %d), row-major [%d, %d)",
						g.cols, g.rows, col, row, first, end, byRow, g.start[cell+1])
				}
				for i := range end - first {
					if g.idx[first+i] != g.idx[byRow+i] || g.pos[first+i] != g.pos[byRow+i] {
						t.Fatalf("grid %d×%d, cell (%d, %d): column-major copy differs at %d", g.cols, g.rows, col, row, i)
					}
				}
			}
			for v := range pts {
				cell := int(g.cellOf(v))
				col, row := cell%g.cols, cell/g.cols
				var blk certBlock
				g.setBlock(&blk, cell)
				if want := g.squareCount(col, row, 1); blk.seen != want {
					t.Fatalf("grid %d×%d, cell (%d, %d): block holds %d transmitters, table counts %d", g.cols, g.rows, col, row, blk.seen, want)
				}
				var w certWalk
				w.start(g.pos, g.idx, g.alpha, pts[v], nil, 1, nil)
				w.span(blk.runs[:blk.nruns])
				for k := 2; k < max(g.cols, g.rows); k++ {
					runs, n := g.ring(col, row, k)
					for i, r := range runs[:n] {
						if r[0] > r[1] || r[0] < m && r[1] > m {
							t.Fatalf("grid %d×%d, cell (%d, %d), ring %d: run %d of %d is [%d, %d), not a range of one copy",
								g.cols, g.rows, col, row, k, i, n, r[0], r[1])
						}
					}
					seen, work := w.seen, w.work
					w.span(runs[:n])
					if want := g.squareCount(col, row, k); w.seen != want {
						t.Fatalf("grid %d×%d, cell (%d, %d), rings 0..%d: walk saw %d transmitters, table counts %d",
							g.cols, g.rows, col, row, k, w.seen, want)
					}
					if extra := (w.work - work) - (w.seen - seen); extra != n || n > 4 {
						t.Fatalf("grid %d×%d, cell (%d, %d), ring %d: %d runs cost %d units beyond their transmitters, want at most 4 and one each",
							g.cols, g.rows, col, row, k, n, extra)
					}
				}
				if w.seen != len(txList) {
					t.Fatalf("grid %d×%d: the walk over every ring saw %d of %d transmitters", g.cols, g.rows, w.seen, len(txList))
				}
			}
			if cols == 1 && rows == 1 {
				break
			}
		}
	}
}
