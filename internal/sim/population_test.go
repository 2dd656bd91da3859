package sim_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"fadingcr/internal/baselines"
	"fadingcr/internal/core"
	"fadingcr/internal/geom"
	"fadingcr/internal/obs"
	"fadingcr/internal/radio"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
	"fadingcr/internal/xrand"
)

// hidden hides a builder's population: sim.Run drives its Build views one
// by one through the adapter.
type hidden struct{ sim.Builder }

func (h hidden) Name() string { return "views of " + h.Builder.Name() }

// legacy is a builder of literal per-node nodes, each with its own
// *rand.Rand from xrand.New: the reference the populations' streams are
// pinned to.
type legacy struct {
	name  string
	build func(n int, seed uint64) []sim.Node
}

func (l legacy) Name() string                        { return l.name }
func (l legacy) Build(n int, seed uint64) []sim.Node { return l.build(n, seed) }

// legacyNodes builds n nodes, node u from the stream xrand.New(Split(seed, u)).
func legacyNodes(n int, seed uint64, mk func(rng *rand.Rand) sim.Node) []sim.Node {
	nodes := make([]sim.Node, n)
	for u := range nodes {
		nodes[u] = mk(xrand.New(xrand.Split(seed, uint64(u))))
	}
	return nodes
}

// coinNode transmits with probability p(round) and ignores feedback: the
// sweep, decay and dampened sweep. knockout adds the fixed-probability
// rule: any reception silences the node for good.
type coinNode struct {
	rng      *rand.Rand
	p        func(round int) float64
	knockout bool
	out      bool
}

func (u *coinNode) Act(round int) sim.Action {
	if !u.out && xrand.Bernoulli(u.rng, u.p(round)) {
		return sim.Transmit
	}
	return sim.Listen
}

func (u *coinNode) Hear(_ int, from int, _ sim.Feedback) {
	if u.knockout && from >= 0 {
		u.out = true
	}
}

// backoffNode picks one uniform slot per window of 2, 4, 8, … rounds.
type backoffNode struct {
	rng       *rand.Rand
	slot, end int
}

func (u *backoffNode) Act(round int) sim.Action {
	if round > u.end {
		length, start := 2, 1
		for start+length-1 < round {
			start += length
			length *= 2
		}
		u.end = start + length - 1
		u.slot = start + u.rng.IntN(length)
	}
	if round == u.slot {
		return sim.Transmit
	}
	return sim.Listen
}

func (u *backoffNode) Hear(int, int, sim.Feedback) {}

// halvingNode is a cd-halving candidate: it withdraws after listening
// through a collision.
type halvingNode struct {
	rng                 *rand.Rand
	candidate, sentLast bool
}

func (u *halvingNode) Act(int) sim.Action {
	u.sentLast = u.candidate && xrand.Bernoulli(u.rng, 0.5)
	if u.sentLast {
		return sim.Transmit
	}
	return sim.Listen
}

func (u *halvingNode) Hear(_ int, _ int, detect sim.Feedback) {
	if u.candidate && !u.sentLast && detect == sim.Collision {
		u.candidate = false
	}
}

// protocol is one native population under test with its literal reference.
type protocol struct {
	native sim.PopulationBuilder
	ref    legacy
}

// protocolsFor returns every native population at n, with fixed
// probability at several p.
func protocolsFor(n int) []protocol {
	coins := func(name string, b sim.PopulationBuilder, p func(int) float64) protocol {
		return protocol{b, legacy{name, func(n int, seed uint64) []sim.Node {
			return legacyNodes(n, seed, func(rng *rand.Rand) sim.Node { return &coinNode{rng: rng, p: p} })
		}}}
	}
	var out []protocol
	for _, p := range []float64{0.05, 0.2, 0.5, 0.9} {
		out = append(out, protocol{core.FixedProbability{P: p}, legacy{"fixed", func(n int, seed uint64) []sim.Node {
			return legacyNodes(n, seed, func(rng *rand.Rand) sim.Node {
				return &coinNode{rng: rng, p: func(int) float64 { return p }, knockout: true}
			})
		}}})
	}
	decay := baselines.Decay{N: max(n, 2)}
	dampened := baselines.DampenedSweep{N: max(n, 4)}
	levels, repeats := dampened.Levels(), dampened.Repeats()
	return append(out,
		coins("sweep", baselines.ProbabilitySweep{}, baselines.SweepProbability),
		coins("decay", decay, func(round int) float64 {
			return math.Ldexp(1, -((round - 1) % decay.PhaseLength()))
		}),
		coins("dampened", dampened, func(round int) float64 {
			return math.Ldexp(1, -((round-1)%(levels*repeats)/repeats + 1))
		}),
		protocol{baselines.BinaryExponentialBackoff{}, legacy{"backoff", func(n int, seed uint64) []sim.Node {
			return legacyNodes(n, seed, func(rng *rand.Rand) sim.Node { return &backoffNode{rng: rng} })
		}}},
		protocol{baselines.CollisionDetectHalving{}, legacy{"cd-halving", func(n int, seed uint64) []sim.Node {
			return legacyNodes(n, seed, func(rng *rand.Rand) sim.Node { return &halvingNode{rng: rng, candidate: true} })
		}}},
	)
}

// tape is a channel decorator that records every round's transmit vector,
// listener list (nil for a full Deliver) and the receptions it computed.
type tape struct {
	ch     sim.Channel
	rounds []taped
}

type taped struct {
	tx        []bool
	listeners []int
	recv      []int
}

func (t *tape) N() int { return t.ch.N() }

func (t *tape) Deliver(tx []bool, recv []int) {
	t.ch.Deliver(tx, recv)
	t.rounds = append(t.rounds, taped{slices.Clone(tx), nil, slices.Clone(recv)})
}

// listenerTape also forwards DeliverTo.
type listenerTape struct{ *tape }

func (t listenerTape) DeliverTo(tx []bool, listeners, recv []int) {
	t.ch.(sim.ListenerChannel).DeliverTo(tx, listeners, recv)
	t.rounds = append(t.rounds, taped{slices.Clone(tx), slices.Clone(listeners), slices.Clone(recv)})
}

// deploy returns a uniform disk of n nodes; a single node is the first of
// a two-node disk, since a deployment needs two points for its R.
func deploy(t testing.TB, seed uint64, n int) *geom.Deployment {
	t.Helper()
	d, err := geom.UniformDisk(seed, max(n, 2))
	if err != nil {
		t.Fatal(err)
	}
	d.Points = d.Points[:n]
	return d
}

// channelKinds are the channels the populations are checked on.
var channelKinds = []string{"sinr", "rayleigh", "radio", "radio+cd"}

// channelFor builds a fresh channel of the given kind over d, and the
// round budget and collision detection it runs with. SINR rounds cost
// work per transmitter and listener, faded ones most, so their budgets
// are short; radio ones run longer, so that backoff's and the schedules'
// later windows and phases are reached.
func channelFor(t testing.TB, kind string, d *geom.Deployment) (sim.Channel, sim.Config) {
	t.Helper()
	p := sinr.DefaultParams()
	p.Power = sinr.MinSingleHopPower(p.Alpha, p.Beta, p.Noise, d.R, sinr.DefaultSingleHopMargin)
	var ch sim.Channel
	var err error
	cfg := sim.Config{MaxRounds: 40}
	switch kind {
	case "sinr":
		ch, err = sinr.New(p, d.Points)
	case "rayleigh":
		cfg.MaxRounds = 12
		ch, err = sinr.NewRayleigh(p, d.Points, 5)
	case "radio", "radio+cd":
		cfg = sim.Config{MaxRounds: 600, CollisionDetection: kind == "radio+cd"}
		ch, err = radio.New(len(d.Points), cfg.CollisionDetection)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ch, cfg
}

// runTaped runs b over a taped fresh channel of the given kind.
func runTaped(t testing.TB, kind string, d *geom.Deployment, b sim.Builder, seed uint64) (sim.Result, *tape) {
	t.Helper()
	ch, cfg := channelFor(t, kind, d)
	tp := &tape{ch: ch}
	var c sim.Channel = tp
	if _, ok := ch.(sim.ListenerChannel); ok {
		c = listenerTape{tp}
	}
	res, err := sim.Run(c, b, seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, tp
}

// matchTapes requires two runs to agree round by round: the same transmit
// vector, and the same reception at every listener the first run's
// channel computed.
func matchTapes(t testing.TB, label string, a, b *tape) {
	t.Helper()
	if len(a.rounds) != len(b.rounds) {
		t.Fatalf("%s: %d rounds, %d by node", label, len(a.rounds), len(b.rounds))
	}
	for r, ra := range a.rounds {
		rb := b.rounds[r]
		if !slices.Equal(ra.tx, rb.tx) {
			t.Fatalf("%s round %d: transmit vectors differ", label, r+1)
		}
		check := func(v int) {
			if ra.recv[v] != rb.recv[v] {
				t.Fatalf("%s round %d listener %d: received %d, by node %d", label, r+1, v, ra.recv[v], rb.recv[v])
			}
		}
		if ra.listeners == nil {
			for v := range ra.recv {
				check(v)
			}
		}
		for _, v := range ra.listeners {
			check(v)
		}
	}
}

// matchPopulation runs pr's native population, its views behind a builder
// that hides the population, and its literal per-node reference over the
// same channel, and requires the same Result and the same rounds. It
// returns the native run's tape.
func matchPopulation(t testing.TB, pr protocol, kind string, d *geom.Deployment, seed uint64) *tape {
	t.Helper()
	label := fmt.Sprintf("%s on %s n=%d seed %d", pr.native.Name(), kind, len(d.Points), seed)
	res, native := runTaped(t, kind, d, pr.native, seed)
	for _, other := range []sim.Builder{hidden{pr.native}, pr.ref} {
		got, tp := runTaped(t, kind, d, other, seed)
		if got != res {
			t.Fatalf("%s: population %+v, %s node by node %+v", label, res, other.Name(), got)
		}
		matchTapes(t, label+" vs "+other.Name(), native, tp)
	}
	return native
}

// TestPopulationsMatchNodes: every native population yields the Result and
// the rounds (transmit vectors, receptions at the listeners delivered to)
// that its own views yield node by node through the adapter, and that the
// literal per-node reference yields from xrand.New streams — on a
// certified SINR channel, a Rayleigh channel and radio with and without
// collision detection.
func TestPopulationsMatchNodes(t *testing.T) {
	var dense, sparse int // SINR rounds with more than certSmallTx = 64 transmitters, and with 2 … 64
	for _, n := range []int{1, 2, 3, 64, 300, 1500} {
		d := deploy(t, uint64(n), n)
		seeds := []uint64{1, 2, 3}
		if n == 1500 {
			seeds = seeds[:1]
		}
		for _, kind := range channelKinds {
			if kind == "rayleigh" && n == 1500 {
				continue // n = 300 covers faded rounds at a fifth of the cost
			}
			for _, pr := range protocolsFor(n) {
				for _, seed := range seeds {
					tp := matchPopulation(t, pr, kind, d, seed)
					if kind != "sinr" {
						continue
					}
					for _, r := range tp.rounds {
						switch c := countTrue(r.tx); {
						case c > 64:
							dense++
						case c >= 2:
							sparse++
						}
					}
				}
			}
		}
	}
	if dense == 0 || sparse == 0 {
		t.Fatalf("SINR rounds: %d with more than 64 transmitters, %d with 2 to 64; want both", dense, sparse)
	}
}

func countTrue(v []bool) int {
	c := 0
	for _, b := range v {
		if b {
			c++
		}
	}
	return c
}

// FuzzPopulationMatchesNodes is TestPopulationsMatchNodes on a fuzzed
// protocol, n ≤ 2048, seed and channel.
func FuzzPopulationMatchesNodes(f *testing.F) {
	f.Add(uint8(1), uint16(300), uint64(1), uint8(0))
	f.Add(uint8(4), uint16(2047), uint64(7), uint8(1))
	f.Add(uint8(6), uint16(64), uint64(3), uint8(2))
	f.Add(uint8(8), uint16(999), uint64(5), uint8(3))
	f.Add(uint8(9), uint16(0), uint64(0), uint8(3))
	f.Fuzz(func(t *testing.T, which uint8, size uint16, seed uint64, channel uint8) {
		n := 1 + int(size)%2048
		prs := protocolsFor(n)
		pr := prs[int(which)%len(prs)]
		matchPopulation(t, pr, channelKinds[int(channel)%len(channelKinds)], deploy(t, seed, n), seed)
	})
}

// TestPopulationRoundsAllocateNothing: a native population's Act and Hear
// allocate nothing in a steady-state round.
func TestPopulationRoundsAllocateNothing(t *testing.T) {
	const n = 512
	for _, pr := range protocolsFor(n) {
		pop := pr.native.Populate(n, 3)
		tx := make([]bool, n)
		recv := make([]int, n)
		live := make([]int, n)
		for u := range live {
			live[u] = u
			recv[u] = -1
		}
		round := 0
		step := func() {
			round++
			if _, _, err := pop.Act(round, live, tx); err != nil {
				t.Fatal(err)
			}
			live = pop.Hear(round, live, recv, sim.Collision)
		}
		for i := 0; i < 8; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Errorf("%s: %v allocations per round", pr.native.Name(), allocs)
		}
	}
}

// TestAdaptedRunsCounter: sim.adapted_runs counts the runs whose builder
// has no population (E13's Interleaved), and no run of a native one.
func TestAdaptedRunsCounter(t *testing.T) {
	adapted := obs.Default.Counter("sim.adapted_runs")
	ch, err := radio.New(32, false)
	if err != nil {
		t.Fatal(err)
	}
	run := func(b sim.Builder) int64 {
		t.Helper()
		before := adapted.Load()
		if _, err := sim.Run(ch, b, 4, sim.Config{MaxRounds: 50}); err != nil {
			t.Fatal(err)
		}
		return adapted.Load() - before
	}
	if got := run(core.Interleaved{A: core.FixedProbability{}, B: baselines.ProbabilitySweep{}}); got != 1 {
		t.Errorf("interleaved run: sim.adapted_runs advanced by %d, want 1", got)
	}
	if got := run(hidden{core.FixedProbability{}}); got != 1 {
		t.Errorf("hidden population: sim.adapted_runs advanced by %d, want 1", got)
	}
	for _, pr := range protocolsFor(32) {
		if got := run(pr.native); got != 0 {
			t.Errorf("%s: sim.adapted_runs advanced by %d, want 0", pr.native.Name(), got)
		}
	}
}
