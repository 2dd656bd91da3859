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
	"fadingcr/internal/radio"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
	"fadingcr/internal/xrand"
)

// node is one protocol node stepped on its own: Act reports whether it
// transmits in round, and Hear reports the round's outcome to it. Literal
// per-node nodes are the reference the populations are pinned to.
type node interface {
	Act(round int) bool
	Hear(round int, from int, detect sim.Feedback)
}

// nodeLoop runs literal per-node nodes as a population, one by one. None
// of them retires.
type nodeLoop []node

func (p nodeLoop) Act(round int, live []int, tx []bool) (count, last int) {
	last = -1
	for _, u := range live {
		tx[u] = p[u].Act(round)
		if tx[u] {
			count++
			last = u
		}
	}
	return count, last
}

func (p nodeLoop) Hear(round int, live []int, recv []int, detect sim.Feedback) []int {
	for _, u := range live {
		p[u].Hear(round, recv[u], detect)
	}
	return live
}

// legacy is a builder of literal per-node nodes, each with its own
// *rand.Rand from xrand.New, run by a nodeLoop.
type legacy struct {
	name  string
	build func(n int, seed uint64) []node
}

func (l legacy) Name() string                               { return l.name }
func (l legacy) Populate(n int, seed uint64) sim.Population { return nodeLoop(l.build(n, seed)) }

// legacyNodes builds n nodes, node u from the stream xrand.New(Split(seed, u)).
func legacyNodes(n int, seed uint64, mk func(rng *rand.Rand) node) []node {
	nodes := make([]node, n)
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

func (u *coinNode) Act(round int) bool {
	return !u.out && xrand.Bernoulli(u.rng, u.p(round))
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

func (u *backoffNode) Act(round int) bool {
	if round > u.end {
		length, start := 2, 1
		for start+length-1 < round {
			start += length
			length *= 2
		}
		u.end = start + length - 1
		u.slot = start + u.rng.IntN(length)
	}
	return round == u.slot
}

func (u *backoffNode) Hear(int, int, sim.Feedback) {}

// halvingNode is a cd-halving candidate: it withdraws after listening
// through a collision.
type halvingNode struct {
	rng                 *rand.Rand
	candidate, sentLast bool
}

func (u *halvingNode) Act(int) bool {
	u.sentLast = u.candidate && xrand.Bernoulli(u.rng, 0.5)
	return u.sentLast
}

func (u *halvingNode) Hear(_ int, _ int, detect sim.Feedback) {
	if u.candidate && !u.sentLast && detect == sim.Collision {
		u.candidate = false
	}
}

// estimateNode is a cd-binary-estimate node with its own controller: it
// transmits with probability 2^{-j}, doubles j on collisions until a round
// is not one, binary-searches the bracket that leaves, then sweeps a
// widening window of exponents around the estimate.
type estimateNode struct {
	rng                   *rand.Rand
	mode                  int // 0 doubling, 1 search, 2 sweep
	j, prev, lo, hi       int
	center, width, offset int
}

func (u *estimateNode) Act(int) bool { return xrand.Bernoulli(u.rng, math.Ldexp(1, -u.j)) }

func (u *estimateNode) Hear(_ int, _ int, detect sim.Feedback) {
	switch u.mode {
	case 0:
		if detect == sim.Collision {
			u.prev = u.j
			u.j *= 2
			return
		}
		u.mode, u.lo, u.hi = 1, u.prev, u.j
		u.search()
	case 1:
		if detect == sim.Collision {
			u.lo = u.j + 1
		} else {
			u.hi = u.j - 1
		}
		u.search()
	default:
		u.sweep()
	}
}

func (u *estimateNode) search() {
	if u.lo > u.hi {
		u.mode, u.center, u.width, u.offset = 2, u.j, 1, -1
		u.sweep()
		return
	}
	u.j = (u.lo + u.hi) / 2
}

func (u *estimateNode) sweep() {
	u.offset++
	if u.offset > 2*u.width {
		u.width++
		u.offset = 0
	}
	u.j = max(u.center-u.width+u.offset, 0)
}

// knockoutNode runs its inner node until it receives a message, then
// listens for good.
type knockoutNode struct {
	inner  node
	active bool
}

func (u *knockoutNode) Act(round int) bool { return u.active && u.inner.Act(round) }

func (u *knockoutNode) Hear(round int, from int, detect sim.Feedback) {
	if from >= 0 {
		u.active = false
	}
	u.inner.Hear(round, from, detect)
}

// crashNode crash-stops with probability rate at the start of every round,
// after which it neither transmits nor observes anything.
type crashNode struct {
	inner   node
	rate    float64
	rng     *rand.Rand
	crashed bool
}

func (u *crashNode) Act(round int) bool {
	if !u.crashed && xrand.Bernoulli(u.rng, u.rate) {
		u.crashed = true
	}
	return !u.crashed && u.inner.Act(round)
}

func (u *crashNode) Hear(round int, from int, detect sim.Feedback) {
	if !u.crashed {
		u.inner.Hear(round, from, detect)
	}
}

// staggeredNode runs its inner node from round wake on, as the inner
// node's round 1; before that its radio is off.
type staggeredNode struct {
	inner node
	wake  int
}

func (u *staggeredNode) Act(round int) bool {
	return round >= u.wake && u.inner.Act(round-u.wake+1)
}

func (u *staggeredNode) Hear(round int, from int, detect sim.Feedback) {
	if round >= u.wake {
		u.inner.Hear(round-u.wake+1, from, detect)
	}
}

// interleavedNode runs node a in odd rounds r as a's round (r+1)/2, and
// node b in even rounds r as b's round r/2.
type interleavedNode struct{ a, b node }

func (u *interleavedNode) Act(round int) bool {
	if round%2 == 1 {
		return u.a.Act((round + 1) / 2)
	}
	return u.b.Act(round / 2)
}

func (u *interleavedNode) Hear(round int, from int, detect sim.Feedback) {
	if round%2 == 1 {
		u.a.Hear((round+1)/2, from, detect)
		return
	}
	u.b.Hear(round/2, from, detect)
}

// protocol is one population under test with its literal reference.
type protocol struct {
	native sim.Builder
	ref    legacy
}

// knockout, crash, staggered and interleaved wrap protocols: the native
// wrapper over the inner populations, and the wrapper's per-node nodes
// over the inner references' nodes, seeded as the wrapper seeds them.
func knockout(in protocol) protocol {
	return protocol{core.WithKnockout{Inner: in.native}, legacy{"knockout(" + in.ref.name + ")", func(n int, seed uint64) []node {
		inner := in.ref.build(n, seed)
		nodes := make([]node, n)
		for u := range nodes {
			nodes[u] = &knockoutNode{inner: inner[u], active: true}
		}
		return nodes
	}}}
}

func crash(in protocol, rate float64) protocol {
	return protocol{core.CrashFaults{Inner: in.native, Rate: rate}, legacy{"crash(" + in.ref.name + ")", func(n int, seed uint64) []node {
		inner := in.ref.build(n, xrand.Split(seed, 0))
		rng := xrand.New(xrand.Split(seed, 1))
		nodes := make([]node, n)
		for u := range nodes {
			nodes[u] = &crashNode{inner: inner[u], rate: rate, rng: xrand.New(rng.Uint64())}
		}
		return nodes
	}}}
}

func staggered(in protocol, maxDelay int) protocol {
	return protocol{core.StaggeredStart{Inner: in.native, MaxDelay: maxDelay}, legacy{"staggered(" + in.ref.name + ")", func(n int, seed uint64) []node {
		inner := in.ref.build(n, xrand.Split(seed, 0))
		rng := xrand.New(xrand.Split(seed, 1))
		nodes := make([]node, n)
		for u := range nodes {
			nodes[u] = &staggeredNode{inner: inner[u], wake: 1 + rng.IntN(maxDelay+1)}
		}
		return nodes
	}}}
}

func interleaved(a, b protocol) protocol {
	return protocol{core.Interleaved{A: a.native, B: b.native}, legacy{"interleaved(" + a.ref.name + ", " + b.ref.name + ")", func(n int, seed uint64) []node {
		aNodes, bNodes := a.ref.build(n, xrand.Split(seed, 0)), b.ref.build(n, xrand.Split(seed, 1))
		nodes := make([]node, n)
		for u := range nodes {
			nodes[u] = &interleavedNode{a: aNodes[u], b: bNodes[u]}
		}
		return nodes
	}}}
}

// protocolsFor returns every population at n with its reference: the
// paper's algorithm at several p, the radio baselines, the estimation
// baseline, each wrapper, and wrappers nested in one another.
func protocolsFor(n int) []protocol {
	coins := func(name string, b sim.Builder, p func(int) float64) protocol {
		return protocol{b, legacy{name, func(n int, seed uint64) []node {
			return legacyNodes(n, seed, func(rng *rand.Rand) node { return &coinNode{rng: rng, p: p} })
		}}}
	}
	fixedAt := func(p float64) protocol {
		return protocol{core.FixedProbability{P: p}, legacy{"fixed", func(n int, seed uint64) []node {
			return legacyNodes(n, seed, func(rng *rand.Rand) node {
				return &coinNode{rng: rng, p: func(int) float64 { return p }, knockout: true}
			})
		}}}
	}
	var out []protocol
	for _, p := range []float64{0.05, 0.2, 0.5, 0.9} {
		out = append(out, fixedAt(p))
	}
	fixed := fixedAt(core.DefaultP)
	decay := baselines.Decay{N: max(n, 2)}
	dampened := baselines.DampenedSweep{N: max(n, 4)}
	levels, repeats := dampened.Levels(), dampened.Repeats()
	sweep := coins("sweep", baselines.ProbabilitySweep{}, baselines.SweepProbability)
	estimate := protocol{baselines.CDBinaryEstimate{}, legacy{"estimate", func(n int, seed uint64) []node {
		return legacyNodes(n, seed, func(rng *rand.Rand) node { return &estimateNode{rng: rng, j: 1} })
	}}}
	return append(out,
		sweep,
		coins("decay", decay, func(round int) float64 {
			return math.Ldexp(1, -((round - 1) % decay.PhaseLength()))
		}),
		coins("dampened", dampened, func(round int) float64 {
			return math.Ldexp(1, -((round-1)%(levels*repeats)/repeats + 1))
		}),
		protocol{baselines.BinaryExponentialBackoff{}, legacy{"backoff", func(n int, seed uint64) []node {
			return legacyNodes(n, seed, func(rng *rand.Rand) node { return &backoffNode{rng: rng} })
		}}},
		protocol{baselines.CollisionDetectHalving{}, legacy{"cd-halving", func(n int, seed uint64) []node {
			return legacyNodes(n, seed, func(rng *rand.Rand) node { return &halvingNode{rng: rng, candidate: true} })
		}}},
		estimate,
		knockout(sweep),
		crash(fixed, 0.05),
		staggered(fixed, 6),
		interleaved(fixed, sweep),
		staggered(crash(interleaved(fixed, estimate), 0.02), 5),
		interleaved(staggered(fixed, 4), crash(sweep, 0.03)),
		knockout(staggered(sweep, 7)),
		staggered(estimate, 9),
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

// matchPopulation runs pr's population and its literal per-node reference
// over the same channel, and requires the same Result and the same rounds.
// It returns the population's tape.
func matchPopulation(t testing.TB, pr protocol, kind string, d *geom.Deployment, seed uint64) *tape {
	t.Helper()
	label := fmt.Sprintf("%s on %s n=%d seed %d", pr.native.Name(), kind, len(d.Points), seed)
	res, native := runTaped(t, kind, d, pr.native, seed)
	got, ref := runTaped(t, kind, d, pr.ref, seed)
	if got != res {
		t.Fatalf("%s: population %+v, node by node %+v", label, res, got)
	}
	matchTapes(t, label, native, ref)
	return native
}

// TestPopulationsMatchNodes: every population — the wrappers' included,
// alone and nested — yields the Result and the rounds (transmit vectors,
// receptions at the listeners delivered to) that its literal per-node
// reference yields from xrand.New streams, on a certified SINR channel, a
// Rayleigh channel and radio with and without collision detection.
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
// protocol, n ≤ 2048, seed and channel. The last four seeds are the nested
// wrappers.
func FuzzPopulationMatchesNodes(f *testing.F) {
	f.Add(uint8(1), uint16(300), uint64(1), uint8(0))
	f.Add(uint8(4), uint16(2047), uint64(7), uint8(1))
	f.Add(uint8(6), uint16(64), uint64(3), uint8(2))
	f.Add(uint8(8), uint16(999), uint64(5), uint8(3))
	f.Add(uint8(9), uint16(0), uint64(0), uint8(3))
	f.Add(uint8(14), uint16(300), uint64(2), uint8(0))
	f.Add(uint8(15), uint16(150), uint64(4), uint8(2))
	f.Add(uint8(16), uint16(500), uint64(6), uint8(1))
	f.Add(uint8(17), uint16(90), uint64(8), uint8(3))
	f.Fuzz(func(t *testing.T, which uint8, size uint16, seed uint64, channel uint8) {
		n := 1 + int(size)%2048
		prs := protocolsFor(n)
		pr := prs[int(which)%len(prs)]
		matchPopulation(t, pr, channelKinds[int(channel)%len(channelKinds)], deploy(t, seed, n), seed)
	})
}

// TestPopulationRoundsAllocateNothing: a population's Act and Hear — a
// wrapper's around its inner ones included — allocate nothing in a
// steady-state round.
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
			pop.Act(round, live, tx)
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
