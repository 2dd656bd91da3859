package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"fadingcr/internal/baselines"
	"fadingcr/internal/core"
	"fadingcr/internal/geom"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
)

// recorder wraps a channel and keeps a copy of every round's receptions and
// listener list (nil for a full Deliver). On its own it exposes only
// sim.Channel, hiding any DeliverTo of the wrapped channel; exposed adds it.
type recorder struct {
	ch        sim.Channel
	recv      [][]int
	listeners [][]int
}

func (r *recorder) N() int { return r.ch.N() }

func (r *recorder) Deliver(tx []bool, recv []int) {
	r.ch.Deliver(tx, recv)
	r.keep(nil, recv)
}

func (r *recorder) keep(listeners, recv []int) {
	r.recv = append(r.recv, slices.Clone(recv))
	r.listeners = append(r.listeners, slices.Clone(listeners))
}

type exposed struct{ *recorder }

func (e exposed) DeliverTo(tx []bool, listeners, recv []int) {
	e.ch.(sim.ListenerChannel).DeliverTo(tx, listeners, recv)
	e.keep(listeners, recv)
}

// activeTracer records, per round, the nodes whose core.Activeness bit is
// set when the round's receptions are known.
type activeTracer struct{ active [][]int }

func (a *activeTracer) OnRound(_ int, nodes []sim.Node, _ []bool, _ []int) {
	var live []int
	for u, node := range nodes {
		if node.(core.Activeness).Active() {
			live = append(live, u)
		}
	}
	a.active = append(a.active, live)
}

// activeProbe wraps a builder whose population reports activity, and
// records at the start of every round the nodes whose Active bit is set,
// before any of them acts.
type activeProbe struct {
	sim.Builder
	active [][]int
}

func (p *activeProbe) Populate(n int, seed uint64) sim.Population {
	return probed{p.Builder.Populate(n, seed).(sim.ActivePopulation), p, n}
}

type probed struct {
	sim.ActivePopulation
	probe *activeProbe
	n     int
}

func (p probed) Act(round int, live []int, tx []bool) (count, last int) {
	var active []int
	for u := range p.n {
		if p.Active(u) {
			active = append(active, u)
		}
	}
	p.probe.active = append(p.probe.active, active)
	return p.ActivePopulation.Act(round, live, tx)
}

// liveChannels builds fresh channels of each delivery engine over one
// deployment; faded ones restart their fade stream with every build.
func liveChannels(t *testing.T, d *geom.Deployment) map[string]func() sim.Channel {
	t.Helper()
	build := func(f func() (*sinr.Channel, error)) func() sim.Channel {
		return func() sim.Channel {
			ch, err := f()
			if err != nil {
				t.Fatal(err)
			}
			return ch
		}
	}
	p := sinr.DefaultParams()
	p.Power = sinr.MinSingleHopPower(p.Alpha, p.Beta, p.Noise, d.R, sinr.DefaultSingleHopMargin)
	return map[string]func() sim.Channel{
		"uniform":  build(func() (*sinr.Channel, error) { return sinr.New(p, d.Points) }),
		"rayleigh": build(func() (*sinr.Channel, error) { return sinr.NewRayleigh(p, d.Points, 5) }),
	}
}

// TestLiveListenersMatchFullDelivery: the paper's algorithm retires
// knocked-out nodes, the knock-out wrapper knocked-out ones, the crash
// wrapper crashed ones, and the staggered wrapper those its inner protocol
// retires, so without a Tracer sim.Run hands a channel with DeliverTo only
// the live nodes. The Result and every live node's reception must equal
// those of the full Deliver — the channel wrapped to hide DeliverTo, or a
// Tracer installed — and each round's live list must be exactly the nodes
// active at its start, and hold every node that the Tracer sees active.
func TestLiveListenersMatchFullDelivery(t *testing.T) {
	const n = 600 // p·n = 120 round-one transmitters: the certificate runs
	d, err := geom.UniformDisk(11, n)
	if err != nil {
		t.Fatal(err)
	}
	retiring := []sim.Builder{
		core.FixedProbability{},
		core.WithKnockout{Inner: baselines.ProbabilitySweep{}},
		core.WithKnockout{Inner: core.FixedProbability{}},
		core.CrashFaults{Inner: core.FixedProbability{}, Rate: 0.05},
		core.StaggeredStart{Inner: core.FixedProbability{}, MaxDelay: 4},
	}
	for _, b := range retiring {
		for name, mk := range liveChannels(t, d) {
			for seed := uint64(1); seed <= 3; seed++ {
				label := fmt.Sprintf("%s on %s seed %d", b.Name(), name, seed)
				run := func(b sim.Builder, expose bool, tr *activeTracer) (sim.Result, *recorder) {
					t.Helper()
					rec := &recorder{ch: mk()}
					var ch sim.Channel = rec
					if expose {
						ch = exposed{rec}
					}
					cfg := sim.Config{MaxRounds: 200}
					if tr != nil {
						cfg.Tracer = tr
					}
					res, err := sim.Run(ch, b, seed, cfg)
					if err != nil {
						t.Fatal(err)
					}
					return res, rec
				}
				probe := &activeProbe{Builder: b}
				live, liveRec := run(probe, true, nil)
				tracers := [2]*activeTracer{{}, {}}
				full := map[string]*recorder{}
				for _, v := range []struct {
					name   string
					expose bool
					tr     *activeTracer
				}{
					{"hidden", false, nil},
					{"exposed+tracer", true, tracers[0]},
					{"hidden+tracer", false, tracers[1]},
				} {
					res, rec := run(b, v.expose, v.tr)
					if res != live {
						t.Fatalf("%s %s: Result %+v, live path %+v", label, v.name, res, live)
					}
					full[v.name] = rec
				}
				if len(liveRec.listeners[0]) != n || len(liveRec.listeners[len(liveRec.listeners)-1]) >= n {
					t.Fatalf("%s: live lists of %d and %d listeners in the first and last round; the live path was not taken",
						label, len(liveRec.listeners[0]), len(liveRec.listeners[len(liveRec.listeners)-1]))
				}
				for round, listeners := range liveRec.listeners {
					if want := probe.active[round]; !slices.Equal(listeners, want) {
						t.Fatalf("%s round %d: %d live listeners, %d active nodes", label, round+1, len(listeners), len(want))
					}
					for _, u := range tracers[0].active[round] {
						if _, ok := slices.BinarySearch(listeners, u); !ok {
							t.Fatalf("%s round %d: the Tracer sees node %d active, and it is not live", label, round+1, u)
						}
					}
					for vname, rec := range full {
						if rec.listeners[round] != nil {
							t.Fatalf("%s %s round %d: a listener list reached the channel", label, vname, round+1)
						}
						for _, v := range listeners {
							if got, want := liveRec.recv[round][v], rec.recv[round][v]; got != want {
								t.Fatalf("%s %s round %d listener %d: live path received %d, full delivery %d",
									label, vname, round+1, v, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestNonRetiringBuildersKeepEveryListener: the classical baselines and
// the estimation baseline never retire a node, and neither does an
// interleaving with a side that never does, so every round reaches all n
// listeners.
func TestNonRetiringBuildersKeepEveryListener(t *testing.T) {
	const n = 48
	d, err := geom.UniformDisk(3, n)
	if err != nil {
		t.Fatal(err)
	}
	builders := []sim.Builder{
		core.Interleaved{A: core.FixedProbability{}, B: baselines.ProbabilitySweep{}},
		baselines.ProbabilitySweep{},
		baselines.Decay{N: n},
		baselines.BinaryExponentialBackoff{},
		baselines.DampenedSweep{N: n},
		baselines.CollisionDetectHalving{},
		baselines.CDBinaryEstimate{},
	}
	for _, b := range builders {
		ch, err := sinr.ChannelFor(sinr.DefaultParams(), d)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{ch: ch}
		if _, err := sim.Run(exposed{rec}, b, 9, sim.Config{MaxRounds: 60}); err != nil {
			t.Fatal(err)
		}
		for round, listeners := range rec.listeners {
			if len(listeners) != n {
				t.Fatalf("%s round %d: %d listeners, want all %d", b.Name(), round+1, len(listeners), n)
			}
		}
	}
}
