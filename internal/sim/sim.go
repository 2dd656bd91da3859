// Package sim provides the synchronous round-based execution engine shared
// by every algorithm and channel in the repository.
//
// The model follows Section 2 of the paper: time is divided into synchronous
// rounds; in each round every participating node either transmits or
// listens; a channel implementation decides which messages are received. The
// contention resolution problem is solved in the first round in which
// exactly one participant transmits — the engine detects this with an
// omniscient oracle, while the nodes themselves observe only their own
// receptions (and, on channels with collision detection, the
// silence/message/collision trichotomy).
package sim

import (
	"errors"
	"fmt"

	"fadingcr/internal/obs"
)

// Channel is one-round message delivery over a fixed set of n nodes. It is
// satisfied by sinr.Channel (plain, per-node power, or Rayleigh-faded) and
// radio.Channel.
type Channel interface {
	// N returns the number of nodes on the channel.
	N() int
	// Deliver fills recv for the given transmit vector: recv[v] is the
	// index of the transmitter whose message listener v received, or −1.
	Deliver(tx []bool, recv []int)
}

// ListenerChannel is an optional extension of Channel for channels that can
// compute receptions at a subset of the listeners. Run hands it the live
// nodes (see Population) whenever no Tracer is installed, so a round costs
// work in proportion to the nodes still contending rather than to n.
type ListenerChannel interface {
	Channel
	// DeliverTo is Deliver restricted to listeners, an ascending list of
	// distinct node indices: it fills recv[v] for every listed v exactly as
	// Deliver would, and may leave every other entry of recv untouched.
	DeliverTo(tx []bool, listeners []int, recv []int)
}

// Action is a node's choice for a round.
type Action int

const (
	// Listen keeps the radio in receive mode.
	Listen Action = iota + 1
	// Transmit broadcasts at the fixed power.
	Transmit
)

// Feedback is what a listening node perceives about the round when the
// channel supports collision detection; Unknown on channels that do not.
type Feedback int

const (
	// Unknown: the channel provides no carrier feedback.
	Unknown Feedback = iota
	// Silence: no participant transmitted.
	Silence
	// Message: exactly one participant transmitted.
	Message
	// Collision: two or more participants transmitted.
	Collision
)

// Node is the per-node state machine of a protocol. Implementations must be
// deterministic functions of their seed and observation history.
type Node interface {
	// Act returns the node's action for round (1-based). Act is called
	// exactly once per round, before Hear.
	Act(round int) Action
	// Hear reports the round's outcome to the node: from is the sender
	// index of the decoded message, or −1 when nothing was received (which
	// is always the case while transmitting); detect carries the collision
	// detection trichotomy on channels that expose it, Unknown otherwise.
	// Hear fires for every executed round, including the solving round —
	// the oracle terminates the run only after feedback is delivered, so a
	// listener can observe Message on the final round.
	Hear(round int, from int, detect Feedback)
}

// Builder constructs the per-node state machines for a run. Build must
// return exactly n nodes, deterministically in (n, seed).
type Builder interface {
	// Name identifies the protocol in reports and traces.
	Name() string
	// Build returns the protocol's n per-node state machines.
	Build(n int, seed uint64) []Node
}

// Population is a protocol's n nodes held as one value, driven one round
// at a time over the live nodes: the ascending list of nodes that have not
// retired. A retired node is permanently silent and deaf — it would listen
// in every round and draw no randomness — so Run stops calling it and
// stops computing its receptions (unless a Tracer is installed), and
// retiring never changes a Result. Each node's behaviour must not depend
// on which other nodes are live: Views runs a population one node at a
// time.
type Population interface {
	// Act sets tx[u] to whether node u transmits in round (1-based) for
	// every live u, and returns the number of transmitters and the last of
	// them in live order (−1 when none). It fails only on an action that
	// is neither Listen nor Transmit.
	Act(round int, live []int, tx []bool) (count, last int, err error)
	// Hear reports the round's outcome to every live node u — the sender
	// recv[u] of the message it decoded or −1, and detect — and returns
	// live with the nodes that retired in it removed, in place and in
	// order. A node may retire only in a round in which it listened.
	Hear(round int, live []int, recv []int, detect Feedback) []int
}

// ActivePopulation is an optional extension of Population for protocols
// whose nodes can stop contending: Active(u) reports whether node u still
// does, and the population's views report it through an Active method.
type ActivePopulation interface {
	Population
	Active(u int) bool
}

// PopulationBuilder is a Builder that also builds its nodes as one
// Population. Build(n, seed) must return Views(Populate(n, seed), n), and
// Populate must panic exactly where Build would; Run drives builders that
// implement it through their population.
type PopulationBuilder interface {
	Builder
	Populate(n int, seed uint64) Population
}

// Populate returns the population of n nodes that Run drives for b: b's
// own when b is a PopulationBuilder, otherwise an adapter that steps the
// nodes of b.Build(n, seed) one by one and never retires any. It fails
// only when Build returns other than n nodes.
func Populate(b Builder, n int, seed uint64) (Population, error) {
	if pb, ok := b.(PopulationBuilder); ok {
		return pb.Populate(n, seed), nil
	}
	nodes := b.Build(n, seed)
	if len(nodes) != n {
		return nil, fmt.Errorf("sim: builder %q returned %d nodes for n=%d", b.Name(), len(nodes), n)
	}
	return nodeLoop(nodes), nil
}

// Views returns population p's n nodes as per-node views: view u's Act and
// Hear run p's own Act and Hear over the live list {u}, so a node stepped
// alone and a node stepped with the others share one implementation. When
// p is an ActivePopulation, every view also has an Active() bool method.
// A view whose population fails to act returns the invalid Action 0. The
// views share scratch vectors, so they must be stepped from one goroutine.
// The views of Populate's adapter are the builder's nodes themselves.
func Views(p Population, n int) []Node {
	if nodes, ok := p.(nodeLoop); ok {
		return nodes
	}
	s := &viewScratch{pop: p, tx: make([]bool, n), recv: make([]int, n)}
	nodes := make([]Node, n)
	if ap, ok := p.(ActivePopulation); ok {
		s.ap = ap
		views := make([]activeView, n)
		for u := range views {
			views[u] = activeView{view{s: s, live: [1]int{u}}}
			nodes[u] = &views[u]
		}
		return nodes
	}
	views := make([]view, n)
	for u := range views {
		views[u] = view{s: s, live: [1]int{u}}
		nodes[u] = &views[u]
	}
	return nodes
}

// viewScratch is what the views of one population share; ap is the
// population when it is an ActivePopulation.
type viewScratch struct {
	pop  Population
	ap   ActivePopulation
	tx   []bool
	recv []int
}

// view is node live[0] of a population as a Node. Its one-node live list
// is kept in the view, so passing it to the population allocates nothing;
// the population's Hear can only keep or drop that one node, so live[0]
// never changes.
type view struct {
	s    *viewScratch
	live [1]int
}

// Act implements Node.
func (v *view) Act(round int) Action {
	if _, _, err := v.s.pop.Act(round, v.live[:], v.s.tx); err != nil {
		return 0
	}
	if v.s.tx[v.live[0]] {
		return Transmit
	}
	return Listen
}

// Hear implements Node.
func (v *view) Hear(round int, from int, detect Feedback) {
	v.s.recv[v.live[0]] = from
	v.s.pop.Hear(round, v.live[:], v.s.recv, detect)
}

// activeView is a view of an ActivePopulation.
type activeView struct{ view }

// Active reports whether the node still contends.
func (v *activeView) Active() bool { return v.s.ap.Active(v.live[0]) }

// Tracer observes each executed round. The slices passed to OnRound are
// reused between rounds; implementations must copy anything they retain.
type Tracer interface {
	OnRound(round int, nodes []Node, tx []bool, recv []int)
}

// ResultTracer is an optional extension of Tracer: a tracer that also
// implements it is handed the execution's final Result exactly once, after
// the last OnRound call and before Run returns. Error returns (invalid
// configuration, a node yielding an invalid action) do not produce a
// result event. Structured tracing uses the hook to close every trace with
// a result record.
type ResultTracer interface {
	Tracer
	OnResult(Result)
}

// Result summarises one execution.
type Result struct {
	// Solved reports whether a solo broadcast occurred within the round
	// budget.
	Solved bool
	// Rounds is the 1-based index of the solving round, or the budget when
	// unsolved.
	Rounds int
	// Winner is the node that transmitted alone, or −1 when unsolved.
	Winner int
	// Transmissions is the total number of transmissions across all nodes
	// and rounds (an energy measure).
	Transmissions int64
}

// Config controls an execution.
type Config struct {
	// MaxRounds caps the execution; must be ≥ 1.
	MaxRounds int
	// CollisionDetection lets listening nodes observe the
	// silence/message/collision trichotomy, as in the radio network model
	// with receiver collision detection. Leave false for the paper's
	// models.
	CollisionDetection bool
	// Tracer, when non-nil, observes every executed round.
	Tracer Tracer
}

// Run executes the protocol built by b over the channel until a solo
// broadcast or the round budget. The seed drives all protocol randomness.
// A PopulationBuilder runs as its population; any other builder's nodes
// run one by one through an adapter, which counts as sim.adapted_runs.
func Run(ch Channel, b Builder, seed uint64, cfg Config) (Result, error) {
	if ch == nil || b == nil {
		return Result{}, errors.New("sim: nil channel or builder")
	}
	if cfg.MaxRounds < 1 {
		return Result{}, fmt.Errorf("sim: MaxRounds %d must be ≥ 1", cfg.MaxRounds)
	}
	n := ch.N()
	pop, err := Populate(b, n, seed)
	if err != nil {
		return Result{}, err
	}
	if _, ok := pop.(nodeLoop); ok {
		mAdaptedRuns.Inc()
	}
	// nodes are what a Tracer sees, built only when one needs them.
	var nodes []Node
	if cfg.Tracer != nil {
		nodes = Views(pop, n)
	}
	tx := make([]bool, n)
	recv := make([]int, n)
	// live lists, ascending, the nodes that have not retired; only they act,
	// hear and count receptions. A Tracer observes every listener, so it
	// keeps the channel's full Deliver.
	live := make([]int, n)
	for u := range live {
		live[u] = u
	}
	lc, _ := ch.(ListenerChannel)
	if cfg.Tracer != nil {
		lc = nil
	}
	var transmissions int64
	var rounds, receptions int64
	mRuns.Inc()
	defer func() {
		mRounds.Add(rounds)
		mReceptions.Add(receptions)
		mTransmissions.Add(transmissions)
	}()
	for round := 1; round <= cfg.MaxRounds; round++ {
		count, solo, err := pop.Act(round, live, tx)
		if err != nil {
			return Result{}, err
		}
		transmissions += int64(count)
		if lc != nil {
			lc.DeliverTo(tx, live, recv)
		} else {
			ch.Deliver(tx, recv)
		}
		rounds++
		if obs.Enabled() {
			// The reception scan exists only to feed the metric; skip the
			// pass entirely when recording is off.
			for _, u := range live {
				if recv[u] >= 0 {
					receptions++
				}
			}
		}
		if cfg.Tracer != nil {
			cfg.Tracer.OnRound(round, nodes, tx, recv)
		}
		detect := Unknown
		if cfg.CollisionDetection {
			switch {
			case count == 0:
				detect = Silence
			case count == 1:
				detect = Message
			default:
				detect = Collision
			}
		}
		// Feedback is delivered for every executed round, including the
		// solving one, before the oracle terminates the run: nodes cannot
		// distinguish the final round locally, and with CollisionDetection on
		// a listener's only way to ever observe Message is the solo round
		// itself.
		live = pop.Hear(round, live, recv, detect)
		if count == 1 {
			return finish(cfg, Result{Solved: true, Rounds: round, Winner: solo, Transmissions: transmissions}), nil
		}
	}
	return finish(cfg, Result{Solved: false, Rounds: cfg.MaxRounds, Winner: -1, Transmissions: transmissions}), nil
}

// nodeLoop is the adapter that runs a builder without a population: its
// nodes, called one by one. None of them retires.
type nodeLoop []Node

// Act implements Population. A node's invalid action counts as listening,
// and every live node still acts; the first one is reported as the error.
func (p nodeLoop) Act(round int, live []int, tx []bool) (count, last int, err error) {
	last = -1
	for _, u := range live {
		switch a := p[u].Act(round); a {
		case Transmit:
			tx[u] = true
			count++
			last = u
		case Listen:
			tx[u] = false
		default:
			tx[u] = false
			if err == nil {
				err = fmt.Errorf("sim: node %d returned invalid action %d", u, a)
			}
		}
	}
	return count, last, err
}

// Hear implements Population.
func (p nodeLoop) Hear(round int, live []int, recv []int, detect Feedback) []int {
	for _, u := range live {
		p[u].Hear(round, recv[u], detect)
	}
	return live
}

// finish hands the final result to a ResultTracer before Run returns it.
func finish(cfg Config, res Result) Result {
	if rt, ok := cfg.Tracer.(ResultTracer); ok {
		rt.OnResult(res)
	}
	return res
}
