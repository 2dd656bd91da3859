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

// Builder constructs a protocol's nodes for a run, as one Population.
type Builder interface {
	// Name identifies the protocol in reports and traces.
	Name() string
	// Populate returns the protocol's n nodes, deterministically in
	// (n, seed). It panics on a misconfigured builder: builders are
	// constructed by experiment code with compile-time constants, so that
	// is a programming error rather than a runtime condition.
	Populate(n int, seed uint64) Population
}

// Population is a protocol's n nodes held as one value, driven one round
// at a time over the live nodes: the ascending list of nodes that have not
// retired. Implementations must be deterministic functions of their seed
// and observation history. A retired node is permanently silent and deaf —
// it would listen in every round and draw no randomness — so Run stops
// calling it and stops computing its receptions (unless a Tracer is
// installed), and retiring never changes a Result.
//
// Wrappers drive inner populations, so every population keeps these rules:
//   - Act and Hear read and write the state, tx and recv entries of the
//     listed nodes only.
//   - A wrapper may drive a population several times in one engine round,
//     over disjoint ascending sub-lists with different round numbers:
//     core.StaggeredStart per wake offset, core.Interleaved per side, and
//     core.CrashFaults over the nodes that did not crash.
//   - Each list's Hear follows its own Act, with the same list and round.
//   - Only per-node state carries from one call to the next; scratch that
//     one call fills is not read by the next.
type Population interface {
	// Act sets tx[u] to whether node u transmits in round (1-based) for
	// every live u, and returns the number of transmitters and the last of
	// them in live order (−1 when none).
	Act(round int, live []int, tx []bool) (count, last int)
	// Hear reports the round's outcome to every live node u — the sender
	// recv[u] of the message it decoded or −1 (always −1 while
	// transmitting), and detect, the collision detection trichotomy on
	// channels that expose it and Unknown otherwise — and returns live with
	// the nodes that retired in it removed, in place and in order. A node
	// may retire only in a round in which it listened. Hear fires for every
	// executed round, the solving one included: the oracle ends the run only
	// after feedback is delivered, so a listener can observe Message.
	Hear(round int, live []int, recv []int, detect Feedback) []int
}

// ActivePopulation is an optional extension of Population for protocols
// whose nodes can stop contending: Active(u) reports whether node u still
// does. A Tracer sees it through each Node's Active method.
type ActivePopulation interface {
	Population
	Active(u int) bool
}

// Node is what a Tracer sees of one node. When the population is an
// ActivePopulation, the node has an Active() bool method that reports
// whether it still contends (core.Activeness); it has no other method.
// The nodes of any other population are nil.
type Node any

// tracerNodes returns what a Tracer sees of p's n nodes.
func tracerNodes(p Population, n int) []Node {
	nodes := make([]Node, n)
	if ap, ok := p.(ActivePopulation); ok {
		views := make([]activeNode, n)
		for u := range views {
			views[u] = activeNode{ap, u}
			nodes[u] = &views[u]
		}
	}
	return nodes
}

// activeNode is node u of an ActivePopulation as a Tracer sees it.
type activeNode struct {
	p ActivePopulation
	u int
}

// Active reports whether the node still contends.
func (v *activeNode) Active() bool { return v.p.Active(v.u) }

// Tracer observes each executed round. The slices passed to OnRound are
// reused between rounds; implementations must copy anything they retain.
type Tracer interface {
	OnRound(round int, nodes []Node, tx []bool, recv []int)
}

// ResultTracer is an optional extension of Tracer: a tracer that also
// implements it is handed the execution's final Result exactly once, after
// the last OnRound call and before Run returns. Error returns (an invalid
// configuration) do not produce a result event. Structured tracing uses the
// hook to close every trace with a result record.
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
func Run(ch Channel, b Builder, seed uint64, cfg Config) (Result, error) {
	if ch == nil || b == nil {
		return Result{}, errors.New("sim: nil channel or builder")
	}
	if cfg.MaxRounds < 1 {
		return Result{}, fmt.Errorf("sim: MaxRounds %d must be ≥ 1", cfg.MaxRounds)
	}
	n := ch.N()
	pop := b.Populate(n, seed)
	// nodes are what a Tracer sees, built only when one needs them.
	var nodes []Node
	if cfg.Tracer != nil {
		nodes = tracerNodes(pop, n)
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
		count, solo := pop.Act(round, live, tx)
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

// finish hands the final result to a ResultTracer before Run returns it.
func finish(cfg Config, res Result) Result {
	if rt, ok := cfg.Tracer.(ResultTracer); ok {
		rt.OnResult(res)
	}
	return res
}
