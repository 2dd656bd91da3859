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
// nodes (see Retirer) whenever no Tracer is installed, so a round costs work
// in proportion to the nodes still contending rather than to n.
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

// Retirer is an optional extension of Node. Once Retired reports true it
// must keep doing so, and the node must be permanently silent and deaf: Act
// would return Listen and neither Act nor Hear would draw randomness or
// change its state. Run then stops calling the node and stops computing its
// receptions (unless a Tracer is installed), so retiring never changes a
// Result. A node that wraps another and keeps forwarding Hear to it must
// not implement Retirer.
type Retirer interface {
	Retired() bool
}

// Builder constructs the per-node state machines for a run. Build must
// return exactly n nodes, deterministically in (n, seed).
type Builder interface {
	// Name identifies the protocol in reports and traces.
	Name() string
	// Build returns the protocol's n per-node state machines.
	Build(n int, seed uint64) []Node
}

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
func Run(ch Channel, b Builder, seed uint64, cfg Config) (Result, error) {
	if ch == nil || b == nil {
		return Result{}, errors.New("sim: nil channel or builder")
	}
	if cfg.MaxRounds < 1 {
		return Result{}, fmt.Errorf("sim: MaxRounds %d must be ≥ 1", cfg.MaxRounds)
	}
	n := ch.N()
	nodes := b.Build(n, seed)
	if len(nodes) != n {
		return Result{}, fmt.Errorf("sim: builder %q returned %d nodes for n=%d", b.Name(), len(nodes), n)
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
		count, solo := 0, -1
		for _, u := range live {
			switch a := nodes[u].Act(round); a {
			case Transmit:
				tx[u] = true
				count++
				solo = u
			case Listen:
				tx[u] = false
			default:
				return Result{}, fmt.Errorf("sim: node %d returned invalid action %d", u, a)
			}
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
		k := 0
		for _, u := range live {
			node := nodes[u]
			node.Hear(round, recv[u], detect)
			if r, ok := node.(Retirer); ok && r.Retired() {
				tx[u] = false
				continue
			}
			live[k] = u
			k++
		}
		live = live[:k]
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
