package trace

import (
	"fmt"

	"fadingcr/internal/geom"
)

// SchemaVersion is the structured trace schema this package writes and
// reads. Versioning rule (DESIGN.md §8): adding a new event kind or a new
// optional field is backwards-compatible and keeps the version; changing
// the meaning, type, or ordering contract of an existing field bumps the
// version, and readers reject versions they do not know.
const SchemaVersion = 1

// Kind discriminates structured trace records.
type Kind uint8

const (
	// KindRound is a round boundary carrying the round's aggregates. It is
	// the first record of every executed round.
	KindRound Kind = iota + 1
	// KindTransmit is one node's decision to transmit this round.
	KindTransmit
	// KindReception is one listener decoding a message, annotated with the
	// winning SINR value and its margin over β when the channel exposes the
	// reception observer hook (the SINR channels do; the radio channels
	// record NaN).
	KindReception
	// KindKnockout is an active node receiving a message this round — the
	// knockout event of the paper's core algorithm (the node deactivates).
	KindKnockout
	// KindClasses is a link-class census: the sizes n_i of the non-empty
	// link classes d_i entering the round.
	KindClasses
	// KindResult closes a trace with the execution's outcome.
	KindResult
)

// String returns the NDJSON event name of the kind.
func (k Kind) String() string {
	switch k {
	case KindRound:
		return "round"
	case KindTransmit:
		return "tx"
	case KindReception:
		return "recv"
	case KindKnockout:
		return "knockout"
	case KindClasses:
		return "classes"
	case KindResult:
		return "result"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one structured trace event. It is a flat union — Kind selects
// the meaningful fields — so a trace is a single []Record with no per-event
// allocations:
//
//	KindRound:     Round, Active (−1 when nodes expose no activity),
//	               Tx, Recv
//	KindTransmit:  Round, Node (the transmitter)
//	KindReception: Round, Node (the listener), From (the sender), SINR,
//	               Margin (NaN when the channel has no observer hook)
//	KindKnockout:  Round, Node (the deactivating listener)
//	KindClasses:   Round, Off/Len (window into the trace's class-size
//	               backing array; use Trace.ClassSizes to resolve)
//	KindResult:    Solved, Round (solving round or budget), Node (winner,
//	               −1 unsolved), Transmissions
type Record struct {
	Kind   Kind
	Round  int32
	Node   int32
	From   int32
	Active int32
	Tx     int32
	Recv   int32
	Off    int32
	Len    int32
	Solved bool
	SINR   float64
	Margin float64
	// Transmissions is the run's total transmission count (KindResult).
	Transmissions int64
}

// Header identifies a trace: what ran, over which deployment, under which
// seeds. Points is optional (it enables crtrace render's deployment view
// and the per-round link-class census); everything else is metadata that
// Diff treats as part of the trace identity.
type Header struct {
	// Schema is the trace schema version (SchemaVersion at write time).
	Schema int
	// Cmd names the producing command ("crsim", "crbench", ...).
	Cmd string
	// N is the number of nodes on the channel.
	N int
	// Seed is the protocol seed that drove the execution.
	Seed uint64
	// DeploySeed is the deployment seed (0 when the deployment was not
	// seed-derived, e.g. loaded from a file).
	DeploySeed uint64
	// Trial is the trial index within a Monte Carlo capture; 0 for single
	// runs.
	Trial int
	// Algo is the protocol builder's name.
	Algo string
	// Channel names the channel kind ("sinr", "rayleigh", "radio", ...).
	Channel string
	// MaxRounds is the execution's round budget.
	MaxRounds int
	// Points are the node positions, when the producer chose to embed them.
	Points []geom.Point
}

// Trace is one structured trace: the value a Recorder fills, the writers
// serialise and Read returns.
type Trace struct {
	// Header is the trace's identity record.
	Header Header
	// Records are the trace's events in recording order.
	Records []Record
	// classSizes backs the KindClasses records' Off/Len windows.
	classSizes []int32
}

// ClassSizes resolves a KindClasses record's census against the trace's
// backing array; it returns nil for other kinds.
func (t *Trace) ClassSizes(r Record) []int32 {
	if r.Kind != KindClasses {
		return nil
	}
	return t.classSizes[r.Off : r.Off+r.Len]
}
