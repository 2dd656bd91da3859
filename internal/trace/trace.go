// Package trace is the structured run-tracing layer of the repository: it
// captures per-round, per-node execution events — round boundaries,
// transmit decisions, receptions annotated with the winning SINR value and
// margin, knockouts, link-class censuses — into a deterministic,
// schema-versioned event stream, and serialises it as NDJSON (one JSON
// object per line, internal/obs sink conventions) or a compact binary
// format for large runs. cmd/crtrace consumes the files.
//
// One value carries a trace everywhere: Recorder fills a Trace, the writers
// serialise it, and Read returns it. Read accepts only the bytes the
// writers produce, so every accepted stream re-encodes byte for byte.
//
// Tracing is strictly observational: a traced execution computes the exact
// float and rng sequences of an untraced one, so results are byte-identical
// with tracing on or off (TestTraceInvariance), and two same-seed traced
// runs produce byte-identical trace files (the determinism contract, made
// testable by Diff / `crtrace diff`).
//
// For Monte Carlo runs the Capture type composes with internal/runner:
// bounded retention policies (trace every Kth trial, keep failures only)
// and recorder recycling via Reset make tracing 10⁴ trials safe by
// construction.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"fadingcr/internal/core"
	"fadingcr/internal/geom"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
)

// Recorder is a sim.Tracer that captures a run as a Trace: every executed
// round appends its KindRound boundary and the run's end its KindResult
// record; PerNode adds the per-node transmit, reception and knockout
// records, and Classes the link-class censuses. It also implements
// sinr.ReceptionObserver (attach it to a channel with Attach to annotate
// receptions with their SINR values) and sim.ResultTracer.
//
// A Recorder is single-run, single-goroutine state; Reset recycles it —
// buffers included — for the next trial.
type Recorder struct {
	// Trace is the capture; the caller populates its Header before
	// serialising.
	Trace
	// PerNode enables structured capture of per-node transmit, reception,
	// and knockout records.
	PerNode bool
	// Classes additionally records the link-class census of every round.
	// It requires Header.Points to cover the deployment (and costs a
	// ComputeLinkClasses pass per round, allocating; leave it off for
	// allocation-sensitive captures).
	Classes bool

	active []bool // per-round activeness scratch

	// Pending receptions observed during the round's Deliver, joined with
	// recv in OnRound. Engines invoke observers in ascending listener
	// order, so the join is a single merge pass.
	pendNode   []int32
	pendSINR   []float64
	pendMargin []float64
}

var (
	_ sim.Tracer             = (*Recorder)(nil)
	_ sim.ResultTracer       = (*Recorder)(nil)
	_ sinr.ReceptionObserver = (*Recorder)(nil)
)

// observable is the observer surface of the SINR channels.
type observable interface {
	SetObserver(sinr.ReceptionObserver)
}

// Attach installs the recorder as ch's reception observer when the channel
// supports it and per-node capture is on; receptions then carry their SINR
// values and margins. Channels without the hook (the radio channels) are
// left untouched and receptions record NaN.
func Attach(rec *Recorder, ch sim.Channel) {
	if !rec.PerNode {
		return
	}
	if o, ok := ch.(observable); ok {
		o.SetObserver(rec)
	}
}

// Detach removes the recorder (or any observer) from ch.
func Detach(ch sim.Channel) {
	if o, ok := ch.(observable); ok {
		o.SetObserver(nil)
	}
}

// Reset clears the recorder for reuse, retaining every buffer's capacity so
// steady-state per-trial capture performs no per-round allocations (the
// AllocsPerRun regression in trace_test.go). Configuration (Header,
// PerNode, Classes) is left untouched; callers overwrite the header per
// trial.
func (r *Recorder) Reset() {
	r.Records = r.Records[:0]
	r.classSizes = r.classSizes[:0]
	r.active = r.active[:0]
	r.clearPending()
}

func (r *Recorder) clearPending() {
	r.pendNode = r.pendNode[:0]
	r.pendSINR = r.pendSINR[:0]
	r.pendMargin = r.pendMargin[:0]
}

// OnReception implements sinr.ReceptionObserver: it buffers the reception's
// SINR annotation until OnRound joins it with the round's recv vector.
func (r *Recorder) OnReception(listener, _ int, sinrVal, margin float64) {
	r.pendNode = append(r.pendNode, int32(listener))
	r.pendSINR = append(r.pendSINR, sinrVal)
	r.pendMargin = append(r.pendMargin, margin)
}

// OnRound implements sim.Tracer: it appends the round's records — the
// boundary, then per-node transmits, receptions (joined with the pending
// SINR annotations), knockouts, and the link-class census, each in
// ascending node order, so the stream is a deterministic function of the
// execution.
func (r *Recorder) OnRound(round int, nodes []sim.Node, tx []bool, recv []int) {
	rnd := int32(round)
	head := Record{Kind: KindRound, Round: rnd, Active: -1}
	for _, t := range tx {
		if t {
			head.Tx++
		}
	}
	for _, from := range recv {
		if from >= 0 {
			head.Recv++
		}
	}
	if cap(r.active) < len(nodes) {
		r.active = make([]bool, len(nodes))
	}
	r.active = r.active[:len(nodes)]
	haveActive := false
	activeCount := int32(0)
	for i, node := range nodes {
		r.active[i] = false
		if a, ok := node.(core.Activeness); ok {
			haveActive = true
			if a.Active() {
				r.active[i] = true
				activeCount++
			}
		}
	}
	if haveActive {
		head.Active = activeCount
	}
	r.Records = append(r.Records, head)

	if r.PerNode {
		for u, t := range tx {
			if t {
				r.Records = append(r.Records, Record{Kind: KindTransmit, Round: rnd, Node: int32(u)})
			}
		}
		pi := 0
		for v, from := range recv {
			if from < 0 {
				continue
			}
			rec := Record{
				Kind:   KindReception,
				Round:  rnd,
				Node:   int32(v),
				From:   int32(from),
				SINR:   math.NaN(),
				Margin: math.NaN(),
			}
			if pi < len(r.pendNode) && r.pendNode[pi] == int32(v) {
				rec.SINR = r.pendSINR[pi]
				rec.Margin = r.pendMargin[pi]
				pi++
			}
			r.Records = append(r.Records, rec)
		}
		if haveActive {
			for v, from := range recv {
				if from >= 0 && r.active[v] {
					r.Records = append(r.Records, Record{Kind: KindKnockout, Round: rnd, Node: int32(v)})
				}
			}
		}
	}
	if r.Classes && len(r.Header.Points) == len(recv) && haveActive {
		lc := geom.ComputeLinkClasses(r.Header.Points, r.active)
		off := int32(len(r.classSizes))
		for _, s := range lc.Sizes {
			r.classSizes = append(r.classSizes, int32(s))
		}
		r.Records = append(r.Records, Record{Kind: KindClasses, Round: rnd, Off: off, Len: int32(len(lc.Sizes))})
	}
	r.clearPending()
}

// OnResult implements sim.ResultTracer: it closes the trace with the
// execution's outcome.
func (r *Recorder) OnResult(res sim.Result) {
	r.Records = append(r.Records, Record{
		Kind:          KindResult,
		Round:         int32(res.Rounds),
		Node:          int32(res.Winner),
		Solved:        res.Solved,
		Transmissions: res.Transmissions,
	})
}

// WriteCSV writes the trace's round records as CSV with a header row. The
// active column is empty for protocols whose nodes do not expose activity
// (the −1 sentinel never reaches the file).
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"round", "transmitters", "receptions", "active"}); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, rec := range t.Records {
		if rec.Kind != KindRound {
			continue
		}
		active := ""
		if rec.Active >= 0 {
			active = strconv.Itoa(int(rec.Active))
		}
		row := []string{
			strconv.Itoa(int(rec.Round)),
			strconv.Itoa(int(rec.Tx)),
			strconv.Itoa(int(rec.Recv)),
			active,
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
