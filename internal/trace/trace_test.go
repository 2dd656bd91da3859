package trace

import (
	"errors"
	"strings"
	"testing"

	"fadingcr/internal/core"
	"fadingcr/internal/geom"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
)

func runTraced(t *testing.T) (*Recorder, sim.Result) {
	t.Helper()
	d, err := geom.UniformDisk(3, 20)
	if err != nil {
		t.Fatal(err)
	}
	params := sinr.Params{Alpha: 3, Beta: 1.5, Noise: 1}
	params.Power = sinr.MinSingleHopPower(params.Alpha, params.Beta, params.Noise, d.R, sinr.DefaultSingleHopMargin)
	ch, err := sinr.New(params, d.Points)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recorder{}
	res, err := sim.Run(ch, core.FixedProbability{}, 7, sim.Config{MaxRounds: 2000, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	return rec, res
}

// rounds returns the trace's KindRound records.
func rounds(tr *Trace) []Record {
	var out []Record
	for _, r := range tr.Records {
		if r.Kind == KindRound {
			out = append(out, r)
		}
	}
	return out
}

// TestRecorderCapturesRounds: without per-node capture a recorder still
// holds one round record per executed round, then the result record.
func TestRecorderCapturesRounds(t *testing.T) {
	rec, res := runTraced(t)
	if !res.Solved {
		t.Fatal("unsolved")
	}
	rs := rounds(&rec.Trace)
	if len(rs) != res.Rounds || len(rec.Records) != res.Rounds+1 {
		t.Fatalf("%d round records of %d, want %d and a result", len(rs), len(rec.Records), res.Rounds)
	}
	var totalTx int64
	for i, e := range rs {
		if int(e.Round) != i+1 {
			t.Errorf("round record %d has round %d", i, e.Round)
		}
		if e.Active < 0 {
			t.Errorf("round %d: active = %d, want ≥ 0 for core nodes", e.Round, e.Active)
		}
		totalTx += int64(e.Tx)
	}
	if totalTx != res.Transmissions {
		t.Errorf("traced transmissions %d != result %d", totalTx, res.Transmissions)
	}
	if last := rs[len(rs)-1]; last.Tx != 1 {
		t.Errorf("solving round transmitters = %d, want 1", last.Tx)
	}
	if last := rec.Records[len(rec.Records)-1]; last.Kind != KindResult || int(last.Round) != res.Rounds {
		t.Errorf("last record %+v, want the result", last)
	}
}

func TestRecorderWithoutActivenessNodes(t *testing.T) {
	rec := &Recorder{}
	rec.OnRound(1, []sim.Node{opaque{}, opaque{}}, []bool{true, false}, []int{-1, 0})
	e := rec.Records[0]
	if e.Active != -1 {
		t.Errorf("Active = %d, want -1 for opaque nodes", e.Active)
	}
	if e.Tx != 1 || e.Recv != 1 {
		t.Errorf("round record = %+v", e)
	}
}

// opaque is a node that reports no activity.
type opaque struct{}

func TestWriteCSV(t *testing.T) {
	rec, _ := runTraced(t)
	var b strings.Builder
	if err := rec.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "round,transmitters,receptions,active" {
		t.Errorf("header = %q", lines[0])
	}
	if want := len(rounds(&rec.Trace)) + 1; len(lines) != want {
		t.Errorf("lines = %d, want %d", len(lines), want)
	}
}

// failWriter errors after a fixed number of bytes, exercising the CSV error
// paths.
type failWriter struct{ budget int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.budget <= 0 {
		return 0, errWriteFailed
	}
	n := len(p)
	if n > w.budget {
		n = w.budget
	}
	w.budget -= n
	if n < len(p) {
		return n, errWriteFailed
	}
	return n, nil
}

var errWriteFailed = errors.New("write failed")

func TestWriteCSVPropagatesWriterErrors(t *testing.T) {
	rec := &Trace{Records: []Record{{Kind: KindRound, Round: 1, Tx: 1, Active: 2}}}
	if err := rec.WriteCSV(&failWriter{budget: 0}); err == nil {
		t.Error("header write failure not propagated")
	}
	if err := rec.WriteCSV(&failWriter{budget: 40}); err == nil {
		t.Error("row write failure not propagated")
	}
}
