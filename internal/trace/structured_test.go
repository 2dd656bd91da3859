package trace

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fadingcr/internal/core"
	"fadingcr/internal/geom"
	"fadingcr/internal/runner"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
)

// runStructured executes one fully traced run: per-node records, link-class
// censuses, and SINR annotations via the channel observer hook.
func runStructured(t testing.TB, deploySeed, protoSeed uint64, n int) (*Recorder, sim.Result) {
	t.Helper()
	d, err := geom.UniformDisk(deploySeed, n)
	if err != nil {
		t.Fatal(err)
	}
	params := sinr.Params{Alpha: 3, Beta: 1.5, Noise: 1}
	params.Power = sinr.MinSingleHopPower(params.Alpha, params.Beta, params.Noise, d.R, sinr.DefaultSingleHopMargin)
	ch, err := sinr.New(params, d.Points)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recorder{PerNode: true, Classes: true}
	rec.Header = Header{
		Schema:     SchemaVersion,
		Cmd:        "test",
		N:          n,
		Seed:       protoSeed,
		DeploySeed: deploySeed,
		Algo:       "fixedprob",
		Channel:    "sinr",
		MaxRounds:  2000,
		Points:     d.Points,
	}
	Attach(rec, ch)
	defer Detach(ch)
	res, err := sim.Run(ch, core.FixedProbability{}, protoSeed, sim.Config{MaxRounds: 2000, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	return rec, res
}

func TestStructuredRecordsAreConsistent(t *testing.T) {
	rec, res := runStructured(t, 3, 7, 12)
	if !res.Solved {
		t.Fatal("unsolved")
	}
	recs := rec.Records
	if len(recs) == 0 {
		t.Fatal("no structured records")
	}
	if recs[0].Kind != KindRound {
		t.Fatalf("first record kind = %s, want round", recs[0].Kind)
	}
	last := recs[len(recs)-1]
	if last.Kind != KindResult {
		t.Fatalf("last record kind = %s, want result", last.Kind)
	}
	if !last.Solved || int(last.Round) != res.Rounds || last.Transmissions != res.Transmissions {
		t.Errorf("result record %+v does not match result %+v", last, res)
	}

	// Per-round bookkeeping: tx/recv record counts match the round
	// aggregates, receptions carry exact SINR annotations, and every round
	// has one class census.
	var round Record
	txSeen, recvSeen, classSeen := 0, 0, 0
	check := func() {
		if round.Kind == 0 {
			return
		}
		if txSeen != int(round.Tx) {
			t.Errorf("round %d: %d tx records, aggregate says %d", round.Round, txSeen, round.Tx)
		}
		if recvSeen != int(round.Recv) {
			t.Errorf("round %d: %d recv records, aggregate says %d", round.Round, recvSeen, round.Recv)
		}
		if classSeen != 1 {
			t.Errorf("round %d: %d class censuses, want 1", round.Round, classSeen)
		}
	}
	for _, r := range recs {
		switch r.Kind {
		case KindRound:
			check()
			round, txSeen, recvSeen, classSeen = r, 0, 0, 0
			if r.Active < 0 {
				t.Errorf("round %d: active = %d, want ≥ 0 for core nodes", r.Round, r.Active)
			}
		case KindTransmit:
			txSeen++
		case KindReception:
			recvSeen++
			if math.IsNaN(r.SINR) {
				t.Errorf("round %d node %d: reception without SINR annotation", r.Round, r.Node)
			} else {
				if r.SINR < 1.5 {
					t.Errorf("round %d node %d: sinr %g below β", r.Round, r.Node, r.SINR)
				}
				if r.Margin != r.SINR-1.5 {
					t.Errorf("round %d node %d: margin %g, want %g", r.Round, r.Node, r.Margin, r.SINR-1.5)
				}
			}
		case KindClasses:
			classSeen++
			sizes := rec.ClassSizes(r)
			total := int32(0)
			for _, s := range sizes {
				total += s
			}
			if round.Kind == KindRound && total != round.Active {
				t.Errorf("round %d: class census sums to %d, active = %d", round.Round, total, round.Active)
			}
		}
	}
	check()
}

// roundTrip serialises the recorder and reads it back.
func roundTrip(t *testing.T, rec *Recorder, f Format) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Write(&rec.Trace, &buf); err != nil {
		t.Fatalf("write %s: %v", f, err)
	}
	tr, err := Read(&buf)
	if err != nil {
		t.Fatalf("read %s: %v", f, err)
	}
	return tr
}

func TestFormatsRoundTripEquivalently(t *testing.T) {
	rec, _ := runStructured(t, 5, 11, 10)
	nd := roundTrip(t, rec, FormatNDJSON)
	bin := roundTrip(t, rec, FormatBinary)
	if d := Diff(nd, bin); d != nil {
		t.Fatalf("ndjson and binary round-trips diverge: %+v", d)
	}
	if len(nd.Records) != len(rec.Records) {
		t.Fatalf("round-trip kept %d records, recorder has %d", len(nd.Records), len(rec.Records))
	}
	if nd.Header.Seed != rec.Header.Seed || nd.Header.Algo != rec.Header.Algo ||
		len(nd.Header.Points) != len(rec.Header.Points) {
		t.Errorf("header mangled: %+v", nd.Header)
	}
	// Annotations survive bit-exactly in both formats.
	for i, r := range rec.Records {
		if r.Kind != KindReception {
			continue
		}
		for _, tr := range []*Trace{nd, bin} {
			got := tr.Records[i]
			if math.Float64bits(got.SINR) != math.Float64bits(r.SINR) ||
				math.Float64bits(got.Margin) != math.Float64bits(r.Margin) {
				t.Fatalf("record %d: sinr/margin not bit-preserved: %+v vs %+v", i, got, r)
			}
		}
	}
}

func TestNDJSONShape(t *testing.T) {
	rec, _ := runStructured(t, 2, 9, 8)
	var buf bytes.Buffer
	if err := rec.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if !strings.HasPrefix(lines[0], `{"event":"header","schema":1,`) {
		t.Errorf("header line = %q", lines[0])
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, `{"event":"`) {
			t.Fatalf("line %d does not lead with the event discriminator: %q", i+1, line)
		}
	}
}

func TestReceptionWithoutObserverOmitsSINR(t *testing.T) {
	rec := &Recorder{PerNode: true}
	rec.Header = Header{Schema: SchemaVersion, Cmd: "test"}
	rec.OnRound(1, []sim.Node{opaque{}, opaque{}}, []bool{true, false}, []int{-1, 0})
	var buf bytes.Buffer
	if err := rec.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "sinr") {
		t.Errorf("unannotated reception leaked a sinr field:\n%s", buf.String())
	}
	tr, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var recv *Record
	for i := range tr.Records {
		if tr.Records[i].Kind == KindReception {
			recv = &tr.Records[i]
		}
	}
	if recv == nil {
		t.Fatal("no reception record")
	}
	if !math.IsNaN(recv.SINR) || !math.IsNaN(recv.Margin) {
		t.Errorf("absent annotation read back as %g/%g, want NaN", recv.SINR, recv.Margin)
	}
}

func TestDiff(t *testing.T) {
	recA, _ := runStructured(t, 4, 13, 9)
	recB, _ := runStructured(t, 4, 13, 9)
	a := roundTrip(t, recA, FormatNDJSON)
	b := roundTrip(t, recB, FormatBinary)
	if d := Diff(a, b); d != nil {
		t.Fatalf("same-seed traces diverge: %+v", d)
	}

	b.Header.Seed++
	if d := Diff(a, b); d == nil || d.Field != "seed" || d.Index != -1 {
		t.Errorf("header divergence = %+v, want seed at index -1", d)
	}
	b.Header.Seed--

	for i := range b.Records {
		if b.Records[i].Kind == KindReception {
			b.Records[i].SINR += 1e-12
			if d := Diff(a, b); d == nil || d.Field != "sinr" || d.Index != i {
				t.Errorf("sinr divergence = %+v, want sinr at index %d", d, i)
			}
			b.Records[i].SINR = a.Records[i].SINR
			break
		}
	}

	b.Records = b.Records[:len(b.Records)-1]
	if d := Diff(a, b); d == nil || d.Field != "length" {
		t.Errorf("truncation divergence = %+v, want length", d)
	}
}

// activeNode exposes activity so OnRound's per-node path runs in the alloc
// benchmark below.
type activeNode struct{ active bool }

func (n activeNode) Active() bool { return n.active }

func TestRecorderResetReusesBuffers(t *testing.T) {
	rec := &Recorder{PerNode: true}
	nodes := []sim.Node{activeNode{true}, activeNode{true}, activeNode{false}, activeNode{true}}
	tx := []bool{true, false, true, false}
	recv := []int{-1, 0, -1, 2}

	// One warm-up pass sizes every buffer.
	for round := 1; round <= 50; round++ {
		rec.OnReception(1, 0, 2.5, 1.0)
		rec.OnReception(3, 2, 3.5, 2.0)
		rec.OnRound(round, nodes, tx, recv)
	}
	rec.OnResult(sim.Result{Solved: true, Rounds: 50, Winner: 0, Transmissions: 100})

	allocs := testing.AllocsPerRun(20, func() {
		rec.Reset()
		for round := 1; round <= 50; round++ {
			rec.OnReception(1, 0, 2.5, 1.0)
			rec.OnReception(3, 2, 3.5, 2.0)
			rec.OnRound(round, nodes, tx, recv)
		}
		rec.OnResult(sim.Result{Solved: true, Rounds: 50, Winner: 0, Transmissions: 100})
	})
	if allocs != 0 {
		t.Errorf("recycled per-trial capture allocates %.1f times per trial, want 0", allocs)
	}
	if got := len(rounds(&rec.Trace)); got != 50 {
		t.Fatalf("reset run lost records: %d rounds", got)
	}
}

func TestCaptureSamplingAndFilenames(t *testing.T) {
	dir := t.TempDir()
	cap1, err := NewCapture("test", Policy{Dir: dir, EveryK: 3})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 7; trial++ {
		rec := cap1.Recorder(trial)
		if (trial%3 == 0) != (rec != nil) {
			t.Fatalf("trial %d: sampled = %v, want every 3rd", trial, rec != nil)
		}
		if rec == nil {
			continue
		}
		if !rec.PerNode || rec.Header.Trial != trial || rec.Header.Cmd != "test" {
			t.Fatalf("trial %d recorder misconfigured: %+v", trial, rec.Header)
		}
		rec.Header.Seed = 0xabc0 + uint64(trial)
		rec.OnRound(1, []sim.Node{activeNode{true}}, []bool{true}, []int{-1})
		rec.OnResult(sim.Result{Solved: false, Rounds: 1, Winner: -1, Transmissions: 1})
		if err := cap1.Commit(trial, rec, false); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		"trial-000000-seed-000000000000abc0.ndjson",
		"trial-000003-seed-000000000000abc3.ndjson",
		"trial-000006-seed-000000000000abc6.ndjson",
	}
	got := cap1.Written()
	if len(got) != len(want) {
		t.Fatalf("written = %v", got)
	}
	for i, p := range got {
		if filepath.Base(p) != want[i] {
			t.Errorf("file %d = %s, want %s", i, filepath.Base(p), want[i])
		}
		tr, err := readFile(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if tr.Header.Trial != i*3 {
			t.Errorf("%s: trial = %d", p, tr.Header.Trial)
		}
	}
}

func readFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

func TestCaptureFailuresOnly(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCapture("test", Policy{Dir: dir, FailuresOnly: true, Format: FormatBinary})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		rec := c.Recorder(trial)
		rec.Header.Seed = uint64(trial)
		rec.OnRound(1, []sim.Node{activeNode{true}}, []bool{false}, []int{-1})
		solved := trial%2 == 0
		rec.OnResult(sim.Result{Solved: solved, Rounds: 1, Winner: -1})
		if err := c.Commit(trial, rec, solved); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Written(); len(got) != 2 {
		t.Fatalf("written = %v, want the two failed trials", got)
	}
	if c.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", c.Dropped())
	}
	for _, p := range c.Written() {
		tr, err := readFile(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		last := tr.Records[len(tr.Records)-1]
		if last.Kind != KindResult || last.Solved {
			t.Errorf("%s retained a solved trial: %+v", p, last)
		}
	}
}

// TestCaptureParallelismInvariance runs the same Monte Carlo capture at
// parallelism 1 and 8 and asserts the trace files are byte-identical — the
// capture layer preserves the runner's determinism contract.
func TestCaptureParallelismInvariance(t *testing.T) {
	const master, trials, n = 0xfade, 6, 8
	run := func(parallelism int) (string, *Capture) {
		dir := t.TempDir()
		c, err := NewCapture("test", Policy{Dir: dir, EveryK: 2, Classes: true})
		if err != nil {
			t.Fatal(err)
		}
		_, err = runner.Run(context.Background(), trials, func(_ context.Context, trial int) (bool, error) {
			deploySeed, protoSeed := runner.TrialSeeds(master, trial)
			d, err := geom.UniformDisk(deploySeed, n)
			if err != nil {
				return false, err
			}
			params := sinr.Params{Alpha: 3, Beta: 1.5, Noise: 1}
			params.Power = sinr.MinSingleHopPower(params.Alpha, params.Beta, params.Noise, d.R, sinr.DefaultSingleHopMargin)
			ch, err := sinr.New(params, d.Points)
			if err != nil {
				return false, err
			}
			rec := c.Recorder(trial)
			cfg := sim.Config{MaxRounds: 2000}
			if rec != nil {
				rec.Header.N = n
				rec.Header.Seed = protoSeed
				rec.Header.DeploySeed = deploySeed
				rec.Header.Algo = "fixedprob"
				rec.Header.Channel = "sinr"
				rec.Header.MaxRounds = cfg.MaxRounds
				rec.Header.Points = append(rec.Header.Points[:0], d.Points...)
				cfg.Tracer = rec
				Attach(rec, ch)
			}
			res, err := sim.Run(ch, core.FixedProbability{}, protoSeed, cfg)
			if err != nil {
				return false, err
			}
			if rec != nil {
				if err := c.Commit(trial, rec, res.Solved); err != nil {
					return false, err
				}
			}
			return res.Solved, nil
		}, runner.Options[bool]{Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		return dir, c
	}

	dirA, capA := run(1)
	dirB, capB := run(8)
	filesA, filesB := capA.Written(), capB.Written()
	if len(filesA) != 3 || len(filesB) != 3 {
		t.Fatalf("written %d and %d files, want 3 each", len(filesA), len(filesB))
	}
	for i := range filesA {
		ra, rb := filepath.Base(filesA[i]), filepath.Base(filesB[i])
		if ra != rb {
			t.Fatalf("file %d named %s vs %s", i, ra, rb)
		}
		ba, err := os.ReadFile(filepath.Join(dirA, ra))
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(filepath.Join(dirB, rb))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) {
			ta, _ := readFile(filesA[i])
			tb, _ := readFile(filesB[i])
			t.Fatalf("%s differs across parallelism: %+v", ra, Diff(ta, tb))
		}
	}
}

func TestWriteCSVEmptyActiveField(t *testing.T) {
	rec := &Trace{Records: []Record{
		{Kind: KindRound, Round: 1, Tx: 2, Recv: 1, Active: -1},
		{Kind: KindRound, Round: 2, Tx: 1, Recv: 1, Active: 5},
	}}
	var b strings.Builder
	if err := rec.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[1] != "1,2,1," {
		t.Errorf("sentinel row = %q, want empty active field", lines[1])
	}
	if lines[2] != "2,1,1,5" {
		t.Errorf("active row = %q", lines[2])
	}
}

func TestSummarize(t *testing.T) {
	var traces []*Trace
	for _, seed := range []uint64{7, 8, 9} {
		rec, _ := runStructured(t, 6, seed, 9)
		traces = append(traces, roundTrip(t, rec, FormatNDJSON))
	}
	s := Summarize(traces)
	if s.Traces != 3 || s.Solved+s.Unsolved != 3 {
		t.Fatalf("summary outcome mix %+v", s)
	}
	if len(s.Rounds) != 3 || len(s.Transmissions) != 3 {
		t.Fatalf("per-trace vectors sized %d/%d", len(s.Rounds), len(s.Transmissions))
	}
	maxRounds := 0
	for i, r := range s.Rounds {
		if r <= 0 {
			t.Errorf("trace %d rounds = %d", i, r)
		}
		if r > maxRounds {
			maxRounds = r
		}
		if s.Transmissions[i] <= 0 {
			t.Errorf("trace %d transmissions = %d", i, s.Transmissions[i])
		}
	}
	if len(s.MeanTx) != maxRounds || len(s.Running) != maxRounds {
		t.Fatalf("contention curve spans %d rounds, want %d", len(s.MeanTx), maxRounds)
	}
	if s.Running[0] != 3 {
		t.Errorf("round 1 running = %d, want 3", s.Running[0])
	}
	var nodeTotal int64
	for _, c := range s.NodeTx {
		nodeTotal += c
	}
	var resTotal int64
	for _, tr := range s.Transmissions {
		resTotal += tr
	}
	if nodeTotal != resTotal {
		t.Errorf("per-node tx counts sum to %d, results say %d", nodeTotal, resTotal)
	}
}
