package sim

import (
	"testing"

	"fadingcr/internal/obs"
	"fadingcr/internal/radio"
)

// scheduleBuilder builds nodes that transmit in exactly the rounds listed
// in their schedules and records everything they hear. It is its own
// population.
type scheduleBuilder struct {
	schedules []map[int]bool
	heard     [][]int
	detects   [][]Feedback
}

func (b *scheduleBuilder) Name() string { return "schedule" }

func (b *scheduleBuilder) Populate(n int, seed uint64) Population {
	b.heard = make([][]int, n)
	b.detects = make([][]Feedback, n)
	return b
}

func (b *scheduleBuilder) Act(round int, live []int, tx []bool) (count, last int) {
	last = -1
	for _, u := range live {
		tx[u] = u < len(b.schedules) && b.schedules[u][round]
		if tx[u] {
			count++
			last = u
		}
	}
	return count, last
}

func (b *scheduleBuilder) Hear(round int, live []int, recv []int, detect Feedback) []int {
	for _, u := range live {
		b.heard[u] = append(b.heard[u], recv[u])
		b.detects[u] = append(b.detects[u], detect)
	}
	return live
}

func mustRadio(t *testing.T, n int, cd bool) Channel {
	t.Helper()
	ch, err := radio.New(n, cd)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestRunSoloBroadcastSolves(t *testing.T) {
	// Rounds 1–2: both nodes transmit (collision). Round 3: only node 1.
	b := &scheduleBuilder{schedules: []map[int]bool{
		{1: true, 2: true},
		{1: true, 2: true, 3: true},
	}}
	res, err := Run(mustRadio(t, 2, false), b, 1, Config{MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || res.Rounds != 3 || res.Winner != 1 {
		t.Errorf("Result = %+v, want solved in round 3 by node 1", res)
	}
	if res.Transmissions != 5 {
		t.Errorf("Transmissions = %d, want 5", res.Transmissions)
	}
	// Hear fires for every executed round, including the solving one.
	if got := len(b.heard[0]); got != 3 {
		t.Errorf("node 0 heard %d rounds, want 3", got)
	}
	// The solving round's message reaches the listener before termination.
	if got := b.heard[0][2]; got != 1 {
		t.Errorf("node 0 heard %d in the solving round, want 1 (the winner)", got)
	}
}

func TestRunBudgetExhausted(t *testing.T) {
	// Both nodes always transmit: never solo.
	always := map[int]bool{}
	for r := 1; r <= 5; r++ {
		always[r] = true
	}
	b := &scheduleBuilder{schedules: []map[int]bool{always, always}}
	res, err := Run(mustRadio(t, 2, false), b, 1, Config{MaxRounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved || res.Rounds != 5 || res.Winner != -1 {
		t.Errorf("Result = %+v, want unsolved after 5 rounds", res)
	}
	if res.Transmissions != 10 {
		t.Errorf("Transmissions = %d, want 10", res.Transmissions)
	}
}

func TestRunSingleNode(t *testing.T) {
	// One participant: its first transmission is a solo broadcast.
	b := &scheduleBuilder{schedules: []map[int]bool{{2: true}}}
	res, err := Run(mustRadio(t, 1, false), b, 1, Config{MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || res.Rounds != 2 || res.Winner != 0 {
		t.Errorf("Result = %+v, want solved in round 2 by node 0", res)
	}
}

func TestRunCollisionDetectionFeedback(t *testing.T) {
	// Round 1: collision; round 2: silence; round 3: solo broadcast. The
	// solving round's feedback is delivered before the oracle terminates
	// the run, so the listener observes the full trichotomy — Message was
	// once unreachable because Run returned before the final Hear
	// (regression test for that bug).
	b := &scheduleBuilder{schedules: []map[int]bool{
		{1: true},
		{1: true, 3: true},
		{},
	}}
	_, err := Run(mustRadio(t, 3, true), b, 1, Config{MaxRounds: 10, CollisionDetection: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []Feedback{Collision, Silence, Message}
	if got := len(b.detects[2]); got != len(want) {
		t.Fatalf("listener got %d feedback events, want %d", got, len(want))
	}
	for i, w := range want {
		if got := b.detects[2][i]; got != w {
			t.Errorf("round %d detect = %v, want %v", i+1, got, w)
		}
	}
	// The solving round also delivers the winner's message on a CD radio.
	if got := b.heard[2][2]; got != 1 {
		t.Errorf("listener heard %d in the solo round, want 1", got)
	}
}

func TestRunWithoutCollisionDetectionReportsUnknown(t *testing.T) {
	b := &scheduleBuilder{schedules: []map[int]bool{
		{1: true},
		{1: true},
	}}
	_, err := Run(mustRadio(t, 2, false), b, 1, Config{MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.detects[0][0]; got != Unknown {
		t.Errorf("detect = %v, want Unknown", got)
	}
}

func TestRunListenersReceiveOnRadio(t *testing.T) {
	// Round 1: two transmitters collide (nothing heard); round 2: node 0
	// transmits alone — solved, and the solving round's reception is
	// delivered to the listeners before the run terminates.
	b := &scheduleBuilder{schedules: []map[int]bool{
		{1: true, 2: true},
		{1: true},
		{},
	}}
	res, err := Run(mustRadio(t, 3, false), b, 1, Config{MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || res.Rounds != 2 || res.Winner != 0 {
		t.Fatalf("Result = %+v", res)
	}
	if got := b.heard[2]; len(got) != 2 || got[0] != -1 || got[1] != 0 {
		t.Errorf("listener heard %v, want [-1 0] (collision, then the solo sender)", got)
	}
}

func TestRunConfigValidation(t *testing.T) {
	b := &scheduleBuilder{}
	if _, err := Run(nil, b, 1, Config{MaxRounds: 1}); err == nil {
		t.Error("nil channel accepted")
	}
	if _, err := Run(mustRadio(t, 2, false), nil, 1, Config{MaxRounds: 1}); err == nil {
		t.Error("nil builder accepted")
	}
	if _, err := Run(mustRadio(t, 2, false), b, 1, Config{MaxRounds: 0}); err == nil {
		t.Error("MaxRounds=0 accepted")
	}
}

// countingTracer records the rounds it saw.
type countingTracer struct {
	rounds []int
	txSums []int
}

func (c *countingTracer) OnRound(round int, nodes []Node, tx []bool, recv []int) {
	c.rounds = append(c.rounds, round)
	sum := 0
	for _, t := range tx {
		if t {
			sum++
		}
	}
	c.txSums = append(c.txSums, sum)
}

func TestRunTracerSeesEveryRound(t *testing.T) {
	b := &scheduleBuilder{schedules: []map[int]bool{
		{1: true, 2: true},
		{1: true, 2: true, 3: true},
	}}
	tr := &countingTracer{}
	res, err := Run(mustRadio(t, 2, false), b, 1, Config{MaxRounds: 10, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Fatalf("Rounds = %d, want 3", res.Rounds)
	}
	if len(tr.rounds) != 3 || tr.rounds[2] != 3 {
		t.Errorf("tracer rounds = %v, want [1 2 3]", tr.rounds)
	}
	wantTx := []int{2, 2, 1}
	for i, w := range wantTx {
		if tr.txSums[i] != w {
			t.Errorf("tracer tx sums = %v, want %v", tr.txSums, wantTx)
			break
		}
	}
}

// Guard against accidental API drift: Feedback constants keep their
// documented ordering (Unknown is the zero value).
func TestFeedbackZeroValue(t *testing.T) {
	var f Feedback
	if f != Unknown {
		t.Errorf("zero Feedback = %v, want Unknown", f)
	}
}

func TestRunRecordsMetrics(t *testing.T) {
	runs0 := mRuns.Load()
	rounds0 := mRounds.Load()
	tx0 := mTransmissions.Load()
	recv0 := mReceptions.Load()
	// Rounds 1–2: both nodes transmit (collision, nothing received on a
	// plain radio channel). Round 3: only node 1 — solved, node 0 receives.
	b := &scheduleBuilder{schedules: []map[int]bool{
		{1: true, 2: true},
		{1: true, 2: true, 3: true},
	}}
	res, err := Run(mustRadio(t, 2, false), b, 1, Config{MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || res.Rounds != 3 {
		t.Fatalf("Result = %+v, want solved in round 3", res)
	}
	if got := mRuns.Load() - runs0; got != 1 {
		t.Errorf("sim.runs delta = %d, want 1", got)
	}
	if got := mRounds.Load() - rounds0; got != 3 {
		t.Errorf("sim.rounds delta = %d, want 3", got)
	}
	if got := mTransmissions.Load() - tx0; got != 5 {
		t.Errorf("sim.transmissions delta = %d, want 5", got)
	}
	if got := mReceptions.Load() - recv0; got != 1 {
		t.Errorf("sim.receptions delta = %d, want 1 (the solo broadcast)", got)
	}
}

func TestRunDisabledMetricsStillCorrect(t *testing.T) {
	// Disabling recording must not change execution results, only stop the
	// counters (the §8 observability contract).
	obs.SetEnabled(false)
	t.Cleanup(func() { obs.SetEnabled(true) })
	runs0 := mRuns.Load()
	b := &scheduleBuilder{schedules: []map[int]bool{
		{1: true, 2: true},
		{1: true, 2: true, 3: true},
	}}
	res, err := Run(mustRadio(t, 2, false), b, 1, Config{MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || res.Rounds != 3 || res.Winner != 1 || res.Transmissions != 5 {
		t.Errorf("Result = %+v, want solved in round 3 by node 1 with 5 transmissions", res)
	}
	if got := mRuns.Load() - runs0; got != 0 {
		t.Errorf("sim.runs advanced by %d with recording disabled", got)
	}
}

// resultTracer records OnRound/OnResult invocations for the ResultTracer
// contract tests.
type resultTracer struct {
	rounds  int
	results []Result
}

func (r *resultTracer) OnRound(round int, nodes []Node, tx []bool, recv []int) { r.rounds++ }
func (r *resultTracer) OnResult(res Result)                                    { r.results = append(r.results, res) }

func TestResultTracerSolvedRun(t *testing.T) {
	b := &scheduleBuilder{schedules: []map[int]bool{
		{1: true, 2: true},
		{1: true, 2: true, 3: true},
	}}
	rt := &resultTracer{}
	res, err := Run(mustRadio(t, 2, false), b, 1, Config{MaxRounds: 10, Tracer: rt})
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.results) != 1 {
		t.Fatalf("OnResult called %d times, want 1", len(rt.results))
	}
	if rt.results[0] != res {
		t.Errorf("OnResult got %+v, Run returned %+v", rt.results[0], res)
	}
	if rt.rounds != res.Rounds {
		t.Errorf("OnRound called %d times before OnResult, want %d", rt.rounds, res.Rounds)
	}
}

func TestResultTracerUnsolvedRun(t *testing.T) {
	// Both nodes always transmit: never solved within the budget.
	b := &scheduleBuilder{schedules: []map[int]bool{
		{1: true, 2: true, 3: true},
		{1: true, 2: true, 3: true},
	}}
	rt := &resultTracer{}
	res, err := Run(mustRadio(t, 2, false), b, 1, Config{MaxRounds: 3, Tracer: rt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Fatal("unexpectedly solved")
	}
	if len(rt.results) != 1 || rt.results[0] != res {
		t.Fatalf("OnResult calls = %+v, want exactly the returned result", rt.results)
	}
}

func TestResultTracerNotCalledOnError(t *testing.T) {
	rt := &resultTracer{}
	_, err := Run(mustRadio(t, 2, false), &scheduleBuilder{}, 1, Config{MaxRounds: 0, Tracer: rt})
	if err == nil {
		t.Fatal("MaxRounds=0 accepted")
	}
	if len(rt.results) != 0 {
		t.Errorf("OnResult called on an error return: %+v", rt.results)
	}
}
