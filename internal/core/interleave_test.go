package core

import (
	"strings"
	"testing"

	"fadingcr/internal/geom"
	"fadingcr/internal/radio"
	"fadingcr/internal/sim"
)

// stubBuilder builds nodes following a fixed per-round action script and
// recording what they hear (for round-mapping assertions). It is its own
// population.
type stubBuilder struct {
	name     string
	txRounds []map[int]bool
	heard    [][]int // sub-protocol round numbers passed to Hear
}

func (b *stubBuilder) Name() string { return b.name }

func (b *stubBuilder) Populate(n int, seed uint64) sim.Population {
	b.txRounds = make([]map[int]bool, n)
	for u := range b.txRounds {
		b.txRounds[u] = map[int]bool{}
	}
	b.heard = make([][]int, n)
	return b
}

func (b *stubBuilder) Act(round int, live []int, tx []bool) (count, last int) {
	last = -1
	for _, u := range live {
		tx[u] = b.txRounds[u][round]
		if tx[u] {
			count++
			last = u
		}
	}
	return count, last
}

func (b *stubBuilder) Hear(round int, live []int, _ []int, _ sim.Feedback) []int {
	for _, u := range live {
		b.heard[u] = append(b.heard[u], round)
	}
	return live
}

func TestInterleavedName(t *testing.T) {
	il := Interleaved{A: FixedProbability{}, B: FixedProbability{P: 0.5}}
	if got := il.Name(); !strings.Contains(got, "⊕") {
		t.Errorf("Name = %q", got)
	}
}

func TestInterleavedRoundMapping(t *testing.T) {
	a := &stubBuilder{name: "a"}
	b := &stubBuilder{name: "b"}
	il := Interleaved{A: a, B: b}
	pop := il.Populate(1, 7)
	// A transmits in its rounds 1 and 3 (engine rounds 1 and 5); B in its
	// round 2 (engine round 4).
	a.txRounds[0][1] = true
	a.txRounds[0][3] = true
	b.txRounds[0][2] = true
	wantTx := map[int]bool{1: true, 4: true, 5: true}
	live, tx := []int{0}, []bool{false}
	for round := 1; round <= 6; round++ {
		if count, _ := pop.Act(round, live, tx); (count == 1) != wantTx[round] || tx[0] != wantTx[round] {
			t.Errorf("round %d: transmit = %v, want %v", round, tx[0], wantTx[round])
		}
		live = pop.Hear(round, live, []int{-1}, sim.Unknown)
	}
	// Hear must have been forwarded with sub-protocol numbering 1..3 each.
	want := []int{1, 2, 3}
	for i, w := range want {
		if a.heard[0][i] != w {
			t.Errorf("A heard %v, want %v", a.heard[0], want)
			break
		}
		if b.heard[0][i] != w {
			t.Errorf("B heard %v, want %v", b.heard[0], want)
			break
		}
	}
}

func TestInterleavedBuildPanics(t *testing.T) {
	for _, il := range []Interleaved{
		{A: nil, B: FixedProbability{}},
		{A: FixedProbability{}, B: nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v did not panic", il)
				}
			}()
			il.Populate(2, 1)
		}()
	}
}

func TestInterleavedSolvesOnSINR(t *testing.T) {
	// Fixed-probability interleaved with itself at another p: still solves,
	// at most ~2× the rounds.
	d, err := geom.UniformDisk(5, 64)
	if err != nil {
		t.Fatal(err)
	}
	il := Interleaved{A: FixedProbability{}, B: FixedProbability{P: 0.1}}
	res, err := sim.Run(sinrChannel(t, d), il, 9, sim.Config{MaxRounds: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("interleaved unsolved: %+v", res)
	}
}

func TestInterleavedInheritsBetterBound(t *testing.T) {
	// A stalls forever (always transmits); B is the working algorithm. The
	// interleaving must still solve, within ~2× B's budget.
	ch, err := radio.New(2, false)
	if err != nil {
		t.Fatal(err)
	}
	il := Interleaved{A: alwaysTx{}, B: FixedProbability{P: 0.5}}
	res, err := sim.Run(ch, il, 3, sim.Config{MaxRounds: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("interleaved with a stalling partner unsolved: %+v", res)
	}
	// The winning round must be even: only B (even rounds) can produce a
	// solo broadcast when A always transmits both nodes.
	if res.Rounds%2 != 0 {
		t.Errorf("solved in odd round %d, but A transmits both nodes every odd round", res.Rounds)
	}
}

// alwaysTx is a protocol whose nodes transmit in every round. It is its
// own population, and reports no activity.
type alwaysTx struct{}

func (alwaysTx) Name() string                                    { return "always-tx" }
func (alwaysTx) Populate(int, uint64) sim.Population             { return alwaysTx{} }
func (alwaysTx) Hear(_ int, live, _ []int, _ sim.Feedback) []int { return live }

func (alwaysTx) Act(_ int, live []int, tx []bool) (count, last int) {
	for _, u := range live {
		tx[u] = true
	}
	if len(live) == 0 {
		return 0, -1
	}
	return len(live), live[len(live)-1]
}

func TestInterleavedActive(t *testing.T) {
	// hear runs engine round r with node 0 receiving a message.
	hear := func(p sim.Population, r int, live []int) []int {
		p.Act(r, live, []bool{false})
		return p.Hear(r, live, []int{0}, sim.Unknown)
	}
	il := Interleaved{A: FixedProbability{}, B: alwaysTx{}}.Populate(1, 1).(*interleavedPopulation)
	if !il.Active(0) {
		t.Error("fresh interleaved node inactive")
	}
	// Knock out the fixed-probability half; the alwaysTx half has no
	// Activeness and counts as active, and still runs.
	if live := hear(il, 1, []int{0}); !il.Active(0) || len(live) != 1 {
		t.Error("node with a non-Activeness sub-protocol should stay active and live")
	}
	il2 := Interleaved{A: FixedProbability{}, B: FixedProbability{}}.Populate(1, 1).(*interleavedPopulation)
	live := hear(il2, 1, []int{0})
	if !il2.Active(0) || len(live) != 1 {
		t.Error("node with one half knocked out should stay active and live")
	}
	if live = hear(il2, 2, live); il2.Active(0) || len(live) != 0 {
		t.Error("node with both halves knocked out should be inactive and retired")
	}
}
