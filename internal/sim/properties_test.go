package sim

import (
	"testing"
	"testing/quick"

	"fadingcr/internal/radio"
	"fadingcr/internal/xrand"
)

// randomBuilder drives each node by an independent coin with a per-node
// bias, exercising the engine across arbitrary transmit patterns: node u
// transmits in round r when the first Float64 of
// xrand.New(Split(Split(seed, u), r)) falls below the bias.
type randomBuilder struct{ bias float64 }

func (b randomBuilder) Name() string { return "random" }
func (b randomBuilder) Populate(n int, seed uint64) Population {
	return &randomPopulation{seeds: xrand.SplitN(seed, n), bias: b.bias}
}

type randomPopulation struct {
	seeds []uint64
	bias  float64
}

func (p *randomPopulation) Act(round int, live []int, tx []bool) (count, last int) {
	last = -1
	for _, u := range live {
		tx[u] = xrand.New(xrand.Split(p.seeds[u], uint64(round))).Float64() < p.bias
		if tx[u] {
			count++
			last = u
		}
	}
	return count, last
}

func (p *randomPopulation) Hear(_ int, live []int, _ []int, _ Feedback) []int { return live }

// recorder verifies the engine's oracle from the outside.
type oracleChecker struct {
	t          *testing.T
	lastTxSum  int
	totalTxSum int64
	rounds     int
}

func (o *oracleChecker) OnRound(round int, nodes []Node, tx []bool, recv []int) {
	sum := 0
	for _, b := range tx {
		if b {
			sum++
		}
	}
	o.lastTxSum = sum
	o.totalTxSum += int64(sum)
	o.rounds = round
	// No transmitter may ever have a reception.
	for v := range tx {
		if tx[v] && recv[v] != -1 {
			o.t.Errorf("round %d: transmitter %d received %d", round, v, recv[v])
		}
	}
}

// TestEngineOracleProperty: for arbitrary biases, seeds and sizes — (1) the
// run ends exactly when one transmitter appears; (2) Result.Transmissions
// equals the traced sum; (3) the tracer sees exactly Result.Rounds rounds.
func TestEngineOracleProperty(t *testing.T) {
	f := func(seed uint64, nRaw, biasRaw uint8) bool {
		n := 1 + int(nRaw%20)
		bias := 0.05 + float64(biasRaw%90)/100
		ch, err := radio.New(n, false)
		if err != nil {
			return false
		}
		o := &oracleChecker{t: t}
		res, err := Run(ch, randomBuilder{bias: bias}, seed, Config{MaxRounds: 500, Tracer: o})
		if err != nil {
			return false
		}
		if o.rounds != res.Rounds {
			return false
		}
		if o.totalTxSum != res.Transmissions {
			return false
		}
		if res.Solved {
			return o.lastTxSum == 1 && res.Winner >= 0 && res.Winner < n
		}
		return res.Winner == -1 && res.Rounds == 500
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestEngineDeterminismProperty: equal (channel, builder, seed, config) give
// equal results.
func TestEngineDeterminismProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 1 + int(nRaw%16)
		run := func() Result {
			ch, err := radio.New(n, false)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(ch, randomBuilder{bias: 0.3}, seed, Config{MaxRounds: 300})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		return run() == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestEngineStopsExactlyAtFirstSolo: replay the same coin schedule manually
// and confirm the engine's solving round is the first round with exactly
// one transmitter.
func TestEngineStopsExactlyAtFirstSolo(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		const n = 9
		ch, err := radio.New(n, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(ch, randomBuilder{bias: 0.25}, seed, Config{MaxRounds: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Solved {
			continue
		}
		// Replay: nodes are pure functions of (seed, node index, round).
		firstSolo := 0
		for round := 1; round <= res.Rounds; round++ {
			sum := 0
			for i := 0; i < n; i++ {
				nodeSeed := xrand.Split(xrand.Split(seed, uint64(i)), uint64(round))
				if xrand.New(nodeSeed).Float64() < 0.25 {
					sum++
				}
			}
			if sum == 1 {
				firstSolo = round
				break
			}
		}
		if firstSolo != res.Rounds {
			t.Errorf("seed %d: engine solved at %d but first solo is %d", seed, res.Rounds, firstSolo)
		}
	}
}
