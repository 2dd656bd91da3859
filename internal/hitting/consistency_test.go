package hitting

import (
	"testing"

	"fadingcr/internal/core"
	"fadingcr/internal/sim"
)

// TestSimulationConsistency formalises the consistency argument at the heart
// of Lemma 14: in the k-node simulation where every node is fed silence, the
// state (and therefore the action stream) of any single virtual node i is
// identical to that node's behaviour in an isolated execution in which it
// also receives nothing — "the states of simulated nodes i and j are
// consistent with an execution where only nodes i and j are present".
func TestSimulationConsistency(t *testing.T) {
	const k = 16
	const rounds = 60
	seed := uint64(12345)

	// The simulation player's virtual nodes.
	player, err := NewSimulationPlayer(core.FixedProbability{}, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	// Record each node's membership in every proposal.
	proposed := make([][]bool, rounds)
	for r := 0; r < rounds; r++ {
		proposed[r] = make([]bool, k+1)
		for _, id := range player.Propose(r + 1) {
			proposed[r][id] = true
		}
		player.Reject(r + 1)
	}

	// Isolated replicas: node i built exactly as the builder builds node i
	// (same split seed), stepped alone and fed silence every round.
	replicas := core.FixedProbability{}.Populate(k, seed)
	tx, silence := make([]bool, k), make([]int, k)
	for i := range silence {
		silence[i] = -1
	}
	for r := 1; r <= rounds; r++ {
		for i := range k {
			alone := []int{i}
			replicas.Act(r, alone, tx)
			if tx[i] != proposed[r-1][i+1] {
				t.Fatalf("round %d node %d: isolated action %v != simulated proposal %v",
					r, i, tx[i], proposed[r-1][i+1])
			}
			replicas.Hear(r, alone, silence, sim.Unknown)
		}
	}
}
