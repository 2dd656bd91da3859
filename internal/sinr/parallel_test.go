package sinr

import (
	"fmt"
	"testing"

	"fadingcr/internal/xrand"
)

// deliverer is the Deliver surface the byte-identity cases compare.
type deliverer interface {
	Deliver(tx []bool, recv []int)
}

// TestParallelDeliverByteIdentical: for every channel variant, the parallel
// option must produce receptions byte-identical at workers 1, 3, and 8 and
// identical to the sequential default with no parallel option at all —
// faded channels included, which stay on their one fade stream. A
// certified round tiles only its non-transmitting listeners, so n is large
// enough that they exceed deliverTile and the partition genuinely has
// several tiles to distribute: at α = 4 each worker's pair loops read the
// signal scratch it owns, which the race detector checks.
func TestParallelDeliverByteIdentical(t *testing.T) {
	const side = 64 // n = 4096; a round's ~3300 listeners span two tiles
	n := side * side
	pts := gridPoints(side)
	p := gridParams(4, 1.5, 1, side)
	powers := make([]float64, n)
	prng := xrand.New(3)
	for i := range powers {
		powers[i] = p.Power * (0.5 + prng.Float64())
	}
	workerCounts := []int{1, 3, 8}

	// Each case builds one channel per worker count plus (optionally) a
	// baseline channel with no parallel option; all must agree bytewise.
	cases := []struct {
		name     string
		baseline func() (deliverer, error)
		build    func(workers int) (deliverer, error)
	}{
		{
			name:     "plain-fly",
			baseline: func() (deliverer, error) { return New(p, pts) },
			build: func(w int) (deliverer, error) {
				return New(p, pts, WithDeliverParallelism(w))
			},
		},
		{
			name:     "power",
			baseline: func() (deliverer, error) { return NewWithPowers(p, pts, powers) },
			build: func(w int) (deliverer, error) {
				return NewWithPowers(p, pts, powers, WithDeliverParallelism(w))
			},
		},
		{
			name:     "rayleigh",
			baseline: func() (deliverer, error) { return NewRayleigh(p, pts, 42) },
			build: func(w int) (deliverer, error) {
				return NewRayleigh(p, pts, 42, WithDeliverParallelism(w))
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.baseline()
			if err != nil {
				t.Fatal(err)
			}
			chans, labels := []deliverer{c}, []string{"sequential"}
			for _, w := range workerCounts {
				c, err := tc.build(w)
				if err != nil {
					t.Fatal(err)
				}
				chans = append(chans, c)
				labels = append(labels, fmt.Sprintf("workers=%d", w))
			}
			rng := xrand.New(17)
			recvs := make([][]int, len(chans))
			for i := range recvs {
				recvs[i] = make([]int, n)
			}
			for round := 0; round < 3; round++ {
				tx := randomTx(rng, n, 0.2)
				if listeners := n - countTx(tx); listeners <= deliverTile {
					t.Fatalf("round %d: %d listeners fill one tile; the workers would share nothing", round, listeners)
				}
				for i, c := range chans {
					c.Deliver(tx, recvs[i])
				}
				for i := 1; i < len(recvs); i++ {
					for v := range recvs[0] {
						if recvs[0][v] != recvs[i][v] {
							t.Fatalf("round %d listener %d: %s recv %d, %s recv %d",
								round, v, labels[0], recvs[0][v], labels[i], recvs[i][v])
						}
					}
				}
			}
		})
	}
}

// TestRunTilesPartition: the tile partition is fixed-shape — every listener
// is covered exactly once at any worker count, including worker counts
// above the tile count (clamped) and n not divisible by deliverTile.
func TestRunTilesPartition(t *testing.T) {
	for _, n := range []int{1, deliverTile - 1, deliverTile, deliverTile + 1, 3*deliverTile + 17} {
		for _, workers := range []int{1, 2, 7, MaxDeliverParallelism} {
			seen := make([]int, n)
			runTiles(n, workers, func(_, lo, hi int) {
				for v := lo; v < hi; v++ {
					seen[v]++
				}
			})
			for v, cnt := range seen {
				if cnt != 1 {
					t.Fatalf("n=%d workers=%d: listener %d covered %d times, want exactly once", n, workers, v, cnt)
				}
			}
		}
	}
}

// TestParallelObserverOrdering: the finalize pass is sequential, so the
// observer sees receptions in ascending listener order even with 8 workers.
func TestParallelObserverOrdering(t *testing.T) {
	const side = 50
	n := side * side
	pts := gridPoints(side)
	p := gridParams(4, 1.5, 1, side)
	c, err := New(p, pts, WithDeliverParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	c.SetObserver(observerFunc(func(listener, from int, sinr, margin float64) {
		order = append(order, listener)
	}))
	rng := xrand.New(29)
	recv := make([]int, n)
	c.Deliver(randomTx(rng, n, 0.05), recv)
	if len(order) == 0 {
		t.Fatal("no receptions observed; pick a sparser transmit density")
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("observer saw listener %d after %d — finalize pass not in ascending order", order[i], order[i-1])
		}
	}
}

// observerFunc adapts a function to the ReceptionObserver interface.
type observerFunc func(listener, from int, sinr, margin float64)

func (f observerFunc) OnReception(listener, from int, sinr, margin float64) {
	f(listener, from, sinr, margin)
}
