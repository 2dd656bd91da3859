package sinr

import (
	"runtime"
	"sync/atomic"
	"testing"

	"fadingcr/internal/geom"
	"fadingcr/internal/xrand"
)

// atWorkers gives c's rounds w workers, as a channel of at least w tiles'
// worth of nodes built at GOMAXPROCS w would take, and returns c.
func atWorkers(c *Channel, w int) *Channel {
	c.setWorkers(w)
	return c
}

// tileStarts reports, for the certified round faded channel c just
// delivered to list (its whole listener list for Deliver), whether some
// tile after the first starts in the grid cell of the listener before it,
// and whether every tile after the first starts mid-stream, at a listener
// v with m·(v − t_v) > 0 (NewRayleigh). Pass one's list is list itself.
func tileStarts(c *Channel, tx []bool, list []int) (midCell, midStream bool) {
	midStream = len(list) > deliverTile && countTx(tx) > 0
	for lo := deliverTile; lo < len(list); lo += deliverTile {
		v, below := list[lo], 0
		for u := range v {
			if tx[u] {
				below++
			}
		}
		midStream = midStream && v > below
		midCell = midCell || c.grid.cellOf(list[lo-1]) == c.grid.cellOf(v)
	}
	return midCell, midStream
}

// TestParallelDeliverByteIdentical: for every channel variant, receptions
// are byte-identical at 1, 3 and 8 workers and to the channel as built,
// faded channels included, whose tiles each start from a copy of the
// round-start fade stream. Every round's listener list spans two tiles,
// through Deliver and through DeliverTo: certified rounds (20% of the
// nodes transmit), whose faded listeners walk the grid, and small rounds
// (1%), whose faded listeners bracket every fade. The nodes form a
// row-major lattice 65 wide, so a faded tile starts inside the cell of the
// last listener before it, and mid-stream; at α ≠ 3, and on a faded
// channel, each worker's pair loops read the signal and draw scratch it
// owns, which the race detector checks.
func TestParallelDeliverByteIdentical(t *testing.T) {
	const side = 65 // n = 4225; a round's listeners span two or three tiles
	n := side * side
	pts := gridPoints(side)
	p := gridParams(4, 1.5, 1, side)
	p3 := gridParams(3, 1.5, 1, side)
	powers := make([]float64, n)
	prng := xrand.New(3)
	for i := range powers {
		powers[i] = p.Power * (0.5 + prng.Float64())
	}
	cases := []struct {
		name  string
		build func() (*Channel, error)
	}{
		{"plain-fly", func() (*Channel, error) { return New(p, pts) }},
		{"power", func() (*Channel, error) { return NewWithPowers(p, pts, powers) }},
		{"rayleigh", func() (*Channel, error) { return NewRayleigh(p, pts, 42) }},
		{"rayleigh-alpha3", func() (*Channel, error) { return NewRayleigh(p3, pts, 42) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var chans []*Channel
			labels := []string{"as built", "workers=1", "workers=3", "workers=8"}
			for i := range labels {
				c, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				if i > 0 {
					c.setWorkers([]int{1, 3, 8}[i-1])
				}
				chans = append(chans, c)
			}
			rng := xrand.New(17)
			recvs := make([][]int, len(chans))
			for i := range recvs {
				recvs[i] = make([]int, n)
			}
			midCell := false
			for round, density := range []float64{0.2, 0.01, 0.2, 0.01} {
				tx := randomTx(rng, n, density)
				if listeners := n - countTx(tx); listeners <= deliverTile {
					t.Fatalf("round %d: %d listeners fill one tile; the workers would share nothing", round, listeners)
				}
				list := randomListeners(rng, n, 4)
				for _, deliverTo := range []bool{false, true} {
					for i, c := range chans {
						for v := range recvs[i] {
							recvs[i][v] = -7
						}
						if deliverTo {
							c.DeliverTo(tx, list, recvs[i])
						} else {
							c.Deliver(tx, recvs[i])
						}
					}
					for i := 1; i < len(recvs); i++ {
						for v := range recvs[0] {
							if recvs[0][v] != recvs[i][v] {
								t.Fatalf("round %d (DeliverTo %v) listener %d: %s recv %d, %s recv %d",
									round, deliverTo, v, labels[0], recvs[0][v], labels[i], recvs[i][v])
							}
						}
					}
					if chans[0].fade != nil && countTx(tx) > certSmallTx {
						full := chans[0].allListeners()
						if deliverTo {
							full = list
						}
						cell, stream := tileStarts(chans[0], tx, full)
						midCell = midCell || cell
						if !stream {
							t.Fatalf("round %d (DeliverTo %v): a tile starts at the stream's start", round, deliverTo)
						}
					}
				}
			}
			if chans[0].fade != nil && !midCell {
				t.Error("no faded tile started inside its predecessor's cell")
			}
		})
	}
}

// tileRecorder is a tiler that records which worker slot ran each position.
type tileRecorder struct {
	ran   []int32 // per position: 1 + the slot that ran it, 0 if none did
	count []int32 // per position: how many times it ran
	slots []atomic.Bool
}

func (r *tileRecorder) tile(slot, lo, hi int) {
	r.slots[slot].Store(true)
	for v := lo; v < hi; v++ {
		r.ran[v] = int32(slot + 1)
		r.count[v]++
	}
}

// TestRunTilesPartition: the tiles of a round are claimed, not dealt out,
// but the partition is fixed-shape — every position is covered exactly
// once at any worker count, including worker counts above the tile count
// and n not divisible by deliverTile — and each tile runs whole on one
// worker slot below the worker count, the caller's slot 0 always among
// them.
func TestRunTilesPartition(t *testing.T) {
	for _, n := range []int{0, 1, deliverTile - 1, deliverTile, deliverTile + 1, 3*deliverTile + 17} {
		for _, workers := range []int{1, 2, 7} {
			ensureHelpers(workers - 1)
			rec := &tileRecorder{ran: make([]int32, n), count: make([]int32, n), slots: make([]atomic.Bool, workers)}
			job := tileJob{run: rec}
			for round := 0; round < 3; round++ {
				clear(rec.count)
				job.runTiles(n, workers)
				for v, cnt := range rec.count {
					if cnt != 1 {
						t.Fatalf("n=%d workers=%d: position %d covered %d times, want exactly once", n, workers, v, cnt)
					}
					if first := v - v%deliverTile; rec.ran[v] != rec.ran[first] {
						t.Fatalf("n=%d workers=%d: tile of position %d split over slots %d and %d", n, workers, v, rec.ran[first]-1, rec.ran[v]-1)
					}
				}
			}
			if n > 0 && !rec.slots[0].Load() {
				t.Errorf("n=%d workers=%d: the caller claimed no tile", n, workers)
			}
		}
	}
}

// TestParallelObserverOrdering: the finalize pass is sequential, so the
// observer sees receptions in ascending listener order even with 8
// workers over a round of two tiles.
func TestParallelObserverOrdering(t *testing.T) {
	const side = 50
	n := side * side
	pts := gridPoints(side)
	p := gridParams(4, 1.5, 1, side)
	c, err := New(p, pts)
	if err != nil {
		t.Fatal(err)
	}
	c.setWorkers(8)
	var order []int
	c.SetObserver(observerFunc(func(listener, from int, sinr, margin float64) {
		order = append(order, listener)
	}))
	rng := xrand.New(29)
	recv := make([]int, n)
	tx := randomTx(rng, n, 0.05)
	if n-countTx(tx) <= deliverTile {
		t.Fatal("the round's listeners fill one tile")
	}
	c.Deliver(tx, recv)
	if len(order) == 0 {
		t.Fatal("no receptions observed; pick a sparser transmit density")
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("observer saw listener %d after %d — finalize pass not in ascending order", order[i], order[i-1])
		}
	}
}

// TestRoundWorkers: a channel takes one worker per core, but never more
// than a full round's tiles.
func TestRoundWorkers(t *testing.T) {
	for _, tc := range []struct{ n, procs, want int }{
		{1, 4, 1},
		{deliverTile, 4, 1},
		{deliverTile + 1, 4, 2},
		{3 * deliverTile, 2, 2},
		{3 * deliverTile, 1, 1},
		{100 * deliverTile, 8, 8},
	} {
		prev := runtime.GOMAXPROCS(tc.procs)
		got := roundWorkers(tc.n)
		runtime.GOMAXPROCS(prev)
		if got != tc.want {
			t.Errorf("n=%d at GOMAXPROCS %d: %d workers, want %d", tc.n, tc.procs, got, tc.want)
		}
	}
	c, err := New(Params{Alpha: 3, Beta: 1.5, Noise: 1, Power: 100}, []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if c.workers != 1 || len(c.scratch.tiles) != 1 {
		t.Errorf("a 2-node channel has %d workers and %d scratches, want 1 and 1", c.workers, len(c.scratch.tiles))
	}
}

// observerFunc adapts a function to the ReceptionObserver interface.
type observerFunc func(listener, from int, sinr, margin float64)

func (f observerFunc) OnReception(listener, from int, sinr, margin float64) {
	f(listener, from, sinr, margin)
}
