package sinr

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Intra-round parallel delivery.
//
// Pass one of DeliverTo accumulates per-listener state over fixed
// deliverTile-wide tiles of the list it visits: the listener list, or in an
// unfaded certified round the same listeners in cell order
// (txGrid.sortListeners). Either list holds distinct listeners, so tiles
// touch disjoint entries of the scratch arrays and can run concurrently
// with no synchronisation beyond the final join. Tile t always covers list
// positions [t·deliverTile, min((t+1)·deliverTile, len)); which worker runs
// it is whoever claims it first from the round's counter, and no
// listener's float operations depend on that or on its tile: what a cell's
// listeners share (certBlock) is a function of the cell, rebuilt by a tile
// that starts inside it, each listener's sums are its own, and a faded
// tile starts from its own copy of the round-start fade stream, advanced
// to its first listener's position. So receptions are byte-identical at
// any worker count and for any listener list. Pass two (threshold +
// observer) always runs sequentially in ascending listener order,
// preserving the ReceptionObserver ordering contract.
//
// The caller of a round always runs tiles itself, tile 0 first, and hands
// the round only to helpers idle at that moment: a one-tile round, or a
// round whose caller finds every helper busy with other channels' rounds,
// runs on the caller alone. Helpers come from one package-wide pool,
// started as channels are built, and nothing is allocated per round.

// deliverTile is the fixed listener-tile width of pass one: tile t covers
// positions [t·deliverTile, (t+1)·deliverTile) of the round's list. The
// value is part of the determinism contract (DESIGN.md §8): the tile
// partition fixes the parallel work shape, and because every per-listener
// float sequence is confined to one tile, receptions are byte-identical at
// any worker count — but the constant itself must never silently change
// between releases that promise reproducibility.
const deliverTile = 2048

// roundWorkers is the worker count of a channel over n nodes: one per core
// (GOMAXPROCS), but no more than a full round's tiles.
func roundWorkers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), (n+deliverTile-1)/deliverTile))
}

// A tiler runs pass one over list positions [lo, hi) on the scratch of
// worker slot.
type tiler interface {
	tile(slot, lo, hi int)
}

// tileJob is one round's pass one as its workers share it: the tiles of an
// n-position list, claimed from a counter. A channel owns one and reuses it
// every round.
type tileJob struct {
	run   tiler
	n     int
	tiles int
	next  atomic.Int64   // the next unclaimed tile
	wg    sync.WaitGroup // the helpers working on the round
}

// tileTask hands job to a helper, which works on worker slot's scratch.
type tileTask struct {
	job  *tileJob
	slot int
}

// The package's pool of tile helpers: goroutines parked on helperTasks.
// It grows, as channels are built, to one less than the largest worker
// count any channel was built for (the caller works too), which is
// GOMAXPROCS − 1 in a program that does not change GOMAXPROCS. It has no
// stop method: an idle helper is a parked goroutine that costs no CPU, and
// no channel's lifetime bounds the pool, which every channel shares.
var (
	helperTasks = make(chan tileTask)
	helpersMu   sync.Mutex
	helpersUp   int // the helpers started
)

// ensureHelpers starts helpers until the pool holds at least k.
func ensureHelpers(k int) {
	helpersMu.Lock()
	defer helpersMu.Unlock()
	for ; helpersUp < k; helpersUp++ {
		go help()
	}
}

// help is a helper's life: take a round, claim its tiles until none is
// left, report done, park again.
func help() {
	for t := range helperTasks {
		t.job.claim(t.slot)
		t.job.wg.Done()
	}
}

// runTiles runs every tile of an n-position list: on the caller, as worker
// slot 0, which takes tile 0 before it offers the rest, and on up to
// workers − 1 helpers that are idle now, as slots 1, 2, … It returns once
// every tile has run, so every write a tile made is visible to the caller.
//
//crlint:hotpath
func (j *tileJob) runTiles(n, workers int) {
	j.n, j.tiles = n, (n+deliverTile-1)/deliverTile
	j.next.Store(1)
	for slot := 1; slot < min(workers, j.tiles) && j.hand(slot); slot++ {
	}
	j.run.tile(0, 0, min(deliverTile, n))
	j.claim(0)
	j.wg.Wait()
}

// hand gives the round to a helper idle now, as worker slot, and reports
// whether one was.
//
//crlint:hotpath
func (j *tileJob) hand(slot int) bool {
	j.wg.Add(1)
	select {
	case helperTasks <- tileTask{j, slot}:
		return true
	default:
		j.wg.Done()
		return false
	}
}

// claim runs the round's unclaimed tiles on worker slot's scratch, one at
// a time, until none is left.
//
//crlint:hotpath
func (j *tileJob) claim(slot int) {
	for {
		t := int(j.next.Add(1) - 1)
		if t >= j.tiles {
			return
		}
		lo := t * deliverTile
		j.run.tile(slot, lo, min(lo+deliverTile, j.n))
	}
}
