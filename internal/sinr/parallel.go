package sinr

import "sync"

// Intra-round parallel delivery.
//
// Pass one of DeliverTo accumulates per-listener state over fixed
// deliverTile-wide tiles of the list it visits: the listener list, or in a
// certified round the same listeners in cell order (txGrid.prepare). Either
// list holds distinct listeners, so tiles touch disjoint entries of the
// scratch arrays and can run concurrently with no synchronisation beyond
// the final join. The partition shape is fixed by deliverTile alone — tile
// t always covers list positions [t·deliverTile, min((t+1)·deliverTile,
// len)) and is processed by worker t mod workers — and no listener's float
// operations depend on its tile: what a cell's listeners share (certBlock)
// is a function of the cell, rebuilt by a tile that starts inside it, and
// each listener's sums are its own. So receptions are byte-identical from
// workers=1 to MaxDeliverParallelism and for any listener list.
// Pass two (threshold + observer) always runs sequentially in ascending
// listener order, preserving the ReceptionObserver ordering contract.
//
// Parallel rounds allocate (worker closures and goroutine stacks, O(workers)
// per Deliver); the zero-allocation hot-path guarantee covers the sequential
// default, which never reaches this file.

// runTiles partitions [0, n) into deliverTile-wide tiles and invokes kernel
// for each, distributing tile t to worker t mod workers. The worker index is
// passed through so kernels can address per-worker scratch.
func runTiles(n, workers int, kernel func(worker, lo, hi int)) {
	tiles := (n + deliverTile - 1) / deliverTile
	if workers > tiles {
		workers = tiles
	}
	if workers <= 1 {
		for t := 0; t < tiles; t++ {
			lo := t * deliverTile
			kernel(0, lo, min(lo+deliverTile, n))
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for t := w; t < tiles; t += workers {
				lo := t * deliverTile
				kernel(w, lo, min(lo+deliverTile, n))
			}
		}(w)
	}
	wg.Wait()
}
