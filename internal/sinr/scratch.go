package sinr

import "fadingcr/internal/xrand"

// deliverScratch holds the channel-owned buffers a steady-state Deliver
// reuses so it performs zero allocations: the transmitter index list and
// its gathered positions and powers, the per-listener running interference
// totals, the per-listener strongest signal and its sender, each worker's
// own scratch (tileScratch), and on a faded channel the ranks 0, 1, …,
// n−1 a full bracket walks (bracketAll), which every worker reads. Sharing
// the scratch is why channels are not safe for concurrent use.
type deliverScratch struct {
	txList  []int
	txNodes []txNode
	totals  []float64
	best    []float64
	bestU   []int
	tiles   []tileScratch
	ranks   []int32
}

// tileScratch is one worker's own scratch: the counts of the tiles it ran
// this round; the pair loops' signal buffers, which the pre-loop pass
// (signals) fills; and on a faded channel the tile's copy of the fade
// stream and one listener's fade draws (drawFades). A channel whose α is
// not 3 has two signal buffers, one per walk of spanPair; a faded α = 3
// channel has one, for its replays; and an unfaded α = 3 channel, whose
// loops compute every signal in place, has none.
type tileScratch struct {
	counts tileCounts
	sig    [2][]float64
	draws  []uint64
	rng    xrand.Reseedable
	_      [64]byte // keeps each worker's stream off its neighbours' cache lines
}

// newDeliverScratch preallocates every buffer but the workers' scratch
// (newTileScratch) at channel-construction time: 56 bytes per node, and on
// a faded channel 4 more bytes per node of ranks.
func newDeliverScratch(n int, faded bool) deliverScratch {
	s := deliverScratch{
		txList:  make([]int, 0, n),
		txNodes: make([]txNode, n),
		totals:  make([]float64, n),
		best:    make([]float64, n),
		bestU:   make([]int, n),
	}
	if faded {
		s.ranks = make([]int32, n)
		for i := range s.ranks {
			s.ranks[i] = int32(i)
		}
	}
	return s
}

// newTileScratch returns the scratch of workers workers: 8 bytes per node
// per signal buffer, and on a faded channel 8 more bytes per node of
// draws, each.
func newTileScratch(n, workers int, alpha float64, faded bool) []tileScratch {
	tiles := make([]tileScratch, workers)
	for w := range tiles {
		t := &tiles[w]
		if alpha != 3 || faded {
			t.sig[0] = make([]float64, n)
		}
		if alpha != 3 {
			t.sig[1] = make([]float64, n)
		}
		if faded {
			t.draws = make([]uint64, n)
		}
	}
	return tiles
}

// park parks listener v's verdict settled without the full sum: reception
// from txList[k] (the certifiedReception total), or none for k < 0.
//
//crlint:hotpath
func (s *deliverScratch) park(v int, txList []int, k int) {
	s.totals[v], s.best[v], s.bestU[v] = 0, -1, -1
	if k >= 0 {
		s.totals[v], s.bestU[v] = certifiedReception, txList[k]
	}
}

// indices collects the transmitting node indices into the reusable list.
//
//crlint:hotpath
func (s *deliverScratch) indices(tx []bool) []int {
	out := s.txList[:0]
	for u, t := range tx {
		if t {
			out = append(out, u)
		}
	}
	s.txList = out
	return out
}
