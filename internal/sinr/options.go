package sinr

import "fmt"

// deliverTile is the fixed listener-tile width of the parallel
// accumulation pass: tile t covers positions [t·deliverTile,
// (t+1)·deliverTile) of the round's listener list, and the parallel option
// assigns it to worker t mod workers.
// The value is part of the determinism contract (DESIGN.md §8): the tile
// partition fixes the parallel work shape, and because every per-listener
// float sequence is confined to one tile, receptions are byte-identical at
// any worker count — but the constant itself must never silently change
// between releases that promise reproducibility.
const deliverTile = 2048

// MaxDeliverParallelism bounds WithDeliverParallelism; it exists to catch
// nonsense worker counts at option-validation time, not to size anything.
const MaxDeliverParallelism = 256

// engineConfig is the resolved delivery-engine configuration of a channel.
type engineConfig struct {
	parallel int // ≥ 2: intra-round parallel Deliver workers
}

// validate rejects resolved configurations outside the supported envelope.
func (ec engineConfig) validate() error {
	if ec.parallel < 0 || ec.parallel > MaxDeliverParallelism {
		return fmt.Errorf("sinr: deliver parallelism %d must be in [0, %d]", ec.parallel, MaxDeliverParallelism)
	}
	return nil
}

// workers returns the effective worker count (0 and 1 both mean sequential).
func (ec engineConfig) workers() int {
	if ec.parallel < 1 {
		return 1
	}
	return ec.parallel
}

// Option configures a channel's delivery engine.
type Option func(*engineConfig)

// WithDeliverParallelism sets the intra-round worker count of Deliver.
// Workers process disjoint fixed-shape listener tiles (tile t → worker
// t mod workers) and the threshold/observer pass stays sequential in
// ascending listener order, so receptions are byte-identical at any worker
// count. 0 and 1 both select the sequential engine, and faded channels
// always use it: one pass walks the round's listed listeners in order,
// jumping their one fade stream from each listener's position to the next
// (NewRayleigh). Parallel delivery allocates O(workers) per round, so the
// zero-allocation hot-path guarantee applies to the sequential engine only.
func WithDeliverParallelism(workers int) Option {
	return func(ec *engineConfig) { ec.parallel = workers }
}

// resolveEngine applies options over the defaults and validates the result.
func resolveEngine(opts []Option) (engineConfig, error) {
	var ec engineConfig
	for _, o := range opts {
		o(&ec)
	}
	if err := ec.validate(); err != nil {
		return engineConfig{}, err
	}
	return ec, nil
}

// deliverScratch holds the channel-owned buffers a steady-state Deliver
// reuses so it performs zero allocations: the transmitter index list and
// its gathered positions and powers, the per-listener running interference
// totals, the per-listener strongest signal and its sender, each worker's
// own scratch (tileScratch), and on a faded channel one listener's fade
// draws (drawFades) and the ranks 0, 1, …, n−1 its full bracket walks
// (bracketAll). Sharing the scratch is why channels are not safe for
// concurrent use.
type deliverScratch struct {
	txList  []int
	txNodes []txNode
	totals  []float64
	best    []float64
	bestU   []int
	tiles   []tileScratch
	draws   []uint64
	ranks   []int32
}

// tileScratch is one tile worker's own scratch: its certified-round counts
// and the pair loops' signal buffers, which the pre-loop pass (signals)
// fills. A channel whose α is not 3 has two, one per walk of spanPair; a
// faded α = 3 channel has one, for its replays; and an unfaded α = 3
// channel, whose loops compute every signal in place, has none.
type tileScratch struct {
	counts certCounts
	sig    [2][]float64
}

// newDeliverScratch preallocates every buffer at channel-construction time:
// 56 bytes per node; a tileScratch per worker, with 8 bytes per node per
// signal buffer; and on a faded channel 12 bytes per node of draws and
// ranks.
func newDeliverScratch(n, workers int, alpha float64, faded bool) deliverScratch {
	s := deliverScratch{
		txList:  make([]int, 0, n),
		txNodes: make([]txNode, n),
		totals:  make([]float64, n),
		best:    make([]float64, n),
		bestU:   make([]int, n),
		tiles:   make([]tileScratch, workers),
	}
	for w := range s.tiles {
		sig := &s.tiles[w].sig
		if alpha != 3 || faded {
			sig[0] = make([]float64, n)
		}
		if alpha != 3 {
			sig[1] = make([]float64, n)
		}
	}
	if faded {
		s.draws = make([]uint64, n)
		s.ranks = make([]int32, n)
		for i := range s.ranks {
			s.ranks[i] = int32(i)
		}
	}
	return s
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
