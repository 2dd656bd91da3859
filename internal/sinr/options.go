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
	farFieldEps float64 // > 0: ε far-field pruning mode
	parallel    int     // ≥ 2: intra-round parallel Deliver workers
}

// validate rejects resolved configurations outside the supported envelope.
func (ec engineConfig) validate() error {
	if ec.farFieldEps != 0 && (!(ec.farFieldEps > 0) || ec.farFieldEps >= 0.5) {
		return fmt.Errorf("sinr: far-field epsilon %v must be in (0, 0.5)", ec.farFieldEps)
	}
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

// WithFarFieldEps enables the ε far-field pruning engine: per listener, only
// transmitters in nearby spatial-index cells are summed exactly (in ascending
// transmitter index, like the exact engine), and the remaining far
// transmitters are dropped once a conservative upper bound proves their
// aggregate contribution is at most eps·(Noise + near interference). The
// pruning decision uses distance bounds only — never accumulated floats — so
// it is deterministic. eps must be in (0, 0.5); 0 restores the exact
// engine. See DESIGN.md §8 for the precise error bound.
func WithFarFieldEps(eps float64) Option {
	return func(ec *engineConfig) { ec.farFieldEps = eps }
}

// WithDeliverParallelism sets the intra-round worker count of Deliver.
// Workers process disjoint fixed-shape listener tiles (tile t → worker
// t mod workers) and the threshold/observer pass stays sequential in
// ascending listener order, so receptions are byte-identical at any worker
// count. 0 and 1 both select the sequential engine; parallel delivery
// allocates O(workers) per round, so the zero-allocation hot-path guarantee
// applies to the sequential default only.
func WithDeliverParallelism(workers int) Option {
	return func(ec *engineConfig) { ec.parallel = workers }
}

// EngineOptions translates the CLI-style engine configuration — the
// -farfield-eps and -sinr-parallel knobs — into channel options, validating
// ranges up front so flag errors surface before a channel is half-built.
// farfieldEps 0 and parallel 0 leave the defaults.
func EngineOptions(farfieldEps float64, parallel int) ([]Option, error) {
	ec := engineConfig{farFieldEps: farfieldEps, parallel: parallel}
	if err := ec.validate(); err != nil {
		return nil, err
	}
	var opts []Option
	if farfieldEps != 0 {
		opts = append(opts, WithFarFieldEps(farfieldEps))
	}
	if parallel != 0 {
		opts = append(opts, WithDeliverParallelism(parallel))
	}
	return opts, nil
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
// totals, and the per-listener strongest signal and its sender. Sharing the
// scratch is why channels are not safe for concurrent use.
type deliverScratch struct {
	txList  []int
	txNodes []txNode
	totals  []float64
	best    []float64
	bestU   []int
}

// newDeliverScratch preallocates every buffer at channel-construction time:
// 56 bytes per node.
func newDeliverScratch(n int) deliverScratch {
	return deliverScratch{
		txList:  make([]int, 0, n),
		txNodes: make([]txNode, n),
		totals:  make([]float64, n),
		best:    make([]float64, n),
		bestU:   make([]int, n),
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
