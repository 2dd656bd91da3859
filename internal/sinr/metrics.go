package sinr

import "fadingcr/internal/obs"

// Delivery-engine metrics, exported through the CLI -metrics flag. They are
// plain atomic increments — no allocation, no branching on values — so the
// //crlint:hotpath contract of Deliver is preserved, and they never touch
// the simulated-randomness path (DESIGN.md §8).
var (
	mDeliveries         = obs.Default.Counter("sinr.deliveries")
	mListeners          = obs.Default.Counter("sinr.listeners")
	mDeliveriesFarField = obs.Default.Counter("sinr.deliveries_farfield")
	mDeliveriesParallel = obs.Default.Counter("sinr.deliveries_parallel")
	mFarFieldPrunedTx   = obs.Default.Counter("sinr.farfield_pruned_tx")
	// mCertifiedListeners counts the listeners the exact engine decided from
	// its certificate, without the full sum: one add per Deliver.
	mCertifiedListeners = obs.Default.Counter("sinr.certified_listeners")
)
