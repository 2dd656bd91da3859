package sinr

import "fadingcr/internal/obs"

// Delivery-engine metrics, exported through the CLI -metrics flag. They are
// plain atomic increments — no allocation, no branching on values — so the
// //crlint:hotpath contract of Deliver is preserved, and they never touch
// the simulated-randomness path (DESIGN.md §8).
var (
	mDeliveries = obs.Default.Counter("sinr.deliveries")
	mListeners  = obs.Default.Counter("sinr.listeners")
	// mDeliveriesParallel counts the Delivers the parallel engine ran; a
	// faded channel delivers sequentially at any worker count.
	mDeliveriesParallel = obs.Default.Counter("sinr.deliveries_parallel")
	// mCertifiedListeners counts the listeners the exact engine decided from
	// its certificate, without the full sum: one add per Deliver.
	mCertifiedListeners = obs.Default.Counter("sinr.certified_listeners")
)
