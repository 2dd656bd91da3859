package sinr

import "fadingcr/internal/obs"

// Delivery-engine metrics, exported through the CLI -metrics flag. They are
// plain atomic increments — no allocation, no branching on values — so the
// //crlint:hotpath contract of Deliver is preserved, and they never touch
// the simulated-randomness path (DESIGN.md §8).
var (
	mDeliveries = obs.Default.Counter("sinr.deliveries")
	// mListeners sums the listeners each Deliver evaluated: the listed ones
	// for DeliverTo, on faded channels too.
	mListeners = obs.Default.Counter("sinr.listeners")
	// mDeliveriesParallel counts the Delivers whose pass one spans two
	// tiles or more, the rounds the workers can share; the count is the
	// same at any worker count.
	mDeliveriesParallel = obs.Default.Counter("sinr.deliveries_parallel")
	// mCertifiedListeners counts the listeners the exact engine decided from
	// its certificate, without the full sum: one add per Deliver.
	mCertifiedListeners = obs.Default.Counter("sinr.certified_listeners")
	// mCertWalks counts the listeners of certified rounds that walked past
	// their cell's shared block, and mCertFallbacks those the certificate
	// gave up on, which took the full sum: one add each per Deliver. The
	// certified listeners not counted in mCertWalks were settled by their
	// block alone.
	mCertWalks     = obs.Default.Counter("sinr.cert_walks")
	mCertFallbacks = obs.Default.Counter("sinr.cert_fallbacks")
	// mFadesDrawn and mFadesSkipped split a faded round's stream, one add
	// each per round: the fades drawn at the listed listeners, summed over
	// the round's tiles, and the draws of every other listener, which the
	// stream jumped over or never reached. Their sum is what Deliver would
	// have drawn.
	mFadesDrawn   = obs.Default.Counter("sinr.fades_drawn")
	mFadesSkipped = obs.Default.Counter("sinr.fades_skipped")
	// mFadedCertified counts the faded listeners that bounds on their
	// fades decided without a logarithm, and mFadedFallbacks those that
	// replayed their draws through the exact sum: one add each per faded
	// round. Observed faded rounds count in neither. They are kept apart
	// from sinr.certified_listeners, the exact engine's certificate.
	mFadedCertified = obs.Default.Counter("sinr.faded_certified")
	mFadedFallbacks = obs.Default.Counter("sinr.faded_fallbacks")
	// mFadedWalked counts the mFadedCertified listeners the certificate's
	// walk settled (walkFaded): one add per faded round.
	mFadedWalked = obs.Default.Counter("sinr.faded_walked")
)
