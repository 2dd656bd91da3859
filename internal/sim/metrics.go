package sim

import "fadingcr/internal/obs"

// Engine metrics, exported through the CLI -metrics flag. Run accumulates
// locally and publishes once per execution (a deferred aggregate add), so
// the per-round loop carries no atomic traffic; the reception scan is
// additionally skipped entirely while recording is disabled. None of these
// touch the protocol or channel randomness (DESIGN.md §8). sim.receptions
// counts receptions at live listeners only: a retired node's receptions
// are not computed (see Population).
var (
	mRuns          = obs.Default.Counter("sim.runs")
	mRounds        = obs.Default.Counter("sim.rounds")
	mTransmissions = obs.Default.Counter("sim.transmissions")
	mReceptions    = obs.Default.Counter("sim.receptions")
)
