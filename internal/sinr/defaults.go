package sinr

import "fadingcr/internal/geom"

// DefaultParams returns the repository-standard physical-layer constants:
// α = 3 (super-quadratic fading per the model's α > 2), β = 1.5, N = 1,
// with Power unset so it can be derived per deployment (see ChannelFor).
// Every harness entry point (the facade's Solve, the experiment suite, the
// verification CLI) shares this one definition so the constants cannot
// drift between them.
func DefaultParams() Params {
	return Params{Alpha: 3, Beta: 1.5, Noise: 1}
}

// ChannelFor builds a single-hop SINR channel over the deployment with the
// given parameters, deriving the minimum feasible single-hop power
// (MinSingleHopPower at DefaultSingleHopMargin) when p.Power is 0.
func ChannelFor(p Params, d *geom.Deployment) (*Channel, error) {
	if p.Power == 0 {
		p.Power = MinSingleHopPower(p.Alpha, p.Beta, p.Noise, d.R, DefaultSingleHopMargin)
	}
	return New(p, d.Points)
}
