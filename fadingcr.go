package fadingcr

import (
	"math"

	"fadingcr/internal/baselines"
	"fadingcr/internal/core"
	"fadingcr/internal/experiments"
	"fadingcr/internal/geom"
	"fadingcr/internal/hitting"
	"fadingcr/internal/radio"
	"fadingcr/internal/schedule"
	"fadingcr/internal/sim"
	"fadingcr/internal/sinr"
)

// Re-exported core types. Aliases (not definitions) so values flow freely
// between the facade and any internal helper a power user reaches for.
type (
	// Point is a location in the plane.
	Point = geom.Point
	// Deployment is a normalised placement of nodes (shortest link = 1).
	Deployment = geom.Deployment
	// LinkClasses partitions active nodes by nearest-neighbour distance.
	LinkClasses = geom.LinkClasses

	// Params are the SINR physical-layer constants (α, β, N, P).
	Params = sinr.Params
	// SINRChannel is the paper's fading channel, also in its per-node
	// power and Rayleigh-faded variants.
	SINRChannel = sinr.Channel
	// RadioChannel is the classical single-hop collision channel.
	RadioChannel = radio.Channel

	// Channel is one-round message delivery (SINR, Rayleigh, or radio).
	Channel = sim.Channel
	// Builder constructs a protocol's n nodes as one population.
	Builder = sim.Builder
	// Node is what a Tracer sees of one node: it has an Active method
	// when the protocol reports which nodes still contend.
	Node = sim.Node
	// Config controls an execution (round budget, collision detection,
	// tracing).
	Config = sim.Config
	// Result summarises an execution.
	Result = sim.Result
	// Tracer observes every executed round, with every node's reception.
	Tracer = sim.Tracer

	// FixedProbability is the paper's algorithm (Section 1).
	FixedProbability = core.FixedProbability
	// Analyzer reconstructs the paper's analysis quantities per round.
	Analyzer = core.Analyzer
	// ClassBounds are the q_t envelope vectors of Section 3.3.
	ClassBounds = core.ClassBounds
	// Snapshot is one analysed round.
	Snapshot = core.Snapshot

	// ProbabilitySweep is the classical Θ(log² n) radio strategy.
	ProbabilitySweep = baselines.ProbabilitySweep
	// Decay is BGI decay with knowledge of an upper bound N.
	Decay = baselines.Decay
	// BinaryExponentialBackoff is the folklore windowed strategy.
	BinaryExponentialBackoff = baselines.BinaryExponentialBackoff
	// DampenedSweep is the Jurdziński–Stachowiak-shaped accelerated sweep.
	DampenedSweep = baselines.DampenedSweep
	// CollisionDetectHalving is Θ(log n) leader election with collision
	// detection.
	CollisionDetectHalving = baselines.CollisionDetectHalving
	// CDBinaryEstimate is Willard-style O(log log n)-expected leader
	// election by contention estimation (full-sensing collision detection).
	CDBinaryEstimate = baselines.CDBinaryEstimate
	// Interleaved alternates two protocols (§3.1: for unknown R).
	Interleaved = core.Interleaved
	// StaggeredStart delays each node's wake-up by a random offset
	// (robustness beyond the synchronous-start model).
	StaggeredStart = core.StaggeredStart
	// WithKnockout grafts the paper's knock-out rule onto any protocol.
	WithKnockout = core.WithKnockout
	// CrashFaults injects crash-stop failures into any protocol.
	CrashFaults = core.CrashFaults

	// HittingReferee administers the restricted k-hitting game.
	HittingReferee = hitting.Referee
	// HittingPlayer is a hitting-game strategy.
	HittingPlayer = hitting.Player
	// TwoPlayerResult summarises a two-player symmetry-breaking game.
	TwoPlayerResult = hitting.TwoPlayerResult

	// Link is a directed transmission request for the centralized
	// scheduler.
	Link = schedule.Link

	// Experiment is one registered reproduction target.
	Experiment = experiments.Experiment
	// ExperimentConfig scales an experiment run.
	ExperimentConfig = experiments.Config
)

// DefaultSingleHopMargin is the paper's constant c ≥ 4 in the single-hop
// power condition P > c·β·N·d^α.
const DefaultSingleHopMargin = sinr.DefaultSingleHopMargin

// Deployment generators.
var (
	// NewDeployment normalises raw positions (shortest link becomes 1).
	NewDeployment = geom.NewDeployment
	// UniformDisk places n nodes uniformly in a constant-density disk.
	UniformDisk = geom.UniformDisk
	// UniformSquare places n nodes uniformly in a constant-density square.
	UniformSquare = geom.UniformSquare
	// PerturbedGrid places n nodes on a jittered unit grid.
	PerturbedGrid = geom.PerturbedGrid
	// Clusters places n nodes into k circular clusters.
	Clusters = geom.Clusters
	// ExponentialChain realises a chosen number of link classes exactly.
	ExponentialChain = geom.ExponentialChain
	// TwoNode is the minimal two-node deployment at distance 1.
	TwoNode = geom.TwoNode
	// CoLocatedPairs is the adversarial all-in-class-0 deployment.
	CoLocatedPairs = geom.CoLocatedPairs
	// RandomSubset draws m distinct node indices — the adversary's
	// activation choice for partial-activation runs.
	RandomSubset = geom.RandomSubset
	// ReadPoints parses node positions from CSV (one "x,y" per line);
	// WritePoints is its inverse. Together they let users simulate their
	// own deployments.
	ReadPoints  = geom.ReadPoints
	WritePoints = geom.WritePoints
)

// Channels and games.
var (
	// NewSINRChannel builds the paper's fading channel over a deployment's
	// positions. Every SINR channel spreads a round of more than 2048
	// listeners over the idle cores by itself, allocation-free, with
	// receptions byte-identical at any core count (DESIGN.md §8); there is
	// no worker-count option.
	NewSINRChannel = sinr.New
	// NewRayleighChannel builds the stochastically faded variant, whose
	// rounds spread over the cores as the unfaded channel's do.
	NewRayleighChannel = sinr.NewRayleigh
	// NewRadioChannel builds the classical collision channel.
	NewRadioChannel = radio.New
	// NewPowerChannel builds an SINR channel with per-node powers.
	NewPowerChannel = sinr.NewWithPowers
	// MinSingleHopPower derives the smallest power satisfying the
	// single-hop condition for a maximum link length.
	MinSingleHopPower = sinr.MinSingleHopPower
	// ChannelFor builds the default single-hop SINR channel over a
	// deployment, deriving the minimum feasible power when Params.Power
	// is 0. It is the shared helper behind Solve, the experiment suite,
	// and crverify, so the derivation cannot drift between them.
	ChannelFor = sinr.ChannelFor

	// Run executes a protocol over a channel until a solo broadcast or the
	// round budget.
	Run = sim.Run

	// NewHittingReferee starts a restricted k-hitting game with a random
	// target.
	NewHittingReferee = hitting.NewReferee
	// NewSimulationPlayer is the Lemma 14 reduction from any contention
	// resolution algorithm to a hitting-game player.
	NewSimulationPlayer = hitting.NewSimulationPlayer
	// NewFixedDensityPlayer proposes constant-density random sets.
	NewFixedDensityPlayer = hitting.NewFixedDensityPlayer
	// PlayHittingGame runs a hitting game to completion or a budget.
	PlayHittingGame = hitting.Play
	// PlayTwoPlayer runs the two-player symmetry-breaking game.
	PlayTwoPlayer = hitting.PlayTwoPlayer
	// ObliviousWorstCase computes the exact adversarial hitting-game value
	// for an oblivious player.
	ObliviousWorstCase = hitting.ObliviousWorstCase

	// NearestNeighborLinks builds the canonical capacity request set.
	NearestNeighborLinks = schedule.NearestNeighborLinks
	// GreedySchedule computes a maximal feasible simultaneous link set.
	GreedySchedule = schedule.Greedy
	// ScheduleAll partitions requests into consecutive feasible rounds.
	ScheduleAll = schedule.ScheduleAll
	// ScheduleFeasible checks a simultaneous link set against the SINR
	// equation.
	ScheduleFeasible = schedule.Feasible

	// Experiments returns every registered reproduction experiment.
	Experiments = experiments.All
	// ExperimentByID looks an experiment up by its DESIGN.md id (e.g. "E1").
	ExperimentByID = experiments.ByID
)

// DefaultParams returns the repository-standard physical constants
// (α = 3, β = 1.5, N = 1) with Power unset; derive a power with
// MinSingleHopPower or let Solve do it. It is sinr.DefaultParams, the one
// shared definition used by every harness entry point.
func DefaultParams() Params {
	return sinr.DefaultParams()
}

// Solve runs the paper's algorithm on the deployment with default physical
// parameters, the minimum feasible single-hop power, and a generous
// Θ(log n + log R) round budget. It is the one-call entry point used by the
// quickstart example.
func Solve(d *Deployment, seed uint64) (Result, error) {
	ch, err := ChannelFor(DefaultParams(), d)
	if err != nil {
		return Result{}, err
	}
	budget := 400 + 100*int(math.Ceil(math.Log2(float64(d.N())+1)))
	if d.R > 1 {
		budget += 100 * int(math.Ceil(math.Log2(d.R)))
	}
	return Run(ch, FixedProbability{}, seed, Config{MaxRounds: budget})
}
