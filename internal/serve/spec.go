package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"fadingcr/internal/catalog"
	"fadingcr/internal/experiments"
	"fadingcr/internal/trace"
)

// Spec is the domain object of the service: one simulation job, as
// submitted by a client. A Spec names either a registered experiment (the
// crbench workload) or a single-scenario Monte Carlo run (the crsim
// workload); both are resolved against the same registries the CLIs use
// (internal/experiments, internal/catalog), so a spec is valid here iff
// the equivalent CLI invocation is.
//
// Because every job derives all randomness from (Spec, Seed) via the
// runner.TrialSeeds contract, a normalized Spec fully determines the
// result body, byte for byte — the property the result cache is keyed on.
//
// The spechash directive below holds this struct to the canonical-hash
// discipline (DESIGN.md §8): new fields need json omitempty tags so legacy
// job hashes stay stable, and must be added to specHashFields.
//
//crlint:spechash
type Spec struct {
	// Kind is "experiment" or "sim". Normalization infers it from which
	// of Experiment/Sim is set, so clients may omit it.
	Kind string `json:"kind,omitempty"`
	// Experiment selects registered experiments for an experiment job:
	// "all" or a comma-separated id list, exactly like crbench -ids.
	Experiment string `json:"experiment,omitempty"`
	// Sim describes the scenario of a sim job.
	Sim *SimSpec `json:"sim,omitempty"`
	// Seed is the master seed (runner.TrialSeeds derives every trial's
	// randomness from it). Omitting it means seed 0, a valid seed.
	//crlint:allow spechash seed is always serialized; adding omitempty now would change every legacy seed-0 hash
	Seed uint64 `json:"seed"`
	// Trials is the trial count: for sim jobs the number of independent
	// runs (default 1); for experiment jobs the trials per data point
	// (0 selects each experiment's default).
	Trials int `json:"trials,omitempty"`
	// Quick shrinks experiment sweeps for smoke runs (experiment jobs).
	Quick bool `json:"quick,omitempty"`
	// Format renders experiment tables: "text" (default) or "markdown".
	Format string `json:"format,omitempty"`
	// Trace, on a single-trial sim job, includes the per-round event
	// trace in the result body.
	Trace bool `json:"trace,omitempty"`
	// Shard, on an experiment job, restricts execution to one shard of a
	// distributed run: only the trials of shard Index of Count (contiguous
	// global ranges per runner.ShardRange) execute, and the result body is
	// the canonical shard wire stream (internal/shard) instead of rendered
	// tables. The omitempty tag keeps every legacy job hash stable, and
	// each (index, count) hashes differently, so shard bodies can never
	// collide with table bodies — or with each other — in the result
	// cache.
	Shard *ShardRef `json:"shard,omitempty"`
}

// ShardRef identifies one shard of a distributed experiment run. It feeds
// the canonical hash like SimSpec, so it follows the same field discipline.
//
//crlint:spechash
type ShardRef struct {
	// Index is the shard index, in [0, Count).
	//crlint:allow spechash index is required and 0 is a valid value that must always serialize
	Index int `json:"index"`
	// Count is the run's total shard count.
	//crlint:allow spechash count is required on every shard job; there is no legacy zero form to preserve
	Count int `json:"count"`
	// Trace, when non-nil, asks the shard to capture per-trial traces and
	// append the trace bundle to the wire stream (trace federation). It is
	// part of the canonical form deliberately even though tracing never
	// changes the computed values: the cached result BODY differs (bundle
	// appended), so traced and untraced runs must occupy distinct cache
	// slots. The omitempty tag keeps every untraced legacy hash stable, and
	// trace.Policy follows the same field discipline.
	Trace *trace.Policy `json:"trace,omitempty"`
}

// SimSpec is the scenario of a sim job, mirroring crsim's flags. It feeds
// the same canonical hash as Spec, so it follows the same field discipline.
//
//crlint:spechash
type SimSpec struct {
	// N is the number of nodes.
	//crlint:allow spechash n is required (Validate rejects 0) and always serialized in legacy hashes
	N int `json:"n"`
	// Deploy is the deployment name (catalog.Deployments).
	//crlint:allow spechash deploy is required and always serialized in legacy hashes
	Deploy string `json:"deploy"`
	// Algo is the algorithm name (catalog.Algorithms).
	//crlint:allow spechash algo is required and always serialized in legacy hashes
	Algo string `json:"algo"`
	// Channel is the channel name (catalog.Channels); default "sinr".
	Channel string `json:"channel,omitempty"`
	// P is the broadcast probability of the fixed-probability algorithms;
	// 0 selects core.DefaultP.
	P float64 `json:"p,omitempty"`
	// MaxRounds is the round budget; 0 selects
	// catalog.DefaultMaxRounds(N).
	MaxRounds int `json:"max_rounds,omitempty"`
}

// The canonical-hash field lists: every field (by json name) that feeds
// Spec.Hash through CanonicalJSON. The spechash analyzer keeps each list in
// exact correspondence with its struct, and TestSpecHashFieldManifest
// cross-checks them against the struct tags by reflection — so widening the
// hash surface is always an explicit, reviewed change in two places.
var (
	specHashFields = []string{
		"kind", "experiment", "sim", "seed", "trials", "quick",
		"format", "trace", "shard",
	}
	simSpecHashFields = []string{
		"n", "deploy", "algo", "channel", "p", "max_rounds",
	}
	shardRefHashFields = []string{
		"index", "count", "trace",
	}
)

// DecodeSpec reads one JSON job spec, rejecting unknown fields. Older
// clients may still send three retired fields, which are accepted and
// dropped and never reach the canonical hash:
//   - "gaincache" (auto|on|off) selected an engine that never changed
//     results;
//   - "farfield_eps" in [0, 0.5) selected the deleted ε far-field engine.
//     Its receptions could differ from the exact ones only within a
//     one-sided bound that exact receptions meet at every ε, so the exact
//     job answers the request;
//   - "sinr_parallel" in [0, legacyMaxSINRParallel] set the intra-round
//     Deliver workers, which never changed a result. The SINR engine now
//     picks them itself, so a spec that set the field hashes as the same
//     job without it.
//
// Any other value of these fields is an error, as it always was.
func DecodeSpec(r io.Reader) (Spec, error) {
	var legacy struct {
		Spec
		GainCache    *string  `json:"gaincache"`
		FarFieldEps  *float64 `json:"farfield_eps"`
		SINRParallel *int     `json:"sinr_parallel"`
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&legacy); err != nil {
		return Spec{}, err
	}
	if g := legacy.GainCache; g != nil && !slices.Contains([]string{"", "auto", "on", "off"}, *g) {
		return Spec{}, fmt.Errorf("unknown gain-cache mode %q (want auto|on|off)", *g)
	}
	if e := legacy.FarFieldEps; e != nil && !(*e >= 0 && *e < 0.5) {
		return Spec{}, fmt.Errorf("farfield_eps %v must be in [0, 0.5)", *e)
	}
	if p := legacy.SINRParallel; p != nil && (*p < 0 || *p > legacyMaxSINRParallel) {
		return Spec{}, fmt.Errorf("sinr_parallel %d must be in [0, %d]", *p, legacyMaxSINRParallel)
	}
	return legacy.Spec, nil
}

// legacyMaxSINRParallel is the largest worker count the retired
// sinr_parallel field took.
const legacyMaxSINRParallel = 256

// Job kind names.
const (
	KindExperiment = "experiment"
	KindSim        = "sim"
)

// Limits protecting the daemon from absurd submissions. Generous: the
// biggest registered experiment and crsim's largest documented scenarios
// fit far below them.
const (
	// MaxSimNodes bounds SimSpec.N.
	MaxSimNodes = 1 << 17
	// MaxTrials bounds Spec.Trials for both job kinds.
	MaxTrials = 1 << 20
	// MaxShards bounds ShardRef.Count.
	MaxShards = 1 << 12
)

// Normalized returns a copy with defaults made explicit and the Kind
// inferred, so that every spec meaning the same job serializes to the same
// canonical bytes. Validate operates on (and the executor runs) normalized
// specs only.
func (s Spec) Normalized() Spec {
	n := s
	if n.Sim != nil {
		sim := *n.Sim
		n.Sim = &sim
	}
	if n.Shard != nil {
		shard := *n.Shard
		if shard.Trace != nil {
			// Equivalent trace spellings must share a cache slot.
			tr := shard.Trace.Normalized()
			shard.Trace = &tr
		}
		n.Shard = &shard
	}
	if n.Kind == "" {
		switch {
		case n.Experiment != "" && n.Sim == nil:
			n.Kind = KindExperiment
		case n.Sim != nil && n.Experiment == "":
			n.Kind = KindSim
		}
		// Ambiguous or empty specs keep Kind "" and fail Validate.
	}
	switch n.Kind {
	case KindExperiment:
		if n.Shard != nil {
			// A shard job's body is the wire stream, never rendered
			// tables, so Format must not perturb its canonical form (a
			// format-carrying submission would miss the cache for no
			// reason).
			n.Format = ""
		} else if n.Format == "" {
			n.Format = "text"
		}
		if n.Experiment == "" {
			n.Experiment = "all"
		}
	case KindSim:
		// Experiment-only knobs must not perturb the canonical form of a
		// sim job (and vice versa), or equal jobs would miss the cache.
		n.Format = ""
		n.Quick = false
		if n.Trials == 0 {
			n.Trials = 1
		}
		if n.Sim != nil && n.Sim.Channel == "" {
			n.Sim.Channel = "sinr"
		}
	}
	return n
}

// Validate checks a normalized spec against the experiment registry and
// the catalog. It returns nil iff the executor can run the spec.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindExperiment:
		if s.Sim != nil {
			return fmt.Errorf("a job is either %q or %q, not both", KindExperiment, KindSim)
		}
		if _, _, err := experiments.ConfigFromSpec(s.experimentSpec()); err != nil {
			return err
		}
		if s.Shard != nil {
			if s.Shard.Count < 1 || s.Shard.Count > MaxShards {
				return fmt.Errorf("shard.count must be in [1, %d], got %d", MaxShards, s.Shard.Count)
			}
			if s.Shard.Index < 0 || s.Shard.Index >= s.Shard.Count {
				return fmt.Errorf("shard.index must be in [0, %d), got %d", s.Shard.Count, s.Shard.Index)
			}
			if s.Shard.Trace != nil {
				if err := s.Shard.Trace.Validate(); err != nil {
					return err
				}
			}
		} else if s.Format != "text" && s.Format != "markdown" {
			return fmt.Errorf("unknown format %q (want text|markdown)", s.Format)
		}
		if s.Trace {
			return fmt.Errorf("trace is only available on sim jobs with trials=1")
		}
	case KindSim:
		if s.Experiment != "" {
			return fmt.Errorf("a job is either %q or %q, not both", KindExperiment, KindSim)
		}
		if s.Sim == nil {
			return fmt.Errorf("sim jobs need a sim scenario")
		}
		if s.Shard != nil {
			return fmt.Errorf("shard is only available on experiment jobs")
		}
		if s.Sim.N < 1 || s.Sim.N > MaxSimNodes {
			return fmt.Errorf("sim.n must be in [1, %d], got %d", MaxSimNodes, s.Sim.N)
		}
		if s.Trials < 1 || s.Trials > MaxTrials {
			return fmt.Errorf("trials must be in [1, %d], got %d", MaxTrials, s.Trials)
		}
		if !slices.Contains(catalog.Deployments(), s.Sim.Deploy) {
			return fmt.Errorf("unknown deployment %q (have %v)", s.Sim.Deploy, catalog.Deployments())
		}
		if !slices.Contains(catalog.Algorithms(), s.Sim.Algo) {
			return fmt.Errorf("unknown algorithm %q (have %v)", s.Sim.Algo, catalog.Algorithms())
		}
		if !slices.Contains(catalog.Channels(), s.Sim.Channel) {
			return fmt.Errorf("unknown channel %q (have %v)", s.Sim.Channel, catalog.Channels())
		}
		if s.Sim.P < 0 || s.Sim.P > 1 {
			return fmt.Errorf("sim.p must be in [0, 1] (0 selects the default), got %v", s.Sim.P)
		}
		if s.Sim.MaxRounds < 0 {
			return fmt.Errorf("sim.max_rounds must be ≥ 0 (0 selects the default), got %d", s.Sim.MaxRounds)
		}
		if s.Trace && s.Trials != 1 {
			return fmt.Errorf("trace needs trials=1, got %d", s.Trials)
		}
	default:
		return fmt.Errorf(`a job sets exactly one of "experiment" or "sim"`)
	}
	return nil
}

// experimentSpec maps an experiment job onto the shared crbench/crserve
// parsing path.
func (s Spec) experimentSpec() experiments.Spec {
	return experiments.Spec{IDs: s.Experiment, Seed: s.Seed, Trials: s.Trials, Quick: s.Quick}
}

// CanonicalJSON renders the normalized spec as canonical bytes: struct
// field order is fixed and defaults are explicit, so two specs meaning the
// same job always produce identical bytes.
func (s Spec) CanonicalJSON() []byte {
	b, err := json.Marshal(s.Normalized())
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: canonical spec encoding: %v", err))
	}
	return b
}

// Hash returns the canonical (config, seed) key of the spec: the hex
// SHA-256 of CanonicalJSON. Determinism makes this a perfect result-cache
// key — equal hashes imply byte-identical result bodies.
func (s Spec) Hash() string {
	sum := sha256.Sum256(s.CanonicalJSON())
	return hex.EncodeToString(sum[:])
}
