package experiments

import (
	"fmt"
	"strings"
)

// Spec is a transport-agnostic request for an experiment run: the flag
// values of crbench and the JSON job fields of crserve both land here, so
// every front end shares one parsing/validation path. A Spec carries only
// user intent; execution settings (parallelism, context, tracing) are set
// on the returned Config by the caller, and none of them change results.
type Spec struct {
	// IDs selects experiments: "all" (or "") for every registered one, or
	// a comma-separated id list like "E1,E3" (spaces around ids are
	// tolerated, matching the crbench flag it replaces).
	IDs string
	// Seed is the master seed.
	Seed uint64
	// Trials is the trials per data point; 0 selects each experiment's
	// default, negative is rejected.
	Trials int
	// Quick shrinks sweeps for fast smoke runs.
	Quick bool
}

// ConfigFromSpec validates a Spec and resolves it into the selected
// experiments plus a ready Config. All validation lives here: unknown
// experiment ids and negative trial counts (which the old crbench flag
// path silently treated as "default") are rejected with descriptive
// errors.
func ConfigFromSpec(s Spec) ([]Experiment, Config, error) {
	if s.Trials < 0 {
		return nil, Config{}, fmt.Errorf("trials must be ≥ 0 (0 selects the experiment default), got %d", s.Trials)
	}
	selected, err := selectIDs(s.IDs)
	if err != nil {
		return nil, Config{}, err
	}
	return selected, Config{Seed: s.Seed, Trials: s.Trials, Quick: s.Quick}, nil
}

// selectIDs resolves the IDs field against the registry.
func selectIDs(ids string) ([]Experiment, error) {
	if ids == "" || ids == "all" {
		return All(), nil
	}
	var selected []Experiment
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(id)
		e, ok := ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment id %q", id)
		}
		selected = append(selected, e)
	}
	return selected, nil
}
