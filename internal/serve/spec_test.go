package serve

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func simSpec() Spec {
	return Spec{
		Sim:    &SimSpec{N: 16, Deploy: "disk", Algo: "fixed"},
		Seed:   7,
		Trials: 2,
	}
}

func TestNormalizedInfersKindAndDefaults(t *testing.T) {
	n := simSpec().Normalized()
	if n.Kind != KindSim {
		t.Errorf("Kind = %q, want %q", n.Kind, KindSim)
	}
	if n.Sim.Channel != "sinr" {
		t.Errorf("Channel = %q, want sinr", n.Sim.Channel)
	}

	e := Spec{Experiment: "E5"}.Normalized()
	if e.Kind != KindExperiment || e.Format != "text" {
		t.Errorf("experiment normalization: kind=%q format=%q", e.Kind, e.Format)
	}
	if e.Trials != 0 {
		t.Errorf("experiment Trials defaulted to %d, want 0 (experiment default)", e.Trials)
	}

	s := simSpec()
	s.Trials = 0
	if got := s.Normalized().Trials; got != 1 {
		t.Errorf("sim Trials defaulted to %d, want 1", got)
	}
}

func TestNormalizedShardJob(t *testing.T) {
	s := Spec{Experiment: "E5", Shard: &ShardRef{Index: 1, Count: 3}}
	n := s.Normalized()
	if n.Format != "" {
		t.Errorf("shard job Format = %q, want empty (wire stream body has no render format)", n.Format)
	}
	if n.Shard == nil || n.Shard.Index != 1 || n.Shard.Count != 3 {
		t.Errorf("Shard not carried through normalization: %+v", n.Shard)
	}
	if err := n.Validate(); err != nil {
		t.Errorf("valid shard job rejected: %v", err)
	}

	// The clone must not alias the caller's ShardRef.
	n.Shard.Index = 2
	if s.Shard.Index != 1 {
		t.Error("Normalized aliased the caller's ShardRef")
	}
}

func TestHashDistinguishesShardCoordinates(t *testing.T) {
	base := Spec{Experiment: "E5", Quick: true, Trials: 2, Seed: 7}
	seen := map[string]string{base.Hash(): "unsharded"}
	for _, ref := range []ShardRef{{Index: 0, Count: 1}, {Index: 0, Count: 2}, {Index: 1, Count: 2}, {Index: 0, Count: 3}} {
		s := base
		s.Shard = &ShardRef{Index: ref.Index, Count: ref.Count}
		name := string(s.CanonicalJSON())
		if prev, dup := seen[s.Hash()]; dup {
			t.Errorf("shard variant %s collides with %s", name, prev)
		}
		seen[s.Hash()] = name
	}
}

func TestNormalizedDoesNotMutateInput(t *testing.T) {
	s := simSpec()
	s.Sim.Channel = ""
	_ = s.Normalized()
	if s.Sim.Channel != "" {
		t.Error("Normalized mutated the caller's SimSpec")
	}
}

func TestHashEqualForEquivalentSpecs(t *testing.T) {
	implicit := simSpec() // kind and channel defaulted
	explicit := simSpec()
	explicit.Kind = KindSim
	explicit.Sim.Channel = "sinr"
	if implicit.Hash() != explicit.Hash() {
		t.Errorf("equivalent specs hash differently:\n%s\n%s",
			implicit.CanonicalJSON(), explicit.CanonicalJSON())
	}

	// The retired gaincache field of older clients decodes to the same job.
	legacy, err := DecodeSpec(strings.NewReader(
		`{"sim":{"n":16,"deploy":"disk","algo":"fixed"},"seed":7,"trials":2,"gaincache":"auto"}`))
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Hash() != implicit.Hash() {
		t.Errorf("legacy gaincache spelling hashes differently:\n%s\n%s",
			legacy.CanonicalJSON(), implicit.CanonicalJSON())
	}

	// Experiment-only knobs must not perturb a sim job's hash.
	noisy := simSpec()
	noisy.Format = "markdown"
	noisy.Quick = true
	if noisy.Hash() != implicit.Hash() {
		t.Error("experiment-only fields perturb a sim spec's hash")
	}
}

func TestHashDistinguishesJobs(t *testing.T) {
	base := simSpec()
	seen := map[string]string{base.Hash(): "base"}
	variants := map[string]Spec{}
	v := simSpec()
	v.Seed = 8
	variants["seed"] = v
	v = simSpec()
	v.Trials = 3
	variants["trials"] = v
	v = simSpec()
	v.Sim.N = 17
	variants["n"] = v
	v = simSpec()
	v.Sim.Algo = "decay"
	variants["algo"] = v
	for name, spec := range variants {
		h := spec.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[h] = name
	}
}

func TestValidateAcceptsRealJobs(t *testing.T) {
	good := []Spec{
		simSpec(),
		{Experiment: "E5", Quick: true, Trials: 2},
		{Experiment: "all"},
		{Sim: &SimSpec{N: 4, Deploy: "pairs", Algo: "sweep", Channel: "radio-cd"}, Trace: true},
	}
	for i, s := range good {
		if err := s.Normalized().Validate(); err != nil {
			t.Errorf("spec %d rejected: %v", i, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	tr3 := simSpec()
	tr3.Trials = 3
	tr3.Trace = true
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"empty", Spec{}, "exactly one"},
		{"both kinds", Spec{Experiment: "E1", Sim: &SimSpec{N: 4, Deploy: "disk", Algo: "fixed"}}, "exactly one"},
		{"unknown experiment", Spec{Experiment: "E999"}, "unknown experiment id"},
		{"bad format", Spec{Experiment: "E1", Format: "yaml"}, "unknown format"},
		{"experiment trace", Spec{Experiment: "E1", Trace: true}, "trace"},
		{"no scenario", Spec{Kind: KindSim}, "sim jobs need"},
		{"zero nodes", Spec{Sim: &SimSpec{N: 0, Deploy: "disk", Algo: "fixed"}}, "sim.n"},
		{"unknown deploy", Spec{Sim: &SimSpec{N: 8, Deploy: "moon", Algo: "fixed"}}, "unknown deployment"},
		{"unknown algo", Spec{Sim: &SimSpec{N: 8, Deploy: "disk", Algo: "magic"}}, "unknown algorithm"},
		{"unknown channel", Spec{Sim: &SimSpec{N: 8, Deploy: "disk", Algo: "fixed", Channel: "fiber"}}, "unknown channel"},
		{"bad p", Spec{Sim: &SimSpec{N: 8, Deploy: "disk", Algo: "fixed", P: 1.5}}, "sim.p"},
		{"negative rounds", Spec{Sim: &SimSpec{N: 8, Deploy: "disk", Algo: "fixed", MaxRounds: -1}}, "max_rounds"},
		{"trace multi-trial", tr3, "trials=1"},
		{"shard on sim", func() Spec { s := simSpec(); s.Shard = &ShardRef{Index: 0, Count: 2}; return s }(), "experiment jobs"},
		{"shard zero count", Spec{Experiment: "E5", Shard: &ShardRef{Index: 0, Count: 0}}, "shard.count"},
		{"shard count over max", Spec{Experiment: "E5", Shard: &ShardRef{Index: 0, Count: MaxShards + 1}}, "shard.count"},
		{"shard index negative", Spec{Experiment: "E5", Shard: &ShardRef{Index: -1, Count: 2}}, "shard.index"},
		{"shard index past count", Spec{Experiment: "E5", Shard: &ShardRef{Index: 2, Count: 2}}, "shard.index"},
	}
	for _, tc := range cases {
		err := tc.spec.Normalized().Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

// serializedJSONNames lists the json names a struct type marshals, in field
// order, skipping unexported and json:"-" fields — the ground truth the
// canonical-hash field lists must match.
func serializedJSONNames(t *testing.T, typ reflect.Type) []string {
	t.Helper()
	var names []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch tag {
		case "-":
			continue
		case "":
			t.Errorf("%s.%s has no json name; the canonical form must not depend on Go identifiers", typ.Name(), f.Name)
			continue
		}
		names = append(names, tag)
	}
	return names
}

// TestSpecHashFieldManifest cross-checks the canonical-hash field lists
// (which the spechash analyzer holds in correspondence with the struct
// declarations) against the live struct tags by reflection, so the analyzer
// and the runtime can never disagree about what feeds Spec.Hash.
func TestSpecHashFieldManifest(t *testing.T) {
	cases := []struct {
		typ  reflect.Type
		list []string
	}{
		{reflect.TypeOf(Spec{}), specHashFields},
		{reflect.TypeOf(SimSpec{}), simSpecHashFields},
		{reflect.TypeOf(ShardRef{}), shardRefHashFields},
	}
	for _, tc := range cases {
		if got := serializedJSONNames(t, tc.typ); !slices.Equal(got, tc.list) {
			t.Errorf("%sHashFields = %v, but %s serializes %v", strings.ToLower(tc.typ.Name()[:1])+tc.typ.Name()[1:], tc.list, tc.typ.Name(), got)
		}
	}
}

// TestDecodeSpecLegacyFarFieldEps: the retired farfield_eps field is
// accepted anywhere in [0, 0.5), the range the deleted ε engine took, and
// dropped, so the job is the exact one and hashes like it; values outside
// that range are rejected.
func TestDecodeSpecLegacyFarFieldEps(t *testing.T) {
	const job = `{"sim":{"n":16,"deploy":"disk","algo":"fixed"},"seed":7,"trials":2%s}`
	exact := simSpec().Hash()
	for _, eps := range []string{"0", "0.01", "0.49"} {
		got, err := DecodeSpec(strings.NewReader(fmt.Sprintf(job, `,"farfield_eps":`+eps)))
		if err != nil {
			t.Fatalf("farfield_eps %s rejected: %v", eps, err)
		}
		if got.Hash() != exact {
			t.Errorf("farfield_eps %s hashes as %s, want the exact job's %s", eps, got.Hash(), exact)
		}
	}
	for _, eps := range []string{"-0.1", "0.5", "0.7"} {
		if _, err := DecodeSpec(strings.NewReader(fmt.Sprintf(job, `,"farfield_eps":`+eps))); err == nil || !strings.Contains(err.Error(), "farfield_eps") {
			t.Errorf("farfield_eps %s: error %v, want a range rejection", eps, err)
		}
	}
}

// TestDecodeSpecLegacyGainCache: the retired gaincache field is accepted
// with each of its old values and dropped; any other value, like any
// unknown field, is still rejected.
func TestDecodeSpecLegacyGainCache(t *testing.T) {
	const job = `{"experiment":"E5","seed":3%s}`
	want, err := DecodeSpec(strings.NewReader(fmt.Sprintf(job, "")))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"", "auto", "on", "off"} {
		got, err := DecodeSpec(strings.NewReader(fmt.Sprintf(job, fmt.Sprintf(`,"gaincache":%q`, mode))))
		if err != nil {
			t.Fatalf("gaincache %q rejected: %v", mode, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("gaincache %q decoded to %+v, want %+v", mode, got, want)
		}
	}
	for name, c := range map[string]struct{ extra, want string }{
		"bad gaincache": {`,"gaincache":"maybe"`, "gain-cache"},
		"unknown field": {`,"bogus":1`, "unknown field"},
	} {
		if _, err := DecodeSpec(strings.NewReader(fmt.Sprintf(job, c.extra))); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q missing %q", name, err, c.want)
		}
	}
}

// TestDecodeSpecLegacySINRParallel: the retired sinr_parallel field is
// accepted anywhere in [0, 256], the range the removed knob took, and
// dropped, so the spec hashes as the job without it, for sim and
// experiment jobs alike; values outside that range are rejected.
func TestDecodeSpecLegacySINRParallel(t *testing.T) {
	for _, job := range []string{
		`{"sim":{"n":16,"deploy":"disk","algo":"fixed"},"seed":7,"trials":2%s}`,
		`{"experiment":"E5","seed":3,"quick":true%s}`,
	} {
		plain, err := DecodeSpec(strings.NewReader(fmt.Sprintf(job, "")))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{"0", "2", "256"} {
			got, err := DecodeSpec(strings.NewReader(fmt.Sprintf(job, `,"sinr_parallel":`+p)))
			if err != nil {
				t.Fatalf("sinr_parallel %s rejected: %v", p, err)
			}
			if got.Hash() != plain.Hash() {
				t.Errorf("sinr_parallel %s hashes as %s, want the plain job's %s", p, got.Hash(), plain.Hash())
			}
		}
		for _, p := range []string{"-1", "257"} {
			if _, err := DecodeSpec(strings.NewReader(fmt.Sprintf(job, `,"sinr_parallel":`+p))); err == nil || !strings.Contains(err.Error(), "sinr_parallel") {
				t.Errorf("sinr_parallel %s: error %v, want a range rejection", p, err)
			}
		}
	}
}

// TestShardJobGoldens pins the canonical JSON and hash of a shard job, so
// no change to the spec types can move its cache key, and the rejection of
// a shard block that carries a trace policy: shard jobs capture no traces,
// and "trace" is no field of the block.
func TestShardJobGoldens(t *testing.T) {
	const e5 = `{"experiment":"E5","quick":true,"trials":2,"seed":7,"shard":{"index":%d,"count":2%s}}`
	s, err := DecodeSpec(strings.NewReader(fmt.Sprintf(e5, 0, "")))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Normalized().Validate(); err != nil {
		t.Fatal(err)
	}
	const canonical = `{"kind":"experiment","experiment":"E5","seed":7,"trials":2,"quick":true,"shard":{"index":0,"count":2}}`
	if got := string(s.CanonicalJSON()); got != canonical {
		t.Errorf("canonical JSON\n got %s\nwant %s", got, canonical)
	}
	if got, want := s.Hash(), "2e2350445f9d062d677a37fefcd591456267b5455078eb61c6f1cf62bd06812e"; got != want {
		t.Errorf("hash %s, want %s", got, want)
	}
	for _, job := range []string{
		fmt.Sprintf(e5, 0, `,"trace":{}`),
		fmt.Sprintf(e5, 0, `,"trace":{"format":"ndjson","every":1}`),
		fmt.Sprintf(e5, 1, `,"trace":{"format":"binary","every":5,"failures":true,"classes":true}`),
		`{"experiment":"all","seed":7,"shard":{"index":0,"count":3,"trace":{"every":100}}}`,
		fmt.Sprintf(e5, 0, `,"trace":{"format":"xml"}`),
		fmt.Sprintf(e5, 0, `,"trace":{"every":-1}`),
	} {
		if _, err := DecodeSpec(strings.NewReader(job)); err == nil || !strings.Contains(err.Error(), `unknown field "trace"`) {
			t.Errorf("%s: error %v, want an unknown-field rejection", job, err)
		}
	}
}
