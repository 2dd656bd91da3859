package experiments

import (
	"strings"
	"testing"
)

func TestConfigFromSpecSelectsAll(t *testing.T) {
	for _, ids := range []string{"", "all"} {
		exps, cfg, err := ConfigFromSpec(Spec{IDs: ids, Seed: 3})
		if err != nil {
			t.Fatalf("IDs=%q: %v", ids, err)
		}
		if len(exps) != len(All()) {
			t.Errorf("IDs=%q selected %d of %d experiments", ids, len(exps), len(All()))
		}
		if cfg.Seed != 3 {
			t.Errorf("seed not threaded: %d", cfg.Seed)
		}
	}
}

func TestConfigFromSpecSelectsList(t *testing.T) {
	exps, _, err := ConfigFromSpec(Spec{IDs: "E5, E1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 2 || exps[0].ID != "E5" || exps[1].ID != "E1" {
		t.Errorf("selection wrong: %+v", exps)
	}
}

func TestConfigFromSpecRejections(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown id", Spec{IDs: "E999"}, "unknown experiment id"},
		{"empty id in list", Spec{IDs: "E1,,E2"}, "unknown experiment id"},
		{"negative trials", Spec{IDs: "E1", Trials: -1}, "trials"},
	}
	for _, tc := range cases {
		if _, _, err := ConfigFromSpec(tc.spec); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

func TestConfigFromSpecMatchesDirectConfig(t *testing.T) {
	// The spec path must produce the same Config a caller would build by
	// hand, so crbench's migration to it cannot change results.
	_, cfg, err := ConfigFromSpec(Spec{IDs: "E5", Seed: 9, Trials: 2, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 9, Trials: 2, Quick: true}
	if cfg.Seed != want.Seed || cfg.Trials != want.Trials || cfg.Quick != want.Quick {
		t.Errorf("Config = %+v, want %+v", cfg, want)
	}
}
