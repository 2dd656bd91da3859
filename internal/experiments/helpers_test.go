package experiments

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"fadingcr/internal/core"
	"fadingcr/internal/runner"
	"fadingcr/internal/sim"
	"fadingcr/internal/trace"
)

func TestE1Budget(t *testing.T) {
	if got := e1Budget(16); got != 400+100*4 {
		t.Errorf("e1Budget(16) = %d, want 800", got)
	}
	if got := e1Budget(1024); got != 400+100*10 {
		t.Errorf("e1Budget(1024) = %d, want 1400", got)
	}
	// Generous: always far above the observed medians (≈ 2·log₂ n).
	for _, n := range []int{16, 256, 4096} {
		if float64(e1Budget(n)) < 20*math.Log2(float64(n)) {
			t.Errorf("budget for n=%d too tight", n)
		}
	}
}

// TestE7MatchesARunPerBudget: E7 runs each trial once, at its largest
// budget, and counts a trial as failing budget C·⌈log₂ n⌉ when it is
// unsolved or solves after it. Its quick table must read what the literal
// way reads: one run per budget, counting the unsolved. Seed 23 has a trial
// that solves exactly at a smaller budget (n = 16, C = 4, round 16), which
// counts as solved; without one the cases could not tell > from ≥.
func TestE7MatchesARunPerBudget(t *testing.T) {
	ns, cs := []int{16, 64, 256}, []int{4, 8, 16}
	atBudget := 0
	for _, seed := range []uint64{7, 23} {
		cfg := Config{Seed: seed, Quick: true}
		trials := cfg.trials(300, 40)
		tables, err := e7().Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rows := tables[0].Rows; len(rows) != len(ns) {
			t.Fatalf("seed %d: E7 has %d rows, want %d", seed, len(rows), len(ns))
		}
		for i, n := range ns {
			for j, c := range cs {
				budget := c * int(math.Ceil(math.Log2(float64(n))))
				outcomes, err := sinrTrialOutcomes(cfg, trials, n, core.FixedProbability{}, budget, budget)
				if err != nil {
					t.Fatal(err)
				}
				unsolved := 0
				for _, o := range outcomes {
					if !o.Solved {
						unsolved++
					} else if o.Rounds == float64(budget) && c < cs[len(cs)-1] {
						atBudget++
					}
				}
				if got, want := tables[0].Rows[i][2+j], fmt.Sprintf("%d/%d", unsolved, trials); got != want {
					t.Errorf("seed %d n=%d C=%d: E7 reads %s, a run at budget %d %s", seed, n, c, got, budget, want)
				}
			}
		}
	}
	if atBudget == 0 {
		t.Fatal("no trial solved exactly at a budget below the largest; the cases cannot tell > from ≥")
	}
}

// TestE7TracesEveryCountedFailure: with failure-only capture, E7 keeps
// the trace of every trial it counts as failed under any budget, not only
// of the trials unsolved at its largest: at seed 12345, -quick, trial 32
// solves at n = 16 but after C = 4's budget, and its trace is written.
// Every trace written is of a counted failure, and the tables are those of
// the untraced run.
func TestE7TracesEveryCountedFailure(t *testing.T) {
	cfg := Config{Seed: 12345, Quick: true}
	plain := renderAll(t, "E7", cfg)
	trials := cfg.trials(300, 40)
	want := map[string]bool{}
	for _, n := range []int{16, 64, 256} {
		logN := int(math.Ceil(math.Log2(float64(n))))
		outcomes, err := sinrTrialOutcomes(cfg, trials, n, core.FixedProbability{}, 16*logN, 4*logN)
		if err != nil {
			t.Fatal(err)
		}
		for trial, o := range outcomes {
			if !o.Solved || o.Rounds > float64(4*logN) {
				_, pseed := runner.TrialSeeds(cfg.Seed, trial)
				want[trace.Policy{}.Filename(trial, pseed)] = true
			}
		}
	}
	_, pseed := runner.TrialSeeds(cfg.Seed, 32)
	if trial32 := (trace.Policy{}).Filename(32, pseed); !want[trial32] {
		t.Fatalf("trial 32 is no counted failure at seed %d; the case pins nothing", cfg.Seed)
	}
	dir := t.TempDir()
	cfg.Trace = newTestCapture(t, dir, trace.Policy{FailuresOnly: true})
	if got := renderAll(t, "E7", cfg); got != plain {
		t.Error("E7's tables differ with failure-only capture")
	}
	written := cfg.Trace.Written()
	for _, path := range written {
		if !want[filepath.Base(path)] {
			t.Errorf("trace %s is of no counted failure", filepath.Base(path))
		}
	}
	if len(written) != len(want) {
		t.Errorf("%d traces written, want one per counted failure, %d", len(written), len(want))
	}
}

func TestIlog2(t *testing.T) {
	cases := map[int]int{2: 1, 3: 2, 4: 2, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := ilog2(n); got != want {
			t.Errorf("ilog2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestColumnHelpers(t *testing.T) {
	if got := nCols([]int{4, 8}); got[0] != "n=4" || got[1] != "n=8" {
		t.Errorf("nCols = %v", got)
	}
	if got := kCols([]int{16}); got[0] != "k=16" {
		t.Errorf("kCols = %v", got)
	}
	if got := cCols([]int{2, 4}); got[0] != "C=2" || got[1] != "C=4" {
		t.Errorf("cCols = %v", got)
	}
}

func TestWhpQuantile(t *testing.T) {
	rounds := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// k = 2 → quantile 0.5 → 5.5 with interpolation.
	if got := whpQuantile(rounds, 2); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("whpQuantile(k=2) = %v, want 5.5", got)
	}
	// Huge k → (essentially) the maximum, up to interpolation epsilon.
	if got := whpQuantile(rounds, 1<<30); got < 10-1e-6 {
		t.Errorf("whpQuantile(k=2^30) = %v, want ≈ 10", got)
	}
}

func TestComparisonMedianUnknownChannel(t *testing.T) {
	entry := comparisonEntry{
		label:   "broken",
		builder: func(int) sim.Builder { return core.FixedProbability{} },
		channel: "carrier-pigeon",
		budget:  func(int) int { return 10 },
	}
	if _, _, err := comparisonMedian(Config{Seed: 1}, 2, 4, entry); err == nil {
		t.Error("unknown channel regime accepted")
	}
}

func TestFitEnvelopeSegment(t *testing.T) {
	// A suffix-max history that exactly follows q with 1 round per step
	// (n = 8, one class, γ_slow = 0.8 default): q = 8, 6.4, 5.1, … — sizes
	// 8, 6, 5 fit at L = 1.
	suffix := [][]int{{8}, {6}, {5}}
	if got := fitEnvelopeSegment(suffix, 3); got != 1 {
		t.Errorf("fast decay: L = %d, want 1", got)
	}
	// A stubborn history that never decays needs the maximal L: sizes stay
	// at the initial value while q falls below it at step 1.
	stubborn := [][]int{{8}, {8}, {8}, {8}}
	if got := fitEnvelopeSegment(stubborn, 4); got <= 1 {
		t.Errorf("stubborn history: L = %d, want > 1", got)
	}
	if got := fitEnvelopeSegment(nil, 0); got != 1 {
		t.Errorf("empty history: L = %d, want 1", got)
	}
}

func TestExperimentClaimsMentionTheRightConcepts(t *testing.T) {
	// Light-weight registry hygiene: each experiment's claim names the
	// concept it validates.
	keywords := map[string][]string{
		"E1":  {"log n"},
		"E2":  {"log R"},
		"E3":  {"radio"},
		"E4":  {"q_t"},
		"E5":  {"good"},
		"E6":  {"hitting"},
		"E7":  {"1/n"},
		"E8":  {"collision"},
		"E9":  {"α"},
		"E10": {"spatial reuse"},
		"E11": {"two-player"},
		"E12": {"Rayleigh"},
		"E13": {"Interleaving"},
		"E14": {"worst-case"},
		"E15": {"two-player"},
		"E16": {"transmissions"},
		"E17": {"knock-out"},
		"E18": {"capacity"},
	}
	for id, words := range keywords {
		e, ok := ByID(id)
		if !ok {
			t.Errorf("%s missing", id)
			continue
		}
		for _, w := range words {
			if !strings.Contains(strings.ToLower(e.Claim), strings.ToLower(w)) {
				t.Errorf("%s claim %q does not mention %q", id, e.Claim, w)
			}
		}
	}
}
