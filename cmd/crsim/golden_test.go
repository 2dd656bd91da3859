package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestTraceOutputGoldens pins crsim's output byte for byte: the -trace
// lines, the -plot sparklines and the -csv file, for a SINR run whose nodes
// report activity and a radio run whose nodes do not; the traces of the
// staggered, interleaved and knock-out wrappers, whose active= column is
// each wrapper's own account of its nodes, and a staggered run at n = 256
// whose later wake groups join while knock-outs go on; the stdout of untraced
// estimation runs on radio with collision detection; and the stdout of
// untraced Rayleigh runs, one trial and five, in which sim.Run hands the
// faded channel's DeliverTo only the live listeners, and three-trial
// Rayleigh runs at β = 0.5, where several transmitters can clear β and the
// strictly strongest one must be the one decoded, and at N = 0, and a
// Rayleigh run at n = 2¹⁴, whose faded listeners walk grid rings well past
// their cell's block; and the stdout of untraced exact runs at n = 2¹⁴ and
// 2¹⁶, whose certified rounds take the live listeners and pick many grid
// shapes as the active set decays.
func TestTraceOutputGoldens(t *testing.T) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		csv  bool // the run writes trace.csv, pinned as <name>.csv
	}{
		{"trace-plot-csv", []string{"-n", "64", "-seed", "7", "-trace", "-plot", "-csv", "trace.csv"}, true},
		{"radio-trace", []string{"-n", "32", "-seed", "7", "-channel", "radio", "-algo", "sweep", "-trace", "-csv", "trace.csv"}, true},
		{"staggered-trace", []string{"-n", "64", "-seed", "7", "-algo", "staggered", "-trace", "-csv", "trace.csv"}, true},
		{"staggered-trace-256", []string{"-n", "256", "-seed", "2", "-algo", "staggered", "-trace", "-csv", "trace.csv"}, true},
		{"interleaved-trace", []string{"-n", "64", "-seed", "7", "-algo", "interleaved", "-trace", "-csv", "trace.csv"}, true},
		{"knockout-sweep-trace", []string{"-n", "64", "-seed", "7", "-algo", "knockout-sweep", "-trace", "-csv", "trace.csv"}, true},
		{"estimate-radio-cd", []string{"-algo", "estimate", "-channel", "radio-cd", "-trials", "5"}, false},
		{"rayleigh", []string{"-n", "2048", "-seed", "3", "-channel", "rayleigh"}, false},
		{"rayleigh-trials", []string{"-n", "2048", "-seed", "3", "-channel", "rayleigh", "-trials", "5"}, false},
		{"rayleigh-beta-half", []string{"-n", "2048", "-seed", "3", "-channel", "rayleigh", "-beta", "0.5", "-trials", "3"}, false},
		{"rayleigh-noiseless", []string{"-n", "2048", "-seed", "3", "-channel", "rayleigh", "-noise", "0", "-trials", "3"}, false},
		{"rayleigh-16384", []string{"-n", "16384", "-seed", "5", "-channel", "rayleigh"}, false},
		{"certified-16384", []string{"-n", "16384", "-trials", "3", "-seed", "3"}, false},
		{"certified-65536", []string{"-n", "65536", "-seed", "3"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			t.Chdir(dir)
			outputs := map[string][]byte{".stdout": runCapturingStdout(t, tc.args)}
			if tc.csv {
				csv, err := os.ReadFile(filepath.Join(dir, "trace.csv"))
				if err != nil {
					t.Fatal(err)
				}
				outputs[".csv"] = csv
			}
			for ext, got := range outputs {
				want, err := os.ReadFile(filepath.Join(testdata, tc.name+ext))
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Errorf("%s%s differs from the golden:\n%s", tc.name, ext, got)
				}
			}
		})
	}
}

// runCapturingStdout runs crsim with os.Stdout redirected to a file and
// returns what it printed.
func runCapturingStdout(t *testing.T, args []string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = saved
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
