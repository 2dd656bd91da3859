package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestTraceOutputGoldens pins crsim's per-round views byte for byte: the
// -trace lines, the -plot sparklines and the -csv file, for a SINR run
// whose nodes report activity and a radio run whose nodes do not.
func TestTraceOutputGoldens(t *testing.T) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"trace-plot-csv", []string{"-n", "64", "-seed", "7", "-trace", "-plot", "-csv", "trace.csv"}},
		{"radio-trace", []string{"-n", "32", "-seed", "7", "-channel", "radio", "-algo", "sweep", "-trace", "-csv", "trace.csv"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			t.Chdir(dir)
			stdout := runCapturingStdout(t, tc.args)
			csv, err := os.ReadFile(filepath.Join(dir, "trace.csv"))
			if err != nil {
				t.Fatal(err)
			}
			for ext, got := range map[string][]byte{".stdout": stdout, ".csv": csv} {
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
