package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// fingerprint identifies the environment a result was measured in. Results
// are comparable only when everything but Commit and Source matches.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPUModel   string `json:"cpu"`
	// Commit is the VCS revision the binary was built from, when the build
	// could stamp one; Source is a hash of the module's Go sources and
	// go.mod, which identifies the code even in a tree without VCS data.
	Commit string `json:"commit"`
	Source string `json:"source"`
}

func currentFingerprint() fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     vcsCommit(),
		Source:     sourceHash("."),
	}
}

// sameMachine reports whether two fingerprints describe the same
// environment, naming the first field that differs.
func (f fingerprint) sameMachine(g fingerprint) (bool, string) {
	switch {
	case f.NProc != g.NProc:
		return false, "nproc"
	case f.GOMAXPROCS != g.GOMAXPROCS:
		return false, "gomaxprocs"
	case f.GoVersion != g.GoVersion:
		return false, "go"
	case f.CPUModel != g.CPUModel:
		return false, "cpu"
	}
	return true, ""
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func vcsCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// sourceHash hashes go.mod and every .go file under root, skipping hidden
// directories and the benchmark's own directory, in path order.
func sourceHash(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || p == filepath.Join(root, "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// compareMain prints the metric-by-metric change between two reports
// written by --out, and refuses when they come from different machines or
// different workloads.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.json NEW.json")
		return 2
	}
	var reps [2]report
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", p, err)
			return 1
		}
	}
	a, b := reps[0], reps[1]
	if ok, field := a.Env.sameMachine(b.Env); !ok {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing: environment fingerprints differ in %s\n", field)
		return 1
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing: %s/trace %d vs %s/trace %d\n", a.Workload, a.Trace, b.Workload, b.Trace)
		return 1
	}
	fmt.Fprintf(w, "%s trace %d: %s (seed %d) -> %s (seed %d)\n", a.Workload, a.Trace, a.Env.Commit, a.Seed, b.Env.Commit, b.Seed)
	names := make([]string, 0, len(a.Metrics))
	for k := range a.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		x, y := a.Metrics[k], b.Metrics[k]
		change := "n/a"
		if x != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(y-x)/x)
		}
		fmt.Fprintf(w, "%-22s %14.6g %14.6g %8s\n", k, x, y, change)
	}
	return 0
}
