// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time and prints its metrics; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
//	perfbench --workload e1 --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (wall_s, trials_per_s,
// cpu_s, peak_rss_mb, setup_s), measured untraced. With --trace 1 the run
// alternates untraced and traced units and reports the per-layer ledger.
// Each unit runs in its own child process. See README.md for the workloads,
// the metric definitions, and the recorded baseline.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupProbes is the number of set-up-only child runs taken before each
// round of untraced units; setup_s is the median over all of a run's
// probes. Spreading them over the run, rather than taking them all at its
// start, averages the set-up time over the machine's state during the run.
const setupProbes = 10

// minUnits is the fewest units (pairs, when traced) a run measures, so its
// medians rest on at least three samples however short --seconds is.
const minUnits = 3

//go:embed digests.json
var digestsJSON []byte

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		}
	}
	os.Exit(harnessMain(os.Args[1:]))
}

// unitSample is one child unit as the harness saw it.
type unitSample struct {
	childResult
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	PeakMB float64 `json:"peak_rss_mb"`
	SetupS float64 `json:"setup_s"`
	// Scale is the monitor's reading for an untraced unit of a --trace 0
	// run: the end-to-end times are WallS·Scale and CPUS·Scale.
	Scale   float64 `json:"scale,omitempty"`
	Traced  bool    `json:"traced"`
	Failure string  `json:"failure,omitempty"`
}

// report is the full result of one run, written by --out and read by
// compare.
type report struct {
	Env      fingerprint        `json:"env"`
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    int                `json:"trace"`
	Correct  bool               `json:"correct"`
	Checks   []string           `json:"checks"`
	Metrics  map[string]float64 `json:"metrics"`
	Units    []unitSample       `json:"units"`
	SetupS   []float64          `json:"setup_samples_s,omitempty"`
	Digest   string             `json:"digest"`
	Ref      *refOut            `json:"ref,omitempty"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"trials_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

func harnessMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: e1|solve-large|fleet-mix")
	seed := fs.Uint64("seed", 7, "workload seed")
	seconds := fs.Float64("seconds", 30, "measurement time")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
	out := fs.String("out", "", "also write the full report as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload e1|solve-large|fleet-mix and --trace 0|1 (got %q, %d)\n", *name, *trace)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	h := harness{self: self, w: w, seed: *seed}
	rep := report{Env: currentFingerprint(), Workload: w.name, Seed: *seed, Trace: *trace}
	if err := h.measure(&rep, time.Duration(*seconds*float64(time.Second))); err != nil {
		// The program could not be run at all: no result line.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := h.check(&rep)
	summarize(&rep, res)
	printReport(os.Stdout, &rep, res)
	if *out != "" {
		b, err := json.MarshalIndent(&rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

type harness struct {
	self string
	w    workload
	seed uint64
}

// measure repeats rounds of units, alternating untraced and traced ones
// when tracing, until the budget is spent and at least minUnits rounds
// have run. An untraced run starts each round with setupProbes set-up
// probes, and scales its units by the host's speed while they ran (see
// monitor.go).
func (h harness) measure(rep *report, budget time.Duration) error {
	modes := []bool{false}
	if rep.Trace == 1 {
		modes = []bool{false, true}
	}
	start := time.Now()
	var last time.Duration
	for round := 0; round < minUnits || time.Since(start)+last <= budget; round++ {
		t0 := time.Now()
		if rep.Trace == 0 {
			if err := h.probe(rep); err != nil {
				return err
			}
		}
		for _, traced := range modes {
			s, err := h.child(modeUnit, traced, rep.Trace == 0)
			if err != nil && len(rep.Units) == 0 {
				return err
			}
			rep.Units = append(rep.Units, s)
		}
		last = time.Since(t0)
	}
	return nil
}

// probe takes setupProbes set-up samples: children that exit when they
// dispatch their first trial.
func (h harness) probe(rep *report) error {
	for i := 0; i < setupProbes; i++ {
		s, err := h.child(modeProbe, false, false)
		if err != nil {
			return err
		}
		if !(s.SetupS > 0) {
			return errors.New("set-up probe never dispatched")
		}
		rep.SetupS = append(rep.SetupS, s.SetupS)
	}
	return nil
}

// summarize sets the report's metrics from the units that passed every
// check: medians over the units, and for the ledger over the traced ones.
func summarize(rep *report, res result) {
	var walls, rates, cpus, peaks, plain, traced []float64
	layers := map[string][]float64{}
	for _, u := range rep.Units {
		switch {
		case u.Failure != "":
		case u.Traced:
			traced = append(traced, u.UnitS)
			for k, v := range u.Layers {
				layers[k] = append(layers[k], v)
			}
		default:
			walls = append(walls, u.WallS*u.Scale)
			rates = append(rates, float64(u.Trials)/(u.WallS*u.Scale))
			cpus = append(cpus, u.CPUS*u.Scale)
			peaks = append(peaks, u.PeakMB)
			plain = append(plain, u.UnitS)
		}
	}
	rep.Metrics = map[string]float64{}
	metrics := endToEnd
	if rep.Trace == 0 {
		rep.Metrics["wall_s"] = median(walls)
		rep.Metrics["trials_per_s"] = median(rates)
		rep.Metrics["cpu_s"] = median(cpus)
		rep.Metrics["peak_rss_mb"] = median(peaks)
		rep.Metrics["setup_s"] = median(rep.SetupS)
	} else {
		metrics = perLayer
		for _, m := range perLayer {
			rep.Metrics[m.name] = median(layers[m.name])
		}
		if p := median(plain); p > 0 {
			rep.Metrics["ledger.overhead_frac"] = (median(traced) - p) / p
		}
	}
	for _, m := range metrics {
		res.Metrics[m.name] = metricValue{Value: rep.Metrics[m.name], Unit: m.unit}
	}
}

// child runs one child process and measures it from the outside: wall
// time from start to exit, set-up time from start to the dispatch byte,
// CPU time and peak RSS from its rusage. With monitored set, a monitor
// runs beside it and sets the sample's Scale. A child that fails returns a
// sample with Failure set, and the error.
func (h harness) child(mode string, traced, monitored bool) (unitSample, error) {
	args := []string{"child", "-workload", h.w.name, "-seed", strconv.FormatUint(h.seed, 10), "-mode", mode}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.Command(h.self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	pr, pw, err := os.Pipe()
	if err != nil {
		return unitSample{}, err
	}
	defer pr.Close()
	cmd.ExtraFiles = []*os.File{pw}
	start := time.Now()
	err = cmd.Start()
	pw.Close()
	if err != nil {
		return unitSample{}, err
	}
	setup := make(chan time.Duration, 1)
	go func() {
		var b [1]byte
		if n, _ := pr.Read(b[:]); n == 1 {
			setup <- time.Since(start)
		}
		close(setup)
	}()
	var mon *monitor
	if monitored {
		if mon, err = startMonitor(cmd.Process.Pid, h.w.elasticity); err != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return unitSample{}, err
		}
	}
	werr := cmd.Wait()
	wall := time.Since(start)
	s := unitSample{WallS: wall.Seconds(), Traced: traced}
	if mon != nil {
		scale, err := mon.finish()
		if err != nil && werr == nil {
			werr = fmt.Errorf("monitor: %w", err)
		}
		s.Scale = scale
	}
	if d, ok := <-setup; ok {
		s.SetupS = d.Seconds()
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.CPUS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		s.PeakMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if werr != nil {
		s.Failure = fmt.Sprintf("%s child: %v", mode, werr)
		return s, errors.New(s.Failure)
	}
	if mode == modeProbe {
		return s, nil
	}
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &s.childResult); err != nil {
		s.Failure = fmt.Sprintf("%s child output: %v", mode, err)
		return s, errors.New(s.Failure)
	}
	return s, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// check is the correctness gate. Every unit must produce the digest
// digests.json records for the seed, or else the workload's independent
// reference, or else the first untraced unit's. Every unit must also do the
// expected work, as sim.rounds and sim.transmissions totals: with a
// reference, at least the shards' totals times the unit's completed
// attempts per shard and at most times all its attempts; otherwise exactly
// the first untraced unit's totals, which is how a traced unit must
// reproduce the untraced run. A unit that fails any check counts all its
// trials as failed.
func (h harness) check(rep *report) result {
	recorded, err := recordedDigest(h.w.name, h.seed)
	if err != nil {
		rep.Checks = append(rep.Checks, "FAIL recorded digests unreadable: "+err.Error())
	} else if recorded != "" {
		rep.Checks = append(rep.Checks, "digest recorded for seed "+strconv.FormatUint(h.seed, 10))
	}
	want := recorded
	if h.w.ref != nil {
		s, err := h.child(modeRef, false, false)
		switch {
		case err != nil:
			rep.Checks = append(rep.Checks, "FAIL reference: "+err.Error())
		case recorded != "" && s.Ref.Digest != recorded:
			rep.Checks = append(rep.Checks, "FAIL reference digest "+short(s.Ref.Digest)+" differs from the recorded one")
		default:
			rep.Ref = s.Ref
			want = s.Ref.Digest
			rep.Checks = append(rep.Checks, "digest of the unsharded reference run; work from the reference shards")
		}
	}
	var first *unitSample
	for i := range rep.Units {
		if u := &rep.Units[i]; u.Failure == "" && !u.Traced {
			first = u
			break
		}
	}
	if first != nil && want == "" {
		want = first.Digest
		rep.Checks = append(rep.Checks, "no recorded digest for this seed: units checked against the first")
	}
	rep.Digest = want

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for i := range rep.Units {
		u := &rep.Units[i]
		if u.Failure == "" && u.Digest != want {
			u.Failure = "digest " + short(u.Digest) + " want " + short(want)
		}
		if lo, hi, ok := expectedWork(rep.Ref, first, u); u.Failure == "" && !ok {
			want := fmt.Sprintf("%d/%d", lo[0], lo[1])
			if hi != lo {
				want = fmt.Sprintf("between %s and %d/%d", want, hi[0], hi[1])
			}
			u.Failure = fmt.Sprintf("sim.rounds/sim.transmissions %d/%d, want %s", u.Rounds, u.Transmissions, want)
		}
		n := u.Trials
		if n == 0 && first != nil {
			n = first.Trials
		}
		n = max(n, 1)
		res.Attempted += n
		if u.Failure != "" {
			res.Failed += n
			rep.Checks = append(rep.Checks, fmt.Sprintf("FAIL unit %d: %s", i, u.Failure))
		}
	}
	if rep.Trace == 1 {
		rep.Checks = append(rep.Checks, "traced units checked for the untraced digest and sim.rounds/sim.transmissions")
	}
	for _, c := range rep.Checks {
		if strings.HasPrefix(c, "FAIL") {
			res.Correct = false
		}
	}
	res.Correct = res.Correct && res.Failed == 0
	rep.Correct = res.Correct
	return res
}

// expectedWork returns the least and the most (sim.rounds,
// sim.transmissions) totals unit u may have run, and whether its totals lie
// between them. With a reference, every shard must have completed at least
// once; an attempt that failed or was cancelled may have done any part of
// its shard's work.
func expectedWork(ref *refOut, first, u *unitSample) (lo, hi [2]int64, ok bool) {
	switch {
	case ref != nil:
		if len(u.Attempts) != len(ref.Shards) || len(u.Completed) != len(ref.Shards) {
			return lo, hi, false
		}
		for k, sh := range ref.Shards {
			if u.Completed[k] < 1 {
				return lo, hi, false
			}
			for j := range sh {
				lo[j] += int64(u.Completed[k]) * sh[j]
				hi[j] += int64(u.Attempts[k]) * sh[j]
			}
		}
	case first != nil:
		lo = [2]int64{first.Rounds, first.Transmissions}
		hi = lo
	default:
		return lo, hi, true
	}
	ok = lo[0] <= u.Rounds && u.Rounds <= hi[0] && lo[1] <= u.Transmissions && u.Transmissions <= hi[1]
	return lo, hi, ok
}

func attempts(a []int) string {
	if a == nil {
		return ""
	}
	return "attempts " + strings.Trim(fmt.Sprint(a), "[]")
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// recordedDigest returns the digest digests.json records for the workload
// and seed, or "" when none is recorded.
func recordedDigest(name string, seed uint64) (string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return "", err
	}
	return all[name][strconv.FormatUint(seed, 10)], nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// printReport writes the human-readable lines above the result line.
func printReport(w io.Writer, rep *report, res result) {
	fmt.Fprintf(w, "perfbench %s seed %d trace %d\n", rep.Workload, rep.Seed, rep.Trace)
	env, _ := json.Marshal(rep.Env)
	fmt.Fprintf(w, "env %s\n", env)
	for i, u := range rep.Units {
		tag := "untraced"
		if u.Traced {
			tag = "traced"
		}
		fmt.Fprintf(w, "unit %d %-8s wall %.3fs unit %.3fs cpu %.3fs scale %.3f peak %.1fMB trials %d rounds %d digest %s %s\n",
			i, tag, u.WallS, u.UnitS, u.CPUS, u.Scale, u.PeakMB, u.Trials, u.Rounds, short(u.Digest), attempts(u.Attempts))
	}
	for _, c := range rep.Checks {
		fmt.Fprintln(w, "check", c)
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%-22s %14.6g %s\n", "failed_frac", frac, "ratio")
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	order := map[string]int{}
	for i, m := range append(append([]struct{ name, unit string }{}, endToEnd...), perLayer...) {
		order[m.name] = i
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	for _, k := range names {
		fmt.Fprintf(w, "%-22s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}
