// Command crtrace analyses structured trace files written by crsim and
// crbench (internal/trace NDJSON or binary; formats are sniffed, so the two
// can be mixed freely).
//
// Usage:
//
//	crtrace summary trace.ndjson...   # outcomes, round-of-success, contention curve, energy
//	crtrace diff a.ndjson b.ndjson    # first divergent event; exit 0 iff identical
//	crtrace render trace.ndjson       # deployment scatter + per-round sparklines
//	crtrace spans spans.ndjson        # coordinator span log: per-shard timelines
//
// diff is the determinism contract made executable: two same-seed runs must
// produce traces it finds identical (floats compare by bit pattern, not
// tolerance).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"fadingcr/internal/cli"
	"fadingcr/internal/stats"
	"fadingcr/internal/trace"
	"fadingcr/internal/viz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(errw io.Writer) {
	fmt.Fprintln(errw, `usage: crtrace <command> [flags] <trace-file>...

commands:
  summary   aggregate one or more traces: outcomes, round-of-success
            distribution, contention curve, per-node transmit counts
  diff      compare two traces event by event; prints the first divergence
            and exits 1, or exits 0 when byte-equivalent
  render    visualise one trace: deployment scatter plus per-round
            transmitter/reception sparklines
  spans     summarise a coordinator span log (crshard -span-log):
            per-shard timelines, retry counts, straggler attribution

Trace files may be NDJSON or binary (the format is sniffed per file).`)
}

func run(args []string, out, errw io.Writer) int {
	if len(args) == 0 {
		usage(errw)
		return 2
	}
	var err error
	switch args[0] {
	case "summary":
		err = runSummary(args[1:], out, errw)
	case "diff":
		return runDiff(args[1:], out, errw)
	case "render":
		err = runRender(args[1:], out, errw)
	case "spans":
		err = runSpans(args[1:], out, errw)
	case "-h", "-help", "--help", "help":
		usage(errw)
		return 0
	default:
		fmt.Fprintf(errw, "crtrace: unknown command %q\n\n", args[0])
		usage(errw)
		return 2
	}
	if err != nil {
		if !cli.IsHelp(err) {
			fmt.Fprintln(errw, "crtrace:", err)
		}
		return cli.ExitCode(err)
	}
	return 0
}

func readTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := trace.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

func runSummary(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("crtrace summary", flag.ContinueOnError)
	fs.SetOutput(errw)
	width := fs.Int("width", 60, "sparkline/bar width in characters")
	topN := fs.Int("top", 5, "busiest nodes to list in the energy section")
	if err := fs.Parse(args); err != nil {
		return cli.Usage(err)
	}
	if fs.NArg() == 0 {
		return cli.Usagef("summary: no trace files")
	}
	var traces []*trace.Trace
	for _, path := range fs.Args() {
		t, err := readTrace(path)
		if err != nil {
			return err
		}
		traces = append(traces, t)
	}
	s := trace.Summarize(traces)
	h := traces[0].Header
	fmt.Fprintf(out, "traces    %d (%s, algo=%s, channel=%s, n=%d)\n",
		s.Traces, h.Cmd, h.Algo, h.Channel, h.N)
	fmt.Fprintf(out, "outcome   %d solved, %d unsolved\n", s.Solved, s.Unsolved)

	rounds := make([]float64, len(s.Rounds))
	for i, r := range s.Rounds {
		rounds[i] = float64(r)
	}
	if sum, err := stats.Summarize(rounds); err == nil {
		fmt.Fprintf(out, "rounds    min=%.0f median=%.0f mean=%.1f max=%.0f\n",
			sum.Min, stats.Median(rounds), sum.Mean, sum.Max)
	}
	if len(s.Rounds) > 1 {
		sorted := append([]int(nil), s.Rounds...)
		sort.Ints(sorted)
		fmt.Fprintf(out, "          %s  (round of success, sorted)\n", viz.Sparkline(clamp(sorted, *width)))
	}

	if len(s.MeanTx) > 0 {
		curve := make([]int, len(s.MeanTx))
		for i, m := range s.MeanTx {
			curve[i] = int(m*100 + 0.5) // centi-transmitters keep small means visible
		}
		fmt.Fprintf(out, "contention %s  (mean transmitters/round ×100, rounds 1..%d)\n",
			viz.Sparkline(clamp(curve, *width)), len(curve))
	}

	var total int64
	for _, c := range s.Transmissions {
		if c > 0 {
			total += c
		}
	}
	fmt.Fprintf(out, "energy    %d transmissions total\n", total)
	if len(s.NodeTx) > 0 && *topN > 0 {
		type nodeCount struct {
			node  int
			count int64
		}
		busy := make([]nodeCount, 0, len(s.NodeTx))
		for v, c := range s.NodeTx {
			busy = append(busy, nodeCount{v, c})
		}
		sort.Slice(busy, func(i, j int) bool {
			if busy[i].count != busy[j].count {
				return busy[i].count > busy[j].count
			}
			return busy[i].node < busy[j].node
		})
		if len(busy) > *topN {
			busy = busy[:*topN]
		}
		labels := make([]string, len(busy))
		values := make([]int, len(busy))
		for i, b := range busy {
			labels[i] = fmt.Sprintf("node %d", b.node)
			values[i] = int(b.count)
		}
		fmt.Fprint(out, viz.Bars(labels, values, *width))
	}
	return nil
}

// clamp downsamples a series to at most width points (taking every kth), so
// sparklines fit a terminal row regardless of run length.
func clamp(values []int, width int) []int {
	if width < 1 || len(values) <= width {
		return values
	}
	out := make([]int, 0, width)
	for i := 0; i < width; i++ {
		out = append(out, values[i*len(values)/width])
	}
	return out
}

func runDiff(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("crtrace diff", flag.ContinueOnError)
	fs.SetOutput(errw)
	if err := fs.Parse(args); err != nil {
		return cli.ExitCode(cli.Usage(err))
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(errw, "crtrace: diff wants exactly two trace files")
		return 2
	}
	a, err := readTrace(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(errw, "crtrace:", err)
		return 2
	}
	b, err := readTrace(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(errw, "crtrace:", err)
		return 2
	}
	d := trace.Diff(a, b)
	if d == nil {
		fmt.Fprintf(out, "identical: %d records\n", len(a.Records))
		return 0
	}
	if d.Index < 0 {
		fmt.Fprintf(out, "headers diverge at %s: %s vs %s\n", d.Field, d.A, d.B)
		return 1
	}
	fmt.Fprintf(out, "first divergence at record %d, field %s: %s vs %s\n", d.Index, d.Field, d.A, d.B)
	if d.Index < len(a.Records) && d.Index < len(b.Records) {
		ra, rb := a.Records[d.Index], b.Records[d.Index]
		fmt.Fprintf(out, "  a: %s round=%d node=%d\n", ra.Kind, ra.Round, ra.Node)
		fmt.Fprintf(out, "  b: %s round=%d node=%d\n", rb.Kind, rb.Round, rb.Node)
	}
	return 1
}

func runRender(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("crtrace render", flag.ContinueOnError)
	fs.SetOutput(errw)
	width := fs.Int("width", 60, "render width in characters")
	height := fs.Int("height", 20, "scatter height in rows")
	if err := fs.Parse(args); err != nil {
		return cli.Usage(err)
	}
	if fs.NArg() != 1 {
		return cli.Usagef("render: want exactly one trace file")
	}
	t, err := readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	h := t.Header
	fmt.Fprintf(out, "%s trial %d: algo=%s channel=%s n=%d seed=%#x deploy=%#x\n",
		h.Cmd, h.Trial, h.Algo, h.Channel, h.N, h.Seed, h.DeploySeed)
	if len(h.Points) > 0 {
		fmt.Fprintln(out, "\ndeployment:")
		fmt.Fprint(out, viz.Scatter(h.Points, nil, *width, *height))
	}
	var tx, active []int
	haveActive := true
	for _, r := range t.Records {
		if r.Kind != trace.KindRound {
			continue
		}
		tx = append(tx, int(r.Tx))
		if r.Active < 0 {
			haveActive = false
		}
		active = append(active, int(r.Active))
	}
	if len(tx) > 0 {
		fmt.Fprintf(out, "\ntransmitters %s  (rounds 1..%d)\n", viz.Sparkline(clamp(tx, *width)), len(tx))
		if haveActive {
			fmt.Fprintf(out, "active       %s\n", viz.Sparkline(clamp(active, *width)))
		}
	}
	for _, r := range t.Records {
		if r.Kind == trace.KindResult {
			outcome := "unsolved"
			if r.Solved {
				outcome = fmt.Sprintf("solved in round %d by node %d", r.Round, r.Node)
			}
			fmt.Fprintf(out, "\nresult: %s, %d transmissions\n", outcome, r.Transmissions)
		}
	}
	var pretty []string
	for _, r := range t.Records {
		if r.Kind == trace.KindClasses && len(pretty) < 1 {
			sizes := t.ClassSizes(r)
			parts := make([]string, len(sizes))
			for i, s := range sizes {
				parts[i] = fmt.Sprint(s)
			}
			pretty = append(pretty, strings.Join(parts, " "))
		}
	}
	if len(pretty) > 0 {
		fmt.Fprintf(out, "initial link classes: [%s]\n", pretty[0])
	}
	return nil
}
