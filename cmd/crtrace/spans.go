// The spans subcommand analyses coordinator span logs (crshard
// -span-log): NDJSON streams of begin/event/end lines recording the
// dispatch → execute → retry → merge lifecycle of a sharded run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"fadingcr/internal/cli"
	"fadingcr/internal/obs"
	"fadingcr/internal/viz"
)

// spanLine is the union of the span-log line shapes plus every field the
// coordinator's instrumentation attaches. Optional numerics that have a
// meaningful zero (shard 0, ok=false) decode through pointers so absence is
// distinguishable.
type spanLine struct {
	Event  string `json:"event"`
	Schema int    `json:"schema"`
	Phase  string `json:"phase"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Span   uint64 `json:"span"`
	Name   string `json:"name"`
	TUs    int64  `json:"t_us"`
	DurUs  int64  `json:"dur_us"`

	Shards    int    `json:"shards"`
	Executors int    `json:"executors"`
	Spec      string `json:"spec"`
	Shard     *int   `json:"shard"`
	Executor  string `json:"executor"`
	Straggler *bool  `json:"straggler"`
	Attempt   int    `json:"attempt"`
	OK        *bool  `json:"ok"`
	Error     string `json:"error"`
	Failed    *int   `json:"failed"`
	Resumed   int    `json:"resumed"`
	MS        int64  `json:"ms"`
}

// spanRec is one reassembled span: its begin line plus the end line's
// duration/outcome and any events attributed to it.
type spanRec struct {
	begin  spanLine
	durUs  int64
	ended  bool
	ok     *bool
	failed *int
	events []spanLine
}

// readSpans parses a span log: header, then begin/event/end lines
// reassembled by span id.
func readSpans(r io.Reader) (map[uint64]*spanRec, []uint64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("empty span log")
	}
	var head spanLine
	if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
		return nil, nil, fmt.Errorf("parse span-log header: %w", err)
	}
	if head.Event != "spans" {
		return nil, nil, fmt.Errorf("not a span log (header event %q, want spans)", head.Event)
	}
	if head.Schema != obs.SpanSchemaVersion {
		return nil, nil, fmt.Errorf("span-log schema %d, want %d", head.Schema, obs.SpanSchemaVersion)
	}
	spans := map[uint64]*spanRec{}
	var order []uint64
	lineNo := 1
	for sc.Scan() {
		lineNo++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var l spanLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if l.Event != "span" {
			return nil, nil, fmt.Errorf("line %d: unexpected event %q", lineNo, l.Event)
		}
		switch l.Phase {
		case "begin":
			if _, dup := spans[l.ID]; dup {
				return nil, nil, fmt.Errorf("line %d: span id %d begun twice", lineNo, l.ID)
			}
			spans[l.ID] = &spanRec{begin: l}
			order = append(order, l.ID)
		case "event":
			if s := spans[l.Span]; s != nil {
				s.events = append(s.events, l)
			}
		case "end":
			if s := spans[l.ID]; s != nil {
				s.durUs, s.ended, s.ok, s.failed = l.DurUs, true, l.OK, l.Failed
			}
		default:
			return nil, nil, fmt.Errorf("line %d: unknown span phase %q", lineNo, l.Phase)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return spans, order, nil
}

// usDur renders a microsecond count as a compact duration.
func usDur(us int64) string {
	return time.Duration(us * int64(time.Microsecond)).Round(10 * time.Microsecond).String()
}

// shardStats accumulates one shard's dispatch history.
type shardStats struct {
	dispatches int
	attempts   int
	retries    int
	stragglers int
	busyUs     int64
	ok         bool
	executors  []string
}

func runSpans(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("crtrace spans", flag.ContinueOnError)
	fs.SetOutput(errw)
	width := fs.Int("width", 40, "timeline bar width in characters")
	if err := fs.Parse(args); err != nil {
		return cli.Usage(err)
	}
	if fs.NArg() != 1 {
		return cli.Usagef("spans: want exactly one span-log file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	spans, order, err := readSpans(f)
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}

	var run *spanRec
	perShard := map[int]*shardStats{}
	var stragglerLines []string
	for _, id := range order {
		s := spans[id]
		switch s.begin.Name {
		case "run":
			run = s
		case "dispatch":
			if s.begin.Shard == nil {
				continue
			}
			shard := *s.begin.Shard
			st := perShard[shard]
			if st == nil {
				st = &shardStats{}
				perShard[shard] = st
			}
			st.dispatches++
			st.executors = append(st.executors, s.begin.Executor)
			if s.ok != nil && *s.ok {
				st.ok = true
			}
			if s.begin.Straggler != nil && *s.begin.Straggler {
				st.stragglers++
				stragglerLines = append(stragglerLines,
					fmt.Sprintf("shard %d re-dispatched to %s at %s", shard, s.begin.Executor, usDur(s.begin.TUs)))
			}
			for _, ev := range s.events {
				if ev.Name == "retry" {
					st.retries++
				}
			}
		case "execute":
			if s.begin.Shard == nil {
				continue
			}
			st := perShard[*s.begin.Shard]
			if st == nil {
				st = &shardStats{}
				perShard[*s.begin.Shard] = st
			}
			st.attempts++
			st.busyUs += s.durUs
		}
	}

	if run == nil {
		return fmt.Errorf("%s: span log has no run span", fs.Arg(0))
	}
	fmt.Fprintf(out, "run       spec=%s shards=%d executors=%d", run.begin.Spec, run.begin.Shards, run.begin.Executors)
	if run.ended {
		fmt.Fprintf(out, " duration=%s", usDur(run.durUs))
	}
	fmt.Fprintln(out)
	for _, ev := range run.events {
		if ev.Name == "resume" {
			fmt.Fprintf(out, "resume    %d shard(s) loaded from checkpoints\n", ev.Resumed)
		}
	}
	if run.failed != nil && *run.failed > 0 {
		fmt.Fprintf(out, "outcome   %d shard(s) failed\n", *run.failed)
	} else if run.ended {
		fmt.Fprintln(out, "outcome   all shards merged")
	}
	for _, id := range order {
		if s := spans[id]; s.begin.Name == "merge" && s.ended {
			fmt.Fprintf(out, "merge     %s\n", usDur(s.durUs))
		}
	}

	shardIdx := make([]int, 0, len(perShard))
	for i := range perShard {
		shardIdx = append(shardIdx, i)
	}
	sort.Ints(shardIdx)
	if len(shardIdx) > 0 {
		fmt.Fprintf(out, "\n%-6s %-10s %-9s %-8s %-11s %-10s %s\n",
			"shard", "dispatches", "attempts", "retries", "stragglers", "busy", "executors")
		labels := make([]string, 0, len(shardIdx))
		values := make([]int, 0, len(shardIdx))
		for _, i := range shardIdx {
			st := perShard[i]
			execs := append([]string(nil), st.executors...)
			sort.Strings(execs)
			execs = dedupeStrings(execs)
			fmt.Fprintf(out, "%-6d %-10d %-9d %-8d %-11d %-10s %s\n",
				i, st.dispatches, st.attempts, st.retries, st.stragglers, usDur(st.busyUs), strings.Join(execs, ","))
			labels = append(labels, fmt.Sprintf("shard %d", i))
			values = append(values, int(st.busyUs))
		}
		fmt.Fprintf(out, "\nexecute time per shard (µs):\n%s", viz.Bars(labels, values, *width))
	}
	if len(stragglerLines) > 0 {
		fmt.Fprintln(out, "\nstraggler re-dispatches:")
		for _, l := range stragglerLines {
			fmt.Fprintf(out, "  %s\n", l)
		}
	}
	return nil
}

// dedupeStrings collapses adjacent duplicates of a sorted slice.
func dedupeStrings(xs []string) []string {
	out := xs[:0]
	for _, x := range xs {
		if len(out) == 0 || out[len(out)-1] != x {
			out = append(out, x)
		}
	}
	return out
}
