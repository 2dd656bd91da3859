package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// The harness runs every unit in a fresh child process (this binary with
// the "child" subcommand), so each unit's peak RSS and CPU time come from
// its own rusage and no unit inherits another's heap. The child reports
// the moment it dispatches its first trial by writing one byte to fd 3,
// and its result as the last line of stdout.

// childResult is the child's report to the harness.
type childResult struct {
	unitOut
	// UnitS is the unit's wall time from first dispatch to its result.
	UnitS float64 `json:"unit_s"`
	// Rounds and Transmissions are obs.Default deltas over the unit.
	Rounds        int64 `json:"rounds"`
	Transmissions int64 `json:"transmissions"`
	// Layers holds the per-layer metrics of a traced unit.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Ref is the workload's reference (mode "ref").
	Ref *refOut `json:"ref,omitempty"`
}

// Child modes.
const (
	modeUnit  = "unit"  // run one unit
	modeProbe = "probe" // exit at the first dispatch: a set-up sample
	modeRef   = "ref"   // compute the workload's reference digest
)

func childMain(args []string) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 7, "workload seed")
	mode := fs.String("mode", modeUnit, "unit|probe|ref")
	traced := fs.Bool("traced", false, "record the per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	res, err := runChild(w, *seed, *mode, *traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func runChild(w workload, seed uint64, mode string, traced bool) (childResult, error) {
	ctx := context.Background()
	if mode == modeRef {
		if w.ref == nil {
			return childResult{}, fmt.Errorf("workload has no reference")
		}
		ref, err := w.ref(ctx, seed)
		return childResult{Ref: &ref}, err
	}
	signal := os.NewFile(3, "dispatch")
	var start time.Time
	dispatch := func() {
		// Best effort: a harness that stopped listening loses only the
		// set-up sample.
		_, _ = signal.Write([]byte{'d'})
		_ = signal.Close()
		if mode == modeProbe {
			os.Exit(0)
		}
		start = time.Now()
	}
	var l *ledger
	if traced {
		l = newLedger()
	}
	before := snapCounters()
	out, err := w.run(ctx, seed, l, dispatch)
	unitS := time.Since(start).Seconds()
	if err != nil {
		return childResult{}, err
	}
	d := snapCounters().delta(before)
	res := childResult{
		unitOut:       out,
		UnitS:         unitS,
		Rounds:        d.c["sim.rounds"],
		Transmissions: d.c["sim.transmissions"],
	}
	if l != nil {
		res.Layers = l.finish(d, unitS)
	}
	return res, nil
}
