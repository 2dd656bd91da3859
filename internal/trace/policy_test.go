package trace

import (
	"flag"
	"io"
	"testing"
)

// TestAddFlags: the five capture flags fill one policy, the sampling
// default is the caller's, an unknown format fails the parse, and a
// negative sampling interval does not validate.
func TestAddFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p := AddFlags(fs, 100)
	if err := fs.Parse(nil); err != nil || *p != (Policy{EveryK: 100}) {
		t.Fatalf("defaults = %+v, %v", *p, err)
	}
	args := []string{"-trace-dir", "out", "-trace-format", "binary", "-trace-every", "3", "-trace-failures", "-trace-classes"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if want := (Policy{Dir: "out", Format: FormatBinary, EveryK: 3, FailuresOnly: true, Classes: true}); *p != want {
		t.Errorf("parsed %+v, want %+v", *p, want)
	}
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	AddFlags(fs, 1)
	if err := fs.Parse([]string{"-trace-format", "xml"}); err == nil {
		t.Error("-trace-format xml parsed")
	}
	if err := (Policy{EveryK: -1}).Validate(); err == nil {
		t.Error("negative sampling interval validated")
	}
}
