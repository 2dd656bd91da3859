package trace

import (
	"encoding/json"
	"flag"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestPolicyHashFieldManifest cross-checks policyHashFields, which the
// spechash analyzer holds in correspondence with the struct declaration,
// against the JSON names Policy actually marshals.
func TestPolicyHashFieldManifest(t *testing.T) {
	typ := reflect.TypeOf(Policy{})
	var names []string
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		switch name {
		case "-":
			continue
		case "":
			t.Errorf("Policy.%s has no json name", typ.Field(i).Name)
			continue
		}
		names = append(names, name)
	}
	if !slices.Equal(names, policyHashFields) {
		t.Errorf("policyHashFields = %v, but Policy serializes %v", policyHashFields, names)
	}
}

// TestPolicyJSON: the zero policy marshals to {}, formats travel by their
// CLI names, the directory never travels, and unknown formats do not decode.
func TestPolicyJSON(t *testing.T) {
	for _, tc := range []struct {
		p    Policy
		want string
	}{
		{Policy{Dir: "out"}, `{}`},
		{Policy{Format: FormatBinary, EveryK: 5, FailuresOnly: true, Classes: true}, `{"format":"binary","every":5,"failures":true,"classes":true}`},
	} {
		b, err := json.Marshal(tc.p)
		if err != nil || string(b) != tc.want {
			t.Errorf("Marshal(%+v) = %s, %v; want %s", tc.p, b, err, tc.want)
		}
		var back Policy
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		want := tc.p
		want.Dir = ""
		if back != want {
			t.Errorf("%s decodes to %+v, want %+v", b, back, want)
		}
	}
	var p Policy
	if err := json.Unmarshal([]byte(`{"format":"ndjson","every":1}`), &p); err != nil || p.Normalized() != (Policy{}) {
		t.Errorf("explicit defaults decode to %+v (normalized %+v), %v", p, p.Normalized(), err)
	}
	for _, bad := range []string{`{"format":"xml"}`, `{"format":1}`} {
		if err := json.Unmarshal([]byte(bad), &p); err == nil {
			t.Errorf("%s decoded", bad)
		}
	}
	if err := (Policy{EveryK: -1}).Validate(); err == nil {
		t.Error("negative sampling interval validated")
	}
}

// TestAddFlags: the five capture flags fill one policy, the sampling
// default is the caller's, and an unknown format fails the parse.
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
}
