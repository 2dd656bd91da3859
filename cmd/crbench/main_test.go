package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSelectedQuick(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-ids", "E5", "-quick", "-trials", "2", "-seed", "9"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"==== E5", "Claim:", "good"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunMarkdownFormat(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-ids", "E5", "-quick", "-trials", "2", "-format", "markdown"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "| --- |") {
		t.Errorf("markdown table separator missing:\n%s", out.String())
	}
}

func TestRunWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	var out strings.Builder
	if err := run([]string{"-ids", "E5", "-quick", "-trials", "2", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "==== E5") {
		t.Error("file output missing experiment header")
	}
	if out.Len() != 0 {
		t.Errorf("stdout not empty when -o is set: %q", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-ids", "E99"}, &out); err == nil {
		t.Error("unknown id accepted")
	}
	if err := run([]string{"-format", "pdf"}, &out); err == nil {
		t.Error("unknown format accepted")
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunMultipleIDsWithSpaces(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-ids", "E5, E4", "-quick", "-trials", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "==== E5") || !strings.Contains(out.String(), "==== E4") {
		t.Error("both experiments should have run")
	}
}

func TestRunList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "E1 ") || !strings.Contains(got, "E17") {
		t.Errorf("list output missing experiments:\n%s", got)
	}
}

func TestMainExitCodes(t *testing.T) {
	// The shared convention (internal/cli): 0 for -h/-help and success,
	// 2 for misuse (unknown flags or invalid flag values), 1 for runtime
	// failures.
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"help short", []string{"-h"}, 0},
		{"help long", []string{"-help"}, 0},
		{"success", []string{"-list"}, 0},
		{"bad flag", []string{"-definitely-not-a-flag"}, 2},
		{"bad id", []string{"-ids", "E999"}, 2},
		{"bad format", []string{"-format", "pdf"}, 2},
		{"negative trials", []string{"-ids", "E5", "-trials", "-3"}, 2},
		{"bad trace format", []string{"-ids", "E5", "-quick", "-trials", "2", "-trace-format", "xml"}, 2},
		{"bad trace format with dir", []string{"-ids", "E5", "-quick", "-trials", "2", "-trace-format", "xml", "-trace-dir", t.TempDir()}, 2},
	}
	for _, tc := range cases {
		if got := mainExitCode(tc.args); got != tc.want {
			t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.want)
		}
	}
}
