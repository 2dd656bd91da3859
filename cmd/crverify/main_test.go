package main

import "testing"

func TestRunAllChecksPass(t *testing.T) {
	if code := run([]string{"-seed", "7", "-trials", "10"}); code != 0 {
		t.Fatalf("crverify exited %d, want 0", code)
	}
}

func TestRunOtherSeedAlsoPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	if code := run([]string{"-seed", "99", "-trials", "10"}); code != 0 {
		t.Fatalf("crverify with seed 99 exited %d, want 0", code)
	}
}

func TestRunBadFlag(t *testing.T) {
	if code := run([]string{"-nope"}); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}

func TestRunExitCodes(t *testing.T) {
	// crverify reserves 2 for misuse; -h/-help asks for usage and must
	// exit 0 (it used to return 2 via the parse-error path).
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"help short", []string{"-h"}, 0},
		{"help long", []string{"-help"}, 0},
		{"bad flag", []string{"-nope"}, 2},
	}
	for _, tc := range cases {
		if got := run(tc.args); got != tc.want {
			t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.want)
		}
	}
}
