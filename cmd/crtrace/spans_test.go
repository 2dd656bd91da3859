package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fadingcr/internal/obs"
)

// writeSpanLog emits a span log shaped exactly like the coordinator's: a run
// span over two shards, shard 0 clean, shard 1 retried once and finally
// finished by a straggler re-dispatch on a second executor.
func writeSpanLog(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.ndjson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	log := obs.NewSpanLog(f)
	run := log.Begin("run", obs.F("shards", 2), obs.F("executors", 2), obs.F("spec", "0011aabbccdd"))
	run.Event("resume", obs.F("resumed", 1))

	d0 := run.Child("dispatch", obs.F("shard", 0), obs.F("executor", "local-0"), obs.F("straggler", false))
	e0 := d0.Child("execute", obs.F("shard", 0), obs.F("attempt", 1))
	e0.End(obs.F("ok", true))
	d0.End(obs.F("ok", true))

	d1 := run.Child("dispatch", obs.F("shard", 1), obs.F("executor", "local-0"), obs.F("straggler", false))
	e1 := d1.Child("execute", obs.F("shard", 1), obs.F("attempt", 1))
	e1.End(obs.F("ok", false))
	d1.Event("retry", obs.F("attempt", 2), obs.F("error", "transient"))
	d1.Event("backoff", obs.F("ms", int64(1)))
	e2 := d1.Child("execute", obs.F("shard", 1), obs.F("attempt", 2))
	e2.End(obs.F("ok", false))
	d1.End(obs.F("ok", false))

	d2 := run.Child("dispatch", obs.F("shard", 1), obs.F("executor", "http://b:1"), obs.F("straggler", true))
	e3 := d2.Child("execute", obs.F("shard", 1), obs.F("attempt", 1))
	e3.End(obs.F("ok", true))
	d2.End(obs.F("ok", true))

	m := run.Child("merge", obs.F("shards", 2))
	m.End(obs.F("ok", true))
	run.End(obs.F("failed", 0))
	if err := log.Err(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSpansSubcommandSummarizesCoordinatorLog(t *testing.T) {
	path := writeSpanLog(t)
	var out, errw bytes.Buffer
	if code := run([]string{"spans", path}, &out, &errw); code != 0 {
		t.Fatalf("spans exited %d: %s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{
		"spec=0011aabbccdd shards=2 executors=2",
		"resume    1 shard(s) loaded from checkpoints",
		"outcome   all shards merged",
		"merge",
		"shard 1 re-dispatched to http://b:1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("spans output missing %q:\n%s", want, got)
		}
	}
	// Per-shard table: shard 0 one clean attempt; shard 1 two dispatches,
	// three attempts, one retry, one straggler, both executors attributed.
	lines := strings.Split(got, "\n")
	var s0, s1 string
	for _, l := range lines {
		if strings.HasPrefix(l, "0 ") {
			s0 = l
		}
		if strings.HasPrefix(l, "1 ") {
			s1 = l
		}
	}
	if s0 == "" || s1 == "" {
		t.Fatalf("per-shard rows missing:\n%s", got)
	}
	f0 := strings.Fields(s0)
	if f0[1] != "1" || f0[2] != "1" || f0[3] != "0" || f0[4] != "0" {
		t.Errorf("shard 0 row wrong: %q", s0)
	}
	f1 := strings.Fields(s1)
	if f1[1] != "2" || f1[2] != "3" || f1[3] != "1" || f1[4] != "1" {
		t.Errorf("shard 1 row wrong: %q", s1)
	}
	if !strings.Contains(s1, "http://b:1") || !strings.Contains(s1, "local-0") {
		t.Errorf("shard 1 executor attribution wrong: %q", s1)
	}
}

func TestSpansRejectsNonSpanLogs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-spans.ndjson")
	if err := os.WriteFile(path, []byte("{\"event\":\"run\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := run([]string{"spans", path}, &out, &errw); code == 0 {
		t.Error("non-span log accepted")
	}
	if !strings.Contains(errw.String(), "not a span log") {
		t.Errorf("unhelpful error: %s", errw.String())
	}
}

// TestSpansReadsHostileErrorText: a retry event's error text carries a
// daemon's or proxy's raw response body, invalid UTF-8 and control bytes
// included, and the span log holding it still reads.
func TestSpansReadsHostileErrorText(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.ndjson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	log := obs.NewSpanLog(f)
	run0 := log.Begin("run", obs.F("shards", 1), obs.F("executors", 1), obs.F("spec", "0011aabbccdd"))
	d := run0.Child("dispatch", obs.F("shard", 0), obs.F("executor", "http://a:1"), obs.F("straggler", false))
	d.Event("retry", obs.F("attempt", 2), obs.F("error", "502 Bad Gateway: caf\xe9 upstream\x01\a\v\x7f"))
	d.End(obs.F("ok", true))
	run0.End(obs.F("failed", 0))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := run([]string{"spans", path}, &out, &errw); code != 0 {
		t.Fatalf("spans exited %d: %s", code, errw.String())
	}
}
