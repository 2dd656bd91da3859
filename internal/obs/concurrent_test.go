package obs

import (
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
)

// TestSnapshotUnderConcurrentWriters hammers a registry from writer
// goroutines while snapshots are taken, pinning (under -race, which CI runs
// for this package) that Snapshot is safe against concurrent recording and
// that its iteration order stays sorted and stable throughout.
func TestSnapshotUnderConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	// Interleave registration with recording: half the metrics exist up
	// front, the rest are created get-or-create style mid-flight.
	names := []string{"w.aa", "w.bb", "w.cc", "w.dd", "w.ee", "w.ff"}
	for _, n := range names[:3] {
		r.Counter(n)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.Histogram("w.hist", 1, 8)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter(names[i%len(names)]).Inc()
				r.Gauge("w.level").Set(int64(i))
				h.Observe(float64(i % 300))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		snap := r.Snapshot()
		if !sort.SliceIsSorted(snap, func(a, b int) bool { return snap[a].Name < snap[b].Name }) {
			t.Fatalf("snapshot %d not sorted: %v", i, snapNames(snap))
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: every snapshot is now identical, including order.
	first := snapNames(r.Snapshot())
	for i := 0; i < 5; i++ {
		if got := snapNames(r.Snapshot()); !equalStrings(got, first) {
			t.Fatalf("stable snapshot order diverged: %v vs %v", got, first)
		}
	}
}

// TestHandlerUnderConcurrentWriters serves /metrics while writers are live:
// every response must be complete NDJSON in sorted name order, and once
// writers stop, responses must be byte-identical.
func TestHandlerUnderConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("h.count")
			hist := r.Histogram("h.seconds", 0.001, 16)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				hist.Observe(float64(i) * 0.0001)
			}
		}()
	}
	for i := 0; i < 25; i++ {
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		var names []string
		if body := rec.Body.String(); body != "" {
			for _, ln := range parseLines(t, body) {
				name, _ := ln["name"].(string)
				names = append(names, name)
			}
		}
		if !sort.StringsAreSorted(names) {
			t.Fatalf("response %d not sorted: %v", i, names)
		}
	}
	close(stop)
	wg.Wait()

	rec1 := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec1, httptest.NewRequest("GET", "/metrics", nil))
	rec2 := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec2, httptest.NewRequest("GET", "/metrics", nil))
	if rec1.Body.String() != rec2.Body.String() {
		t.Error("quiesced /metrics responses differ")
	}
}

func snapNames(snaps []MetricSnapshot) []string {
	out := make([]string, len(snaps))
	for i, m := range snaps {
		out[i] = m.Name
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
