package obs

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestParseMetricsNDJSONRoundTrips pins that the /metrics export parses back
// into the exact snapshot it was taken from — the contract fleet scraping
// depends on.
func TestParseMetricsNDJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs.done").Add(12)
	r.Gauge("queue.depth").Set(4)
	h := r.Histogram("job.seconds", 0.5, 4)
	h.Observe(0.2)
	h.Observe(1.7)
	h.Observe(9)

	var b strings.Builder
	if err := r.EmitTo(NewSink(&b)); err != nil {
		t.Fatal(err)
	}
	got, err := ParseMetricsNDJSON(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if want := r.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestParseMetricsNDJSONSkipsHeaders pins tolerance for the "run" report
// header and the "fleet" header while rejecting malformed lines.
func TestParseMetricsNDJSONSkipsHeaders(t *testing.T) {
	in := `{"event":"run","cmd":"crsim"}
{"event":"fleet","schema":1,"sources":2}
{"event":"counter","name":"a","value":3}
`
	got, err := ParseMetricsNDJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "a" || got[0].Value != 3 {
		t.Errorf("got %+v", got)
	}
	if _, err := ParseMetricsNDJSON(strings.NewReader("{truncated")); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestMergeSnapshots(t *testing.T) {
	a := []MetricSnapshot{
		{Name: "shared.count", Kind: "counter", Value: 3},
		{Name: "only.a", Kind: "counter", Value: 1},
		{Name: "level", Kind: "gauge", Value: 10},
		{Name: "lat", Kind: "histogram", Count: 2, Sum: 2.5,
			Buckets: []Bucket{{Lt: "1", Count: 1}, {Lt: "2", Count: 1}, {Lt: "+Inf", Count: 0}}},
	}
	b := []MetricSnapshot{
		{Name: "shared.count", Kind: "counter", Value: 4},
		{Name: "zz.b", Kind: "gauge", Value: 2},
		{Name: "level", Kind: "gauge", Value: 20},
		{Name: "lat", Kind: "histogram", Count: 2, Sum: 5,
			Buckets: []Bucket{{Lt: "1", Count: 0}, {Lt: "2", Count: 1}, {Lt: "+Inf", Count: 1}}},
	}
	got, err := MergeSnapshots(a, b)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(got))
	for i, m := range got {
		names[i] = m.Name
	}
	if want := []string{"lat", "level", "only.a", "shared.count", "zz.b"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("merged name order = %v, want %v", names, want)
	}
	byName := map[string]MetricSnapshot{}
	for _, m := range got {
		byName[m.Name] = m
	}
	if byName["shared.count"].Value != 7 {
		t.Errorf("counter sum = %d, want 7", byName["shared.count"].Value)
	}
	if byName["level"].Value != 20 {
		t.Errorf("gauge last = %d, want 20 (source order wins)", byName["level"].Value)
	}
	lat := byName["lat"]
	if lat.Count != 4 || lat.Sum != 7.5 {
		t.Errorf("histogram count/sum = %d/%v, want 4/7.5", lat.Count, lat.Sum)
	}
	wantBuckets := []Bucket{{Lt: "1", Count: 1}, {Lt: "2", Count: 2}, {Lt: "+Inf", Count: 1}}
	if !reflect.DeepEqual(lat.Buckets, wantBuckets) {
		t.Errorf("merged buckets = %v, want %v", lat.Buckets, wantBuckets)
	}
	// Quantiles recomputed from merged buckets: counts [1,2,1], count 4.
	// p50: rank 2 → bucket [1,2) fraction (2-1)/2 → 1.5.
	if math.Abs(lat.P50-1.5) > 1e-9 {
		t.Errorf("merged p50 = %v, want 1.5", lat.P50)
	}

	// Merging a's sources in the other order flips gauge precedence only.
	rev, err := MergeSnapshots(b, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rev {
		if m.Name == "level" && m.Value != 10 {
			t.Errorf("reversed gauge last = %d, want 10", m.Value)
		}
	}
}

func TestMergeSnapshotsRejectsConflicts(t *testing.T) {
	if _, err := MergeSnapshots(
		[]MetricSnapshot{{Name: "x", Kind: "counter", Value: 1}},
		[]MetricSnapshot{{Name: "x", Kind: "gauge", Value: 1}},
	); err == nil {
		t.Error("kind conflict accepted")
	}
	if _, err := MergeSnapshots(
		[]MetricSnapshot{{Name: "h", Kind: "histogram", Buckets: []Bucket{{Lt: "1"}, {Lt: "+Inf"}}}},
		[]MetricSnapshot{{Name: "h", Kind: "histogram", Buckets: []Bucket{{Lt: "2"}, {Lt: "+Inf"}}}},
	); err == nil {
		t.Error("bucket bound mismatch accepted")
	}
	if _, err := MergeSnapshots(
		[]MetricSnapshot{{Name: "h", Kind: "histogram", Buckets: []Bucket{{Lt: "1"}, {Lt: "+Inf"}}}},
		[]MetricSnapshot{{Name: "h", Kind: "histogram", Buckets: []Bucket{{Lt: "+Inf"}}}},
	); err == nil {
		t.Error("bucket layout length mismatch accepted")
	}
}

// TestScrapeMetrics drives the scraper against a live /metrics handler.
func TestScrapeMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("scraped.count").Add(9)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	got, err := ScrapeMetrics(t.Context(), nil, ts.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "scraped.count" || got[0].Value != 9 {
		t.Errorf("scraped %+v", got)
	}
	if _, err := ScrapeMetrics(t.Context(), nil, "http://127.0.0.1:1/"); err == nil {
		t.Error("unreachable endpoint scraped without error")
	}
}

// TestScrapeMetricsBoundsBody: a daemon that streams metric lines without
// end fails the scrape once the body passes maxMetricsBodyBytes, instead of
// growing the scraper's memory with it. The server stops at twice the cap,
// so a scraper without the bound returns snapshots rather than hanging.
func TestScrapeMetricsBoundsBody(t *testing.T) {
	line := []byte(`{"event":"counter","name":"` + strings.Repeat("x", 1000) + `","value":1}` + "\n")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for sent := 0; sent <= 2*maxMetricsBodyBytes && r.Context().Err() == nil; sent += len(line) {
			if _, err := w.Write(line); err != nil {
				return
			}
		}
	}))
	defer ts.Close()
	snaps, err := ScrapeMetrics(t.Context(), nil, ts.URL)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("endless metrics body: %d snapshots, error %v; want the exceeded cap", len(snaps), err)
	}
}

// metricsAllocBudget is the most ParseMetricsNDJSON may allocate for an
// input of n bytes: a fixed allowance (the scanner's 64 KiB buffer,
// decoder state) plus a constant factor of the input.
func metricsAllocBudget(n int) uint64 { return 1<<20 + 64*uint64(n) }

// FuzzParseMetricsNDJSON: the scrape parser must accept or reject any body
// without panicking and within metricsAllocBudget, and the snapshots it
// accepts must re-emit through EmitSnapshots and parse back equal. The
// corpus is seeded with a registry export, the report and fleet headers,
// and truncated lines.
func FuzzParseMetricsNDJSON(f *testing.F) {
	r := NewRegistry()
	r.Counter("jobs.done").Add(12)
	r.Gauge("queue.depth").Set(4)
	h := r.Histogram("job.seconds", 0.5, 4)
	h.Observe(0.2)
	h.Observe(9)
	var export bytes.Buffer
	if err := r.EmitTo(NewSink(&export)); err != nil {
		f.Fatal(err)
	}
	f.Add(export.Bytes())
	f.Add(export.Bytes()[:export.Len()/2])
	f.Add([]byte(`{"event":"run","cmd":"crsim"}` + "\n" + `{"event":"fleet","schema":1,"sources":2}` + "\n\n" + `{"event":"gauge","name":"a","value":-3}`))
	f.Add([]byte("{truncated"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snaps, err := ParseMetricsNDJSON(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > metricsAllocBudget(len(data)) {
			t.Fatalf("ParseMetricsNDJSON allocated %d bytes for a %d-byte input", alloc, len(data))
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := EmitSnapshots(NewSink(&again), snaps); err != nil {
			t.Fatalf("accepted snapshots do not emit: %v", err)
		}
		back, err := ParseMetricsNDJSON(&again)
		if err != nil {
			t.Fatalf("re-emitted snapshots do not parse: %v\n%s", err, again.Bytes())
		}
		if !reflect.DeepEqual(back, snaps) {
			t.Fatalf("snapshots changed through EmitSnapshots:\n got %+v\nwant %+v", back, snaps)
		}
	})
}
