package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// FleetSchemaVersion identifies the merged fleet-metrics NDJSON layout: a
// {"event":"fleet","schema":1,...} header followed by standard metric lines
// (see EmitSnapshots).
const FleetSchemaVersion = 1

// ParseMetricsNDJSON reads an NDJSON metrics export — the /metrics response
// body or the -metrics report — back into snapshots, preserving line order.
// Non-metric events (the "run" report header, a "fleet" header) are skipped;
// malformed lines are errors so truncated scrapes never merge silently.
func ParseMetricsNDJSON(r io.Reader) ([]MetricSnapshot, error) {
	var out []MetricSnapshot
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev struct {
			Event   string   `json:"event"`
			Name    string   `json:"name"`
			Value   int64    `json:"value"`
			Count   int64    `json:"count"`
			Sum     float64  `json:"sum"`
			P50     float64  `json:"p50"`
			P95     float64  `json:"p95"`
			P99     float64  `json:"p99"`
			Buckets []Bucket `json:"buckets"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("obs: metrics line %d: %w", lineNo, err)
		}
		switch ev.Event {
		case "counter", "gauge":
			out = append(out, MetricSnapshot{Name: ev.Name, Kind: ev.Event, Value: ev.Value})
		case "histogram":
			out = append(out, MetricSnapshot{
				Name: ev.Name, Kind: ev.Event,
				Count: ev.Count, Sum: ev.Sum,
				P50: ev.P50, P95: ev.P95, P99: ev.P99,
				Buckets: ev.Buckets,
			})
		default:
			// Header or foreign event line: observability exports are
			// allowed to interleave non-metric records.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading metrics: %w", err)
	}
	return out, nil
}

// MergeSnapshots folds per-process metric snapshots into one fleet-wide
// snapshot under deterministic rules:
//
//   - the output holds the union of metric names in ascending order;
//   - counters sum across sources;
//   - gauges keep the last source's value (sources are merged in argument
//     order, so callers fix the precedence — crshard passes endpoints in
//     flag order with the coordinator's own registry last);
//   - histograms add counts and sums bucket-by-bucket (bucket layouts must
//     match — every process runs the same binary, so a layout mismatch means
//     the sources are incomparable and is an error), and the p50/p95/p99
//     estimates are recomputed from the merged buckets.
//
// A name registered with different kinds in different sources is an error.
func MergeSnapshots(sources ...[]MetricSnapshot) ([]MetricSnapshot, error) {
	merged := map[string]*MetricSnapshot{}
	var names []string
	for _, src := range sources {
		for i := range src {
			m := src[i]
			prev, ok := merged[m.Name]
			if !ok {
				cp := m
				cp.Buckets = append([]Bucket(nil), m.Buckets...)
				merged[m.Name] = &cp
				names = append(names, m.Name)
				continue
			}
			if prev.Kind != m.Kind {
				return nil, fmt.Errorf("obs: metric %q is a %s in one source and a %s in another", m.Name, prev.Kind, m.Kind)
			}
			switch m.Kind {
			case "counter":
				prev.Value += m.Value
			case "gauge":
				prev.Value = m.Value
			case "histogram":
				if len(prev.Buckets) != len(m.Buckets) {
					return nil, fmt.Errorf("obs: histogram %q bucket layouts differ across sources (%d vs %d buckets)", m.Name, len(prev.Buckets), len(m.Buckets))
				}
				for b := range m.Buckets {
					if prev.Buckets[b].Lt != m.Buckets[b].Lt {
						return nil, fmt.Errorf("obs: histogram %q bucket %d bound differs across sources (%s vs %s)", m.Name, b, prev.Buckets[b].Lt, m.Buckets[b].Lt)
					}
					prev.Buckets[b].Count += m.Buckets[b].Count
				}
				prev.Count += m.Count
				prev.Sum += m.Sum
			default:
				return nil, fmt.Errorf("obs: metric %q has unknown kind %q", m.Name, m.Kind)
			}
		}
	}
	sort.Strings(names)
	out := make([]MetricSnapshot, 0, len(names))
	for _, name := range names {
		m := *merged[name]
		if m.Kind == "histogram" {
			fillQuantiles(&m)
		}
		out = append(out, m)
	}
	return out, nil
}

// maxMetricsBodyBytes bounds a scraped /metrics body, so that one broken or
// hostile daemon streaming endless metric lines cannot exhaust the
// scraper's memory. A real export is tens of kilobytes.
const maxMetricsBodyBytes = 16 << 20

// ReadCapped reads r to its end, failing as soon as it has read more than
// limit bytes: the bound on every body read from a daemon.
func ReadCapped(r io.Reader, limit int64) ([]byte, error) {
	raw, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err == nil && int64(len(raw)) > limit {
		err = fmt.Errorf("body exceeds %d bytes", limit)
	}
	return raw, err
}

// ScrapeMetrics fetches and parses one process' /metrics endpoint. baseURL
// is the daemon's root URL, as given to crshard -endpoints. A body over
// maxMetricsBodyBytes is an error.
func ScrapeMetrics(ctx context.Context, client *http.Client, baseURL string) ([]MetricSnapshot, error) {
	if client == nil {
		client = http.DefaultClient
	}
	url := strings.TrimRight(baseURL, "/") + "/metrics"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("obs: scrape %s: %w", url, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("obs: scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("obs: scrape %s: unexpected status %s", url, resp.Status)
	}
	body, err := ReadCapped(resp.Body, maxMetricsBodyBytes)
	if err != nil {
		return nil, fmt.Errorf("obs: scrape %s: %w", url, err)
	}
	snaps, err := ParseMetricsNDJSON(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("obs: scrape %s: %w", url, err)
	}
	return snaps, nil
}
