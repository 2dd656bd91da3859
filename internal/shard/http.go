package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fadingcr/internal/obs"
	"fadingcr/internal/trace"
)

// Endpoint is the remote executor: it runs shards on a crserve daemon via
// the service's job workflow — POST /v1/jobs with a shard-carrying
// experiment spec, follow GET /v1/jobs/{id}/stream until the job turns
// terminal, then GET /v1/jobs/{id}/result for the wire bytes. The daemon's
// result cache composes for free: a re-dispatched or resumed shard that
// the daemon already computed is served from cache, bytes unchanged.
type Endpoint struct {
	// URL is the daemon's base URL, e.g. "http://127.0.0.1:8080".
	URL string
	// Client, when non-nil, overrides http.DefaultClient. Use a client
	// without a global timeout: streams last as long as shards run, and
	// the coordinator bounds attempts via context.
	Client *http.Client
}

// Bounds on what the coordinator reads from a daemon, so that one broken or
// hostile daemon streaming an endless body cannot exhaust its memory.
const (
	// maxSubmitResponseBytes bounds the job status a submit returns, a few
	// dozen bytes of JSON.
	maxSubmitResponseBytes = 1 << 20
	// maxResultBytes bounds a shard's result: its wire stream and, on a
	// traced run, its trace bundle, whose payloads may reach 256 MiB each.
	// The cap stops an endless body; it is not a size any real shard
	// approaches.
	maxResultBytes = 1 << 30
)

// Name implements Executor.
func (e *Endpoint) Name() string { return e.URL }

// client returns the configured or default HTTP client.
func (e *Endpoint) client() *http.Client {
	if e.Client != nil {
		return e.Client
	}
	return http.DefaultClient
}

// shardJobSpec is the serve.Spec JSON a shard job submits. The field set
// must stay within serve's schema (the daemon decodes submissions with
// DisallowUnknownFields); the cross-package test in internal/serve pins
// the compatibility.
type shardJobSpec struct {
	Experiment string      `json:"experiment"`
	Seed       uint64      `json:"seed"`
	Trials     int         `json:"trials,omitempty"`
	Quick      bool        `json:"quick,omitempty"`
	Shard      shardJobRef `json:"shard"`
}

type shardJobRef struct {
	Index int `json:"index"`
	Count int `json:"count"`
	// Trace is Request.Trace; absent for untraced runs so traced and
	// untraced submissions of one spec stay distinct cache keys on the
	// daemon (the bundle rides inside the cached result bytes).
	Trace *trace.Policy `json:"trace,omitempty"`
}

// jobStatus is the slice of serve's job Status the client reads.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// RunShard implements Executor.
func (e *Endpoint) RunShard(ctx context.Context, req Request, index int) ([]byte, error) {
	ids := req.Spec.IDs
	if ids == "" {
		ids = "all"
	}
	body, err := json.Marshal(shardJobSpec{
		Experiment: ids,
		Seed:       req.Spec.Seed,
		Trials:     req.Spec.Trials,
		Quick:      req.Spec.Quick,
		Shard:      shardJobRef{Index: index, Count: req.Shards, Trace: req.Trace},
	})
	if err != nil {
		return nil, err
	}
	st, err := e.submit(ctx, body)
	if err != nil {
		return nil, err
	}
	if err := e.follow(ctx, st.ID); err != nil {
		return nil, err
	}
	return e.result(ctx, st.ID, maxResultBytes)
}

// submit POSTs the job, absorbing the daemon's 429 backpressure (bounded
// waits honoring Retry-After) so a saturated queue reads as "try again in
// a second", not a shard failure.
func (e *Endpoint) submit(ctx context.Context, body []byte) (*jobStatus, error) {
	const submitAttempts = 5
	var lastErr error
	for attempt := 0; attempt < submitAttempts; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.URL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := e.client().Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			wait := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, perr := strconv.Atoi(s); perr == nil && secs > 0 {
					wait = time.Duration(secs) * time.Second
				}
			}
			drainBody(resp)
			lastErr = fmt.Errorf("%s: queue full", e.URL)
			if err := sleepCtx(ctx, wait); err != nil {
				return nil, err
			}
			continue
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			defer resp.Body.Close()
			return nil, fmt.Errorf("%s: submit: %s", e.URL, httpErrorString(resp))
		}
		raw, err := obs.ReadCapped(resp.Body, maxSubmitResponseBytes)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: submit response: %w", e.URL, err)
		}
		var st jobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			return nil, fmt.Errorf("%s: decode submit response: %w", e.URL, err)
		}
		if st.ID == "" {
			return nil, fmt.Errorf("%s: submit response carries no job id", e.URL)
		}
		return &st, nil
	}
	return nil, lastErr
}

// follow reads the job's NDJSON progress stream to its end. The stream
// protocol guarantees a terminal event before EOF (serve's subscriber
// channels are latest-wins, but the terminal notification is the job's
// last and is never displaced), so EOF means the job is terminal.
func (e *Endpoint) follow(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.URL+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := e.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: stream: %s", e.URL, httpErrorString(resp))
	}
	// Progress lines are advisory here; the result endpoint is the source
	// of truth once the stream ends.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// result fetches the terminal job's result body, failing once it exceeds
// limit bytes.
func (e *Endpoint) result(ctx context.Context, id string, limit int64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.URL+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := e.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: result: %s", e.URL, httpErrorString(resp))
	}
	raw, err := obs.ReadCapped(resp.Body, limit)
	if err != nil {
		return nil, fmt.Errorf("%s: result: %w", e.URL, err)
	}
	return raw, nil
}

// httpErrorString renders a non-2xx response compactly, preferring the
// service's {"error": ...} body.
func httpErrorString(resp *http.Response) string {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(bytes.TrimSpace(raw), &e) == nil && e.Error != "" {
		return fmt.Sprintf("%s: %s", resp.Status, e.Error)
	}
	if s := strings.TrimSpace(string(raw)); s != "" {
		return fmt.Sprintf("%s: %s", resp.Status, s)
	}
	return resp.Status
}

// drainBody discards and closes a response body so the connection can be
// reused.
func drainBody(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
	resp.Body.Close()
}
