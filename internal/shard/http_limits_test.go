package shard

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// streamEndless writes prefix, then zeros until the client goes away: a
// broken or hostile daemon's body that never ends.
func streamEndless(w http.ResponseWriter, r *http.Request, prefix string) {
	if _, err := io.WriteString(w, prefix); err != nil {
		return
	}
	chunk := make([]byte, 32<<10)
	for r.Context().Err() == nil {
		if _, err := w.Write(chunk); err != nil {
			return
		}
	}
}

// hostileDaemon answers every request with an endless body: the submit
// response and the result alike.
func hostileDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
		}
		streamEndless(w, r, `{"id":"`)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestEndpointBoundsSubmitResponse: an endless submit response fails the
// shard after maxSubmitResponseBytes, with an error naming the endpoint.
func TestEndpointBoundsSubmitResponse(t *testing.T) {
	srv := hostileDaemon(t)
	ep := &Endpoint{URL: srv.URL}
	_, err := ep.RunShard(context.Background(), quickRequest(2), 0)
	if err == nil || !strings.Contains(err.Error(), srv.URL) || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("endless submit response: error %v, want one naming %s and the exceeded cap", err, srv.URL)
	}
}

// TestEndpointBoundsResult: an endless result body fails the read once it
// passes the cap, with an error naming the endpoint. The cap is lowered from
// maxResultBytes so the test holds 64 KiB, not 1 GiB; RunShard passes
// maxResultBytes through this same read.
func TestEndpointBoundsResult(t *testing.T) {
	srv := hostileDaemon(t)
	ep := &Endpoint{URL: srv.URL}
	_, err := ep.result(context.Background(), "j1", 1<<16)
	if err == nil || !strings.Contains(err.Error(), srv.URL) || !strings.Contains(err.Error(), "exceeds 65536 bytes") {
		t.Fatalf("endless result: error %v, want one naming %s and the 65536-byte cap", err, srv.URL)
	}
}

// TestReadCapped: readCapped, the read behind both bounds, reads a body of
// exactly the cap whole; one byte more is an error.
func TestReadCapped(t *testing.T) {
	if raw, err := readCapped(strings.NewReader("abcd"), 4); err != nil || string(raw) != "abcd" {
		t.Errorf("body at the cap: %q, %v", raw, err)
	}
	if _, err := readCapped(strings.NewReader("abcde"), 4); err == nil {
		t.Error("body over the cap accepted")
	}
}
