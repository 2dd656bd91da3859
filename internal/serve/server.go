// Package serve is the simulation-farm service: an HTTP/JSON job daemon
// over the repository's Monte Carlo engine. It is built from four layers —
// a domain layer (Spec: job specification, normalization, canonical
// hashing; Job: lifecycle state machine), a queue/executor layer
// (Executor: bounded queue, worker pool, backpressure, cancellation, panic
// isolation), a results layer (Cache: LRU of result bodies keyed by the
// canonical spec hash; NDJSON progress streaming), and this transport
// layer (stdlib net/http mux, JSON in/out).
//
// The service inherits the repository's determinism contract (DESIGN.md
// §8) wholesale: a job's result body is a pure function of its normalized
// spec, byte for byte, at any worker count, any per-job parallelism, and
// any cache state. That is what makes the result cache sound and what the
// serve tests and the CI smoke job assert with literal byte comparisons.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"fadingcr/internal/obs"
)

// ServerOptions configures the HTTP layer.
type ServerOptions struct {
	// Registry backs GET /metrics; nil selects obs.Default.
	Registry *obs.Registry
	// Log, when non-nil, receives one NDJSON "http" event per request.
	Log *obs.Sink
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
}

// Server is the transport layer: it translates HTTP to Executor calls.
type Server struct {
	exec *Executor
	opts ServerOptions
}

// NewServer wraps an executor.
func NewServer(exec *Executor, opts ServerOptions) *Server {
	if opts.Registry == nil {
		opts.Registry = obs.Default
	}
	return &Server{exec: exec, opts: opts}
}

// Handler returns the service mux:
//
//	POST   /v1/jobs           submit a job (Spec JSON body)
//	GET    /v1/jobs/{id}      job status
//	GET    /v1/jobs/{id}/result  result body (done jobs)
//	GET    /v1/jobs/{id}/stream  NDJSON progress stream until terminal
//	DELETE /v1/jobs/{id}      cancel a queued or running job
//	GET    /healthz           liveness
//	GET    /readyz            readiness (503 while draining)
//	GET    /metrics           obs registry snapshot (NDJSON)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.exec.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.Handle("GET /metrics", s.opts.Registry.Handler())
	if s.opts.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.logged(mux)
}

// maxSpecBytes bounds a submission body; specs are small.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decode spec: %v", err))
		return
	}
	job, err := s.exec.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Backpressure: the queue is bounded by design; ask the client
		// to come back. One second is a deliberate flat hint — job
		// durations vary over orders of magnitude, so anything cleverer
		// would be false precision.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// One snapshot decides the status and is the body. Only Submit's cache
	// hit sets Cached; a queued job may finish before this read, and is
	// still answered 202.
	st := job.Snapshot()
	status := http.StatusAccepted
	if st.Cached {
		status = http.StatusOK // cache hit: born done
	}
	writeJSON(w, status, st)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.exec.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.exec.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	st := job.Snapshot()
	res, done := job.ResultIfDone()
	if !done {
		if st.State.Terminal() {
			httpError(w, http.StatusConflict, fmt.Sprintf("job %s: %s", st.State, st.Error))
		} else {
			httpError(w, http.StatusConflict, fmt.Sprintf("job still %s", st.State))
		}
		return
	}
	w.Header().Set("Content-Type", res.ContentType)
	w.Header().Set("X-Job-Cached", fmt.Sprintf("%t", st.Cached))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(res.Body)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok, _ := s.exec.Cancel(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// httpError writes a JSON error body with deterministic shape.
func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	_, _ = w.Write(append(body, '\n'))
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, err := json.Marshal(v)
	if err != nil {
		// Statuses and snapshots are plain data; Marshal cannot fail.
		return
	}
	_, _ = w.Write(append(body, '\n'))
}

// statusRecorder captures the response status for the request log while
// passing Flush through, so streaming endpoints still flush line by line
// when logging is enabled.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logged wraps the mux with structured request logging (one "http" NDJSON
// event per request) when a log sink is configured.
func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mHTTPRequests.Inc()
		if s.opts.Log == nil {
			next.ServeHTTP(w, r)
			return
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now() //crlint:allow nowallclock request latency logging is reporting-only
		next.ServeHTTP(rec, r)
		_ = s.opts.Log.Emit("http",
			obs.F("method", r.Method),
			obs.F("path", r.URL.Path),
			obs.F("status", rec.status),
			//crlint:allow nowallclock request latency logging is reporting-only
			obs.F("ms", time.Since(start).Milliseconds()),
		)
	})
}
