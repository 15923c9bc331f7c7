// Package worker is the remote measurement daemon's engine: an HTTP
// handler that accepts measurement shards from dispatch.Remote clients
// (POST /v1/measure), reconstructs the deterministic simulator-backed
// evaluator for the requested job, runs the shard on an in-process dispatch
// pool, and returns values tagged with the items' sequence numbers.
//
// A worker holds no tuning state. The job identity in every request
// (benchmark, objective, seed) fully determines the evaluator, so any
// worker — or any mix of workers across retries and reassignment —
// produces identical values for identical items, and the worker builds it
// per request (microseconds against a shard's milliseconds) rather than
// retain anything keyed by what a client sent.
package worker

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"

	"ceal/internal/dispatch"
	"ceal/internal/live"
)

// Server is the worker daemon's HTTP handler — cmd/ceal-worker's core.
//
//	POST /v1/measure  measure a shard of items for one job
//	GET  /healthz     liveness probe
//	GET  /metrics     Prometheus-style counters
type Server struct {
	mux     *http.ServeMux
	workers int

	requests, items, errors atomic.Uint64
}

// NewServer returns a worker serving measurement shards with the given
// per-request parallel width (minimum 1).
func NewServer(workers int) *Server {
	if workers < 1 {
		workers = 1
	}
	s := &Server{mux: http.NewServeMux(), workers: workers}
	s.mux.HandleFunc("POST "+dispatch.MeasurePath, s.measure)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// maxRequestBytes bounds a POST /v1/measure body. An item is ~70 bytes on
// the wire, so this admits a shard of 200k — twice the largest pool any
// workload samples, all in one shard.
const maxRequestBytes = 16 << 20

func (s *Server) measure(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req dispatch.MeasureRequest
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.fail(w, status, fmt.Errorf("bad measure request: %w", err))
		return
	}
	ev, err := live.NewEvaluator(req.Job.Benchmark, req.Job.Objective, req.Job.Seed)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	local := dispatch.NewLocal(ev, &dispatch.Runner{Workers: s.workers})
	ms, err := local.Dispatch(r.Context(), req.Items)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, live.ErrBadItem) {
			status = http.StatusBadRequest
		}
		s.fail(w, status, err)
		return
	}
	s.items.Add(uint64(len(ms)))
	writeJSON(w, http.StatusOK, dispatch.MeasureResponse{Results: ms})
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.errors.Add(1)
	writeJSON(w, status, dispatch.MeasureResponse{Error: err.Error()})
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "workers": s.workers})
}

// metrics renders the counters in Prometheus text exposition format.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	vals := map[string]float64{
		"ceal_worker_requests_total": float64(s.requests.Load()),
		"ceal_worker_items_total":    float64(s.items.Load()),
		"ceal_worker_errors_total":   float64(s.errors.Load()),
		"ceal_worker_width":          float64(s.workers),
	}
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, name := range names {
		fmt.Fprintf(w, "%s %g\n", name, vals[name])
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
