package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"ceal/internal/histdb"
)

// Server is the HTTP JSON API over a Manager — cmd/ceal-serve's handler.
//
//	POST   /v1/runs             submit a JobSpec (201 queued, 200 deduped)
//	GET    /v1/runs             list all runs
//	GET    /v1/runs/{id}        one run's record
//	DELETE /v1/runs/{id}        cancel a queued or running run
//	POST   /v1/runs/{id}/resume resume an interrupted run from its checkpoint
//	GET    /v1/runs/{id}/events stream the run's event trace (SSE or JSONL)
//	GET    /v1/history          query the history DB (?workflow=&component=&family=)
//	GET    /healthz             liveness probe
//	GET    /metrics             Prometheus-style counters
type Server struct {
	m   *Manager
	mux *http.ServeMux
}

// NewServer wraps a Manager in the HTTP API.
func NewServer(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/runs", s.submit)
	s.mux.HandleFunc("GET /v1/runs", s.list)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.get)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.cancel)
	s.mux.HandleFunc("POST /v1/runs/{id}/resume", s.resume)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.events)
	s.mux.HandleFunc("GET /v1/history", s.history)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// submitResponse is POST /v1/runs's body: the run record, flagged when it
// was served from the store or joined onto an in-flight identical run
// rather than freshly queued.
type submitResponse struct {
	*histdb.RunRecord
	Deduped bool `json:"deduped,omitempty"`
}

// maxSpecBytes bounds a POST /v1/runs body; a JobSpec is a few hundred
// bytes.
const maxSpecBytes = 1 << 20

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, fmt.Errorf("bad job spec: %w", err))
		return
	}
	rec, fresh, err := s.m.Submit(spec)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			httpError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			httpError(w, http.StatusServiceUnavailable, err)
		default:
			httpError(w, http.StatusBadRequest, err)
		}
		return
	}
	status := http.StatusCreated
	if !fresh {
		status = http.StatusOK
	}
	writeJSON(w, status, submitResponse{RunRecord: rec, Deduped: !fresh})
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	recs := s.m.List()
	// The list view elides traces and pool scores: GET /v1/runs/{id} and
	// the events endpoint carry the bulk.
	type item struct {
		ID          string          `json:"id"`
		Spec        JobSpec         `json:"spec"`
		State       histdb.RunState `json:"state"`
		Error       string          `json:"error,omitempty"`
		BestValue   *float64        `json:"best_value,omitempty"`
		EventsCount int             `json:"events_count"`
	}
	items := make([]item, 0, len(recs))
	for _, rec := range recs {
		it := item{ID: rec.ID, Spec: rec.Spec, State: rec.State, Error: rec.Error, EventsCount: len(rec.Trace)}
		if rec.Result != nil && len(rec.Result.Samples) > 0 {
			best := rec.Result.Samples[0].Value
			for _, smp := range rec.Result.Samples[1:] {
				if smp.Value < best {
					best = smp.Value
				}
			}
			it.BestValue = &best
		}
		items = append(items, it)
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": items})
}

func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	rec, err := s.m.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		httpError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrFinished):
		httpError(w, http.StatusConflict, err)
	default:
		writeJSON(w, http.StatusOK, rec)
	}
}

// resume re-admits an interrupted run of any kind: its persisted
// measurement checkpoint replays instead of re-measuring (202 accepted).
func (s *Server) resume(w http.ResponseWriter, r *http.Request) {
	rec, err := s.m.Resume(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		httpError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrNotResumable), errors.Is(err, ErrInFlight):
		httpError(w, http.StatusConflict, err)
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrQueueFull):
		httpError(w, http.StatusTooManyRequests, err)
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusAccepted, rec)
	}
}

// history queries the history database. Filters combine conjunctively:
// ?workflow=LV (benchmark), ?component=lammps (runs whose benchmark
// contains the component), ?family=LV/ceal/comp/p2000 (exact spec-family
// key). The response elides traces and pool scores; GET /v1/runs/{id}
// carries the bulk.
func (s *Server) history(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	recs := s.m.History(histdb.Query{
		Workflow:  q.Get("workflow"),
		Component: q.Get("component"),
		Family:    q.Get("family"),
	})
	type item struct {
		ID               string    `json:"id"`
		Spec             JobSpec   `json:"spec"`
		Family           string    `json:"family"`
		Components       []string  `json:"components,omitempty"`
		Samples          int       `json:"samples"`
		ComponentSamples int       `json:"component_samples"`
		BestValue        *float64  `json:"best_value,omitempty"`
		FinishedAt       time.Time `json:"finished_at"`
	}
	items := make([]item, 0, len(recs))
	for _, rec := range recs {
		it := item{
			ID:         rec.ID,
			Spec:       rec.Spec,
			Family:     rec.Spec.FamilyKey(),
			Components: rec.Components,
			FinishedAt: rec.FinishedAt,
		}
		if rec.Result != nil {
			it.Samples = len(rec.Result.Samples)
			for _, cs := range rec.Result.ComponentSamples {
				it.ComponentSamples += len(cs)
			}
			if len(rec.Result.Samples) > 0 {
				best := rec.Result.Samples[0].Value
				for _, smp := range rec.Result.Samples[1:] {
					if smp.Value < best {
						best = smp.Value
					}
				}
				it.BestValue = &best
			}
		}
		items = append(items, it)
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": items})
}

// events streams a run's trace. Late subscribers replay the buffered
// prefix, then follow live until the run finishes (?follow=false stops
// after the replay). With Accept: text/event-stream the lines are framed
// as SSE; otherwise they stream as application/x-ndjson — byte-identical
// to ceal-tune's -trace output.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	h, ok := s.m.hubFor(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	follow := r.URL.Query().Get("follow") != "false"
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	_ = h.Stream(r.Context(), follow, func(line json.RawMessage) error {
		var err error
		if sse {
			_, err = fmt.Fprintf(w, "data: %s\n\n", line)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", line)
		}
		if err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	mt := s.m.Metrics()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"queue_depth": mt.QueueDepth,
		"running":     mt.Running,
		"workers":     mt.Workers,
	})
}

// metrics renders the counters in Prometheus text exposition format.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	mt := s.m.Metrics()
	vals := map[string]float64{
		"ceal_runs_submitted_total":         float64(mt.Submitted),
		"ceal_runs_started_total":           float64(mt.Started),
		"ceal_runs_finished_total":          float64(mt.Finished),
		"ceal_runs_failed_total":            float64(mt.Failed),
		"ceal_runs_cancelled_total":         float64(mt.Cancelled),
		"ceal_runs_deduped_total":           float64(mt.Deduped),
		"ceal_runs_resumed_total":           float64(mt.Resumed),
		"ceal_runs_warm_started_total":      float64(mt.WarmStarted),
		"ceal_queue_depth":                  float64(mt.QueueDepth),
		"ceal_runs_running":                 float64(mt.Running),
		"ceal_workers":                      float64(mt.Workers),
		"ceal_collector_cache_hits_total":   float64(mt.CacheHits),
		"ceal_collector_cache_misses_total": float64(mt.CacheMisses),
		"ceal_collector_coalesced_total":    float64(mt.Coalesced),
		"ceal_collector_retries_total":      float64(mt.Retries),
		"ceal_dispatch_retries_total":       float64(mt.DispatchRetries),
		"ceal_collector_in_flight":          float64(mt.CacheInFlight),
		"ceal_collector_in_flight_peak":     float64(mt.CacheInFlightPeak),
		"ceal_store_save_errors_total":      float64(mt.StoreSaveErrors),
		"ceal_store_refresh_errors_total":   float64(mt.StoreRefreshErrors),
		"ceal_trace_marshal_errors_total":   float64(mt.TraceMarshalErrors),
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

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
