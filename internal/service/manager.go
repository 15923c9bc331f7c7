package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"ceal/internal/collector"
	"ceal/internal/histdb"
	"ceal/internal/live"
	"ceal/internal/tuner"
	"ceal/internal/tuner/events"
)

// Submission and lifecycle errors surfaced by the Manager (the HTTP layer
// maps them to status codes).
var (
	// ErrQueueFull rejects a submission when the admission queue is at
	// capacity (HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining rejects submissions during graceful shutdown (HTTP 503).
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrNotFound reports an unknown run ID (HTTP 404).
	ErrNotFound = errors.New("service: run not found")
	// ErrFinished rejects cancelling an already-finished run (HTTP 409).
	ErrFinished = errors.New("service: run already finished")
	// ErrInFlight rejects resuming a run that is still queued or running
	// (HTTP 409).
	ErrInFlight = errors.New("service: run still in flight")
	// ErrNotResumable rejects resuming a run that has nothing to replay: it
	// completed and its result is in the store (HTTP 409).
	ErrNotResumable = errors.New("service: run not resumable")
)

// Options configures a Manager.
type Options struct {
	// Workers is the number of tuning jobs run concurrently (default 2).
	Workers int
	// QueueLimit bounds the number of jobs admitted but not yet running
	// (default 16); submissions beyond it fail with ErrQueueFull.
	QueueLimit int
	// Store persists run records (default: a fresh MemStore). The Manager
	// owns it and closes it on Shutdown.
	Store histdb.Store
	// Build assembles the problem and algorithm for a normalized spec
	// (default BuildSpec; tests inject instrumented problems here).
	Build func(JobSpec) (*tuner.Problem, tuner.Algorithm, error)
	// ReplicaID, when set, namespaces run IDs as "run-<replica>-%06d" so
	// several Manager replicas can share one store (FileStore on a common
	// directory) without ID collisions. Submissions also refresh a shared
	// store before dedup, so an identical spec completed by another replica
	// is served from the store instead of re-running.
	ReplicaID string
}

// Metrics is a snapshot of the manager's counters — the /metrics payload.
type Metrics struct {
	Submitted uint64 `json:"runs_submitted"`
	Started   uint64 `json:"runs_started"`
	Finished  uint64 `json:"runs_finished"`
	Failed    uint64 `json:"runs_failed"`
	Cancelled uint64 `json:"runs_cancelled"`
	// Deduped counts submissions served from the store or joined onto an
	// identical in-flight run instead of re-running.
	Deduped uint64 `json:"runs_deduped"`
	// Resumed counts interrupted runs re-admitted through Resume.
	Resumed uint64 `json:"runs_resumed"`
	// WarmStarted counts admissions that attached history-derived warm data.
	WarmStarted uint64 `json:"runs_warm_started"`
	QueueDepth  int    `json:"queue_depth"`
	Running     int    `json:"running"`
	Workers     int    `json:"workers"`
	// Aggregated collector cache behaviour: finished runs plus a live
	// snapshot of every run currently executing.
	CacheHits   uint64 `json:"collector_cache_hits"`
	CacheMisses uint64 `json:"collector_cache_misses"`
	Coalesced   uint64 `json:"collector_coalesced"`
	Retries     uint64 `json:"collector_retries"`
	// DispatchRetries counts remote measurement shards that were re-posted
	// after transport failures (dispatch.Remote) — transport health for
	// long-running drift-mode deployments.
	DispatchRetries uint64 `json:"dispatch_retries"`
	// Live collector gauges: distinct configurations under measurement
	// right now across all running jobs, and the largest per-run
	// concurrency peak among them.
	CacheInFlight     int `json:"collector_in_flight"`
	CacheInFlightPeak int `json:"collector_in_flight_peak"`
	// StoreSaveErrors counts record saves the store refused (the run goes on).
	StoreSaveErrors uint64 `json:"store_save_errors"`
	// StoreRefreshErrors counts failed re-reads of a shared store (dedup and
	// lookups go on against the last view).
	StoreRefreshErrors uint64 `json:"store_refresh_errors"`
	// TraceMarshalErrors counts events dropped from a run's trace because
	// they could not be marshaled (the run goes on).
	TraceMarshalErrors uint64 `json:"trace_marshal_errors"`
}

// job is one live (queued or running) run.
type job struct {
	rec    *histdb.RunRecord    // guarded by Manager.mu
	col    *collector.Collector // the collector measuring right now, if any; guarded by Manager.mu
	hub    *hub
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// Manager owns the job queue and the bounded worker pool that drains it.
// Every submitted spec becomes a RunRecord that is written through to the
// Store at each lifecycle transition, so the store always reflects current
// state and survives restarts (with FileStore).
type Manager struct {
	opts  Options
	store histdb.Store
	queue chan *job

	mu       sync.Mutex
	jobs     map[string]*job // live jobs by ID
	byKey    map[string]*job // in-flight dedup by spec key
	cache    collector.Stats // finished runs' collector totals
	seq      int
	draining bool

	rootCtx    context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup

	submitted, started, finished atomic.Uint64
	failed, cancelled, deduped   atomic.Uint64
	resumed, warmStarted         atomic.Uint64
	saveErrors, refreshErrors    atomic.Uint64
	traceErrors                  atomic.Uint64
	running                      atomic.Int64
}

// NewManager starts a manager with opts and its worker pool.
func NewManager(opts Options) *Manager {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueLimit <= 0 {
		opts.QueueLimit = 16
	}
	if opts.Store == nil {
		opts.Store = histdb.NewMemStore()
	}
	if opts.Build == nil {
		opts.Build = BuildSpec
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:       opts,
		store:      opts.Store,
		queue:      make(chan *job, opts.QueueLimit),
		jobs:       make(map[string]*job),
		byKey:      make(map[string]*job),
		rootCtx:    ctx,
		rootCancel: cancel,
	}
	// One pass over this replica's own records: resume its ID counter, and
	// mark what a killed predecessor left queued or running — nothing is
	// running it now — as interrupted. A sibling's prefix is never touched.
	for _, rec := range m.store.List() {
		n, own := histdb.SeqOf(rec.ID, opts.ReplicaID)
		if !own {
			continue
		}
		m.seq = max(m.seq, n)
		if !rec.State.Terminal() {
			rec.State, rec.Error = histdb.StateFailed, "interrupted: the daemon restarted; resume replays it"
			if err := m.store.Save(rec); err != nil {
				m.saveErrors.Add(1)
				log.Printf("service: marking run %s interrupted: %v", rec.ID, err)
			}
		}
	}
	for i := 0; i < opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// runID mints this replica's run ID for sequence n.
func (m *Manager) runID(n int) string {
	if m.opts.ReplicaID != "" {
		return fmt.Sprintf("run-%s-%06d", m.opts.ReplicaID, n)
	}
	return fmt.Sprintf("run-%06d", n)
}

// refreshStore folds in records other writers appended to a shared store,
// so dedup and lookups see runs completed by sibling replicas. Stores
// without a Refresh method (MemStore) are single-writer by construction. A
// failed refresh leaves the last view in place; it is counted and logged.
// Callers hold m.mu.
func (m *Manager) refreshStore() {
	if r, ok := m.store.(interface{ Refresh() error }); ok {
		if err := r.Refresh(); err != nil {
			m.refreshErrors.Add(1)
			log.Printf("service: refreshing the shared store: %v", err)
		}
	}
}

// Submit admits a tuning job. The returned record is a snapshot; fresh
// reports whether a new run was queued (false: served from the store or
// joined onto an identical in-flight run).
func (m *Manager) Submit(spec JobSpec) (rec *histdb.RunRecord, fresh bool, err error) {
	spec = spec.Normalize()
	bench, err := validate(spec)
	if err != nil {
		return nil, false, err
	}
	key := spec.Key()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, false, ErrDraining
	}
	// On a shared store, another replica may have completed this spec since
	// we last looked: fold its records in before deciding to re-run.
	m.refreshStore()
	// A warm spec never dedupes: its result depends on the history available
	// when it starts. A continuous one does: its platform is a deterministic
	// simulation of the spec, at any worker count, wherever it measures.
	if !spec.WarmStart {
		// An identical spec already queued or running: join it.
		if j, ok := m.byKey[key]; ok {
			m.deduped.Add(1)
			return j.rec.Clone(), false, nil
		}
		// An identical spec already completed: serve it from the store.
		if stored, ok := m.store.BySpec(key); ok {
			m.deduped.Add(1)
			return stored, false, nil
		}
	}

	names := make([]string, len(bench.Components))
	for i, c := range bench.Components {
		names[i] = c.Name
	}
	rec = &histdb.RunRecord{
		ID:          m.runID(m.seq + 1),
		Spec:        spec,
		SpecKey:     key,
		Components:  names,
		SubmittedAt: time.Now(),
	}
	if err := m.admit(rec); err != nil {
		return nil, false, err
	}
	m.seq++
	m.submitted.Add(1)
	return rec.Clone(), true, nil
}

// Resume re-admits an interrupted (failed, cancelled, or crash-orphaned
// queued/running) run from the store. The run replays deterministically:
// its persisted measurement checkpoint preloads the collector cache, so
// already-measured configurations are served as hits and the final Result
// is byte-identical to what the uninterrupted run would have produced. A
// continuous session replays from its spec alone — the driver forgets the
// collector's cache before its first epoch, preload included, and its
// drifting platform is a deterministic simulation — to the same session.
// Completed runs return ErrNotResumable; live ones ErrInFlight.
func (m *Manager) Resume(id string) (*histdb.RunRecord, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	if _, ok := m.jobs[id]; ok {
		return nil, ErrInFlight
	}
	m.refreshStore() // the run may have been recorded by another replica
	rec, ok := m.store.Get(id)
	if !ok {
		return nil, ErrNotFound
	}
	if rec.State == histdb.StateDone {
		return nil, fmt.Errorf("%w: it already completed and its result is recorded", ErrNotResumable)
	}
	// Reset the lifecycle; keep Checkpoint and Warm — they are the run's
	// replay inputs.
	rec.Error = ""
	rec.Result = nil
	rec.Trace = nil
	rec.StartedAt = time.Time{}
	rec.FinishedAt = time.Time{}
	if err := m.admit(rec); err != nil {
		return nil, err
	}
	m.resumed.Add(1)
	return rec.Clone(), nil
}

// admit is the admission step Submit and Resume share: queue a job for rec
// (ErrQueueFull when the queue is at capacity), enter it in the live maps —
// under its spec key too when the spec dedupes and no identical run holds
// the key — and write the queued record through. Callers hold m.mu.
func (m *Manager) admit(rec *histdb.RunRecord) error {
	rec.State = histdb.StateQueued
	j := &job{rec: rec, hub: newHub(), done: make(chan struct{})}
	j.hub.dropped = func(err error) {
		m.traceErrors.Add(1)
		log.Printf("service: run %s: dropping a trace line: %v", rec.ID, err)
	}
	j.ctx, j.cancel = context.WithCancel(m.rootCtx)
	select {
	case m.queue <- j:
	default:
		j.cancel()
		return ErrQueueFull
	}
	m.jobs[rec.ID] = j
	if _, taken := m.byKey[rec.SpecKey]; !taken && !rec.Spec.WarmStart {
		m.byKey[rec.SpecKey] = j
	}
	m.saveLocked(j)
	return nil
}

// worker drains the queue until Shutdown closes it.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// runJob drives one job from queued to a terminal state.
func (m *Manager) runJob(j *job) {
	defer close(j.done)

	m.mu.Lock()
	if j.ctx.Err() != nil {
		// Cancelled while queued (or the daemon is shutting down).
		m.finalize(j, nil, j.ctx.Err())
		m.mu.Unlock()
		return
	}
	j.rec.State = histdb.StateRunning
	j.rec.StartedAt = time.Now()
	m.saveLocked(j)
	m.mu.Unlock()
	m.started.Add(1)
	m.running.Add(1)
	defer m.running.Add(-1)

	p, alg, err := m.opts.Build(j.rec.Spec)
	if err != nil {
		m.fail(j, err)
		return
	}

	// Warm start (opt-in): assemble transfer-learning data from the history
	// database once, on first execution, and pin it to the record — a
	// resume then replays the exact same inputs even if the store has
	// grown since admission.
	if j.rec.Spec.WarmStart {
		m.mu.Lock()
		if j.rec.Warm == nil {
			j.rec.Warm = live.WarmFromHistory(m.store, j.rec.Spec)
			m.saveLocked(j)
		}
		warm := j.rec.Warm
		m.mu.Unlock()
		if !warm.Empty() {
			p.Warm = warm
			m.warmStarted.Add(1)
		}
	}
	// Resume path: preload the collector cache with the interrupted run's
	// measurements so the deterministic replay serves them as hits.
	col := p.Collector()
	if len(j.rec.Checkpoint) > 0 {
		col.Preload(j.rec.Checkpoint)
	}

	p.Ctx = j.ctx
	p.Observer = events.Multi(p.Observer, j.hub, &checkpointer{m: m, j: j, col: col})
	m.mu.Lock()
	j.col = col // /metrics gauges show its cache behaviour and in-flight pressure live
	m.mu.Unlock()

	res, err := alg.Tune(p, j.rec.Spec.Budget)

	m.mu.Lock()
	defer m.mu.Unlock()
	// A finished run's result carries everything a resume would need; an
	// interrupted one stays resumable even if the last in-run checkpoint
	// write lost a race with cancellation.
	j.rec.Checkpoint = nil
	if err != nil {
		j.rec.Checkpoint = col.Snapshot()
	}
	// The final collector stats join the totals in the same critical section
	// that takes the job (and its live collector) out of m.jobs, so Metrics
	// never sees the run twice, or not at all, during the handover.
	j.rec.Collector = col.Stats()
	m.cache = foldStats(m.cache, j.rec.Collector)
	m.finalize(j, res, err)
}

// fail finalizes a job that could not be built.
func (m *Manager) fail(j *job, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finalize(j, nil, err)
}

// foldStats adds one collector's stats to a total: counters and the
// in-flight gauge sum, the concurrency peak is the larger of the two.
func foldStats(total, st collector.Stats) collector.Stats {
	total.Hits += st.Hits
	total.Misses += st.Misses
	total.Coalesced += st.Coalesced
	total.Retries += st.Retries
	total.DispatchRetries += st.DispatchRetries
	total.Errors += st.Errors
	total.WorkflowRuns += st.WorkflowRuns
	total.ComponentRuns += st.ComponentRuns
	total.InFlight += st.InFlight
	if st.InFlightPeak > total.InFlightPeak {
		total.InFlightPeak = st.InFlightPeak
	}
	return total
}

// checkpointer persists a live run's measurement progress: after every
// measured batch (and model fit) it snapshots the collector cache and the
// trace so far into the run record and writes it through to the store.
// A run killed at any point — even SIGKILL — is then resumable from its
// last completed batch.
type checkpointer struct {
	m   *Manager
	j   *job
	col *collector.Collector
}

func (c *checkpointer) OnEvent(e events.Event) {
	switch e.(type) {
	case *events.BatchMeasured, *events.ModelTrained:
	default:
		return
	}
	snap := c.col.Snapshot()
	c.m.mu.Lock()
	if !c.j.rec.State.Terminal() {
		c.j.rec.Checkpoint = snap
		c.j.rec.Trace = c.j.hub.Lines()
		c.m.saveLocked(c.j)
	}
	c.m.mu.Unlock()
}

// finalize moves a job to its terminal state, persists it, and retires it
// from the live maps. It is idempotent: a job cancelled while queued is
// finalized by Cancel, and the worker that later pops it must not count it
// twice. Callers hold m.mu.
func (m *Manager) finalize(j *job, res *tuner.Result, err error) {
	if j.rec.State.Terminal() {
		return
	}
	j.hub.Close()
	j.rec.FinishedAt = time.Now()
	j.rec.Trace = j.hub.Lines()
	switch {
	case err == nil:
		j.rec.State = histdb.StateDone
		j.rec.Result, j.rec.Continuous = res, res.Continuous
		m.finished.Add(1)
	case errors.Is(err, context.Canceled) || j.ctx.Err() != nil:
		j.rec.State = histdb.StateCancelled
		j.rec.Error = err.Error()
		m.cancelled.Add(1)
	default:
		j.rec.State = histdb.StateFailed
		j.rec.Error = err.Error()
		m.failed.Add(1)
	}
	m.saveLocked(j)
	delete(m.jobs, j.rec.ID)
	if m.byKey[j.rec.SpecKey] == j {
		delete(m.byKey, j.rec.SpecKey)
	}
}

// saveLocked persists the job's current record snapshot. Store failures
// are counted and logged but never fail the run. Callers hold m.mu.
func (m *Manager) saveLocked(j *job) {
	if err := m.store.Save(j.rec); err != nil {
		m.saveErrors.Add(1)
		log.Printf("service: saving run %s: %v", j.rec.ID, err)
	}
}

// Get returns a snapshot of a run: live state if the job is in flight,
// otherwise the stored record.
func (m *Manager) Get(id string) (*histdb.RunRecord, bool) {
	m.mu.Lock()
	if j, ok := m.jobs[id]; ok {
		rec := j.rec.Clone()
		m.mu.Unlock()
		return rec, true
	}
	m.mu.Unlock()
	return m.store.Get(id)
}

// List returns every known run, live and stored, ordered by submission.
func (m *Manager) List() []*histdb.RunRecord {
	// Live jobs are written through on every transition, so the store's
	// view is complete; live snapshots are fresher only within a
	// transition, which Get covers.
	return m.store.List()
}

// History queries the history database: completed runs matching every set
// field of q, in store order.
func (m *Manager) History(q histdb.Query) []*histdb.RunRecord {
	return histdb.Select(m.store, q)
}

// Cancel requests cancellation of a queued or running run. The returned
// snapshot reflects the state at return time: queued jobs are terminal
// immediately, running jobs finish (as cancelled) within one measurement
// batch.
func (m *Manager) Cancel(id string) (*histdb.RunRecord, error) {
	m.mu.Lock()
	if j, ok := m.jobs[id]; ok {
		j.cancel()
		if j.rec.State == histdb.StateQueued {
			// The worker that eventually pops it will see the cancelled
			// context; reflect the terminal state now.
			m.finalize(j, nil, context.Canceled)
		}
		rec := j.rec.Clone()
		m.mu.Unlock()
		return rec, nil
	}
	m.mu.Unlock()
	if rec, ok := m.store.Get(id); ok {
		return rec, ErrFinished
	}
	return nil, ErrNotFound
}

// hubFor returns the event hub of a run: the live hub for in-flight jobs,
// or a static replay hub over the persisted trace for finished ones.
func (m *Manager) hubFor(id string) (*hub, bool) {
	m.mu.Lock()
	if j, ok := m.jobs[id]; ok {
		h := j.hub
		m.mu.Unlock()
		return h, true
	}
	m.mu.Unlock()
	if rec, ok := m.store.Get(id); ok {
		return staticHub(rec.Trace), true
	}
	return nil, false
}

// Stream delivers run id's event trace to emit, one marshaled JSONL line at
// a time — what GET /v1/runs/{id}/events serves. A live run replays its
// buffered prefix and then, with follow, keeps delivering until the run
// reaches a terminal state; a finished run replays its stored trace.
func (m *Manager) Stream(ctx context.Context, id string, follow bool, emit func(json.RawMessage) error) error {
	h, ok := m.hubFor(id)
	if !ok {
		return ErrNotFound
	}
	return h.Stream(ctx, follow, emit)
}

// Wait blocks until the run with id leaves the live set (finishes in any
// state) or the context is cancelled. Unknown IDs return immediately.
func (m *Manager) Wait(ctx context.Context, id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil
	}
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Metrics returns a snapshot of the manager's counters. Collector cache
// totals cover finished runs plus a live snapshot of every running job;
// the in-flight gauges come from the live collectors alone.
func (m *Manager) Metrics() Metrics {
	mt := Metrics{
		Submitted:   m.submitted.Load(),
		Started:     m.started.Load(),
		Finished:    m.finished.Load(),
		Failed:      m.failed.Load(),
		Cancelled:   m.cancelled.Load(),
		Deduped:     m.deduped.Load(),
		Resumed:     m.resumed.Load(),
		WarmStarted: m.warmStarted.Load(),
		QueueDepth:  len(m.queue),
		Running:     int(m.running.Load()),
		Workers:     m.opts.Workers,
	}
	m.mu.Lock()
	var running collector.Stats
	for _, j := range m.jobs {
		if j.col != nil {
			running = foldStats(running, j.col.Stats())
		}
	}
	all := foldStats(m.cache, running)
	m.mu.Unlock()
	mt.CacheHits, mt.CacheMisses, mt.Coalesced = all.Hits, all.Misses, all.Coalesced
	mt.Retries, mt.DispatchRetries = all.Retries, all.DispatchRetries
	mt.CacheInFlight, mt.CacheInFlightPeak = running.InFlight, running.InFlightPeak
	mt.StoreSaveErrors, mt.StoreRefreshErrors = m.saveErrors.Load(), m.refreshErrors.Load()
	mt.TraceMarshalErrors = m.traceErrors.Load()
	return mt
}

// Shutdown drains the manager: stop admitting, cancel every queued and
// running job (in-flight runs abort within one measurement batch), wait
// for the workers — bounded by ctx — and close the store.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	m.mu.Unlock()

	m.rootCancel()
	close(m.queue)

	waited := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(waited)
	}()
	var err error
	select {
	case <-waited:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if cerr := m.store.Close(); err == nil {
		err = cerr
	}
	return err
}
