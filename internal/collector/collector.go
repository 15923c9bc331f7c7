// Package collector is the auto-tuner's unified measurement layer (the
// "collector" of the paper's collector / modeler / searcher architecture,
// §2.2). Every measurement a tuning run performs — workflow runs and
// standalone component runs — flows through a Collector, which fronts a
// dispatch.Dispatcher and adds the properties that used to be
// per-call-site accidents:
//
//   - batch-first, context-aware APIs: batches go to the dispatcher as one
//     unit and abort promptly when the context is cancelled;
//   - an in-memory memoization cache keyed by dispatch.Item.Key(), so
//     repeated configurations (across iterations, algorithms, or
//     replications that share a Problem) are never re-simulated;
//   - single-flight deduplication: identical configurations requested
//     concurrently are measured once, with all requesters sharing the
//     result;
//   - per-run hit / miss / retry / in-flight accounting exposed as a
//     Stats snapshot.
//
// Measurements must be deterministic per key (as every Evaluator in this
// repository is: noise is keyed to the configuration, never to wall-clock
// or call order), which makes memoization semantically transparent —
// results are byte-identical with or without the cache, at any worker
// count.
package collector

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"ceal/internal/cfgspace"
	"ceal/internal/dispatch"
)

// Evaluator measures configurations. Implementations may run the cluster
// simulator directly or look measurements up in a pre-built ground truth.
// Implementations must be safe for concurrent use and deterministic per
// configuration (repeated calls with the same arguments return the same
// value). The interface is owned by internal/dispatch (the measurement
// transport layer); this alias keeps the collector's historical import
// surface.
type Evaluator = dispatch.Evaluator

// Sample is one measured configuration.
type Sample struct {
	Cfg   cfgspace.Config
	Value float64
}

// Stats is a point-in-time snapshot of a Collector's counters. The JSON
// form is part of the tuning service's run records (internal/service).
type Stats struct {
	// Hits counts measurements served from the memoization cache.
	Hits uint64 `json:"hits"`
	// Misses counts fresh evaluations dispatched to the runner.
	Misses uint64 `json:"misses"`
	// Coalesced counts requests folded into an identical measurement that
	// was already in flight (single-flight deduplication).
	Coalesced uint64 `json:"coalesced"`
	// Retries counts task relaunches performed by the runner after
	// failures (injected or real).
	Retries uint64 `json:"retries"`
	// DispatchRetries counts measurement shards the dispatcher re-posted
	// after transport failures — nonzero only for transports that track
	// them (dispatch.Remote). Distinct from Retries, which counts
	// worker-side task relaunches.
	DispatchRetries uint64 `json:"dispatch_retries,omitempty"`
	// Errors counts batches that failed (retries exhausted or context
	// cancelled).
	Errors uint64 `json:"errors"`
	// WorkflowRuns and ComponentRuns split Misses by measurement kind.
	WorkflowRuns  uint64 `json:"workflow_runs"`
	ComponentRuns uint64 `json:"component_runs"`
	// InFlight is the number of distinct keys under measurement right now;
	// InFlightPeak is the maximum that was ever concurrently in flight.
	InFlight     int `json:"in_flight"`
	InFlightPeak int `json:"in_flight_peak"`
}

// String renders the snapshot as a one-line summary for CLIs and logs.
func (s Stats) String() string {
	total := s.Hits + s.Misses + s.Coalesced
	rate := 0.0
	if total > 0 {
		rate = float64(s.Hits+s.Coalesced) / float64(total) * 100
	}
	return fmt.Sprintf("%d hits / %d misses / %d coalesced (%.0f%% reused), %d retries, %d errors, peak %d in flight",
		s.Hits, s.Misses, s.Coalesced, rate, s.Retries, s.Errors, s.InFlightPeak)
}

// Collector fronts a measurement Dispatcher and serves every measurement
// request through one cache. The zero value is not usable; construct with
// New.
type Collector struct {
	disp dispatch.Dispatcher

	mu           sync.Mutex
	cache        map[string]float64
	inflight     map[string]*flight
	inflightPeak int

	hits, misses, coalesced atomic.Uint64
	retries, errs           atomic.Uint64
	workflowRuns, compRuns  atomic.Uint64
}

// flight is one in-progress measurement that concurrent requesters of the
// same key wait on.
type flight struct {
	done chan struct{}
	val  float64
	err  error
}

// New returns a Collector measuring on disp — any substrate (in-process
// pool, remote workers). Because the collector memoizes by configuration
// key, not by who measured it, results are byte-identical across
// substrates.
func New(disp dispatch.Dispatcher) *Collector {
	return &Collector{
		disp:     disp,
		cache:    make(map[string]float64),
		inflight: make(map[string]*flight),
	}
}

// ShardRetryCounter is implemented by dispatchers that track transport-level
// shard resends (dispatch.Remote); Stats folds the count in when present.
type ShardRetryCounter interface {
	DispatchRetries() uint64
}

// Stats returns a snapshot of the collector's counters.
func (c *Collector) Stats() Stats {
	c.mu.Lock()
	inFlight := len(c.inflight)
	peak := c.inflightPeak
	c.mu.Unlock()
	st := Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Coalesced:     c.coalesced.Load(),
		Retries:       c.retries.Load(),
		Errors:        c.errs.Load(),
		WorkflowRuns:  c.workflowRuns.Load(),
		ComponentRuns: c.compRuns.Load(),
		InFlight:      inFlight,
		InFlightPeak:  peak,
	}
	st.DispatchRetries = dispatch.Retries(c.disp)
	return st
}

// Forget drops every cached value and keeps the counters: a value measured
// under one platform condition must not be served under another, so the
// continuous driver forgets before each tuning epoch.
func (c *Collector) Forget() {
	c.mu.Lock()
	clear(c.cache)
	c.mu.Unlock()
}

// MeasureWorkflows measures workflow configurations and returns samples in
// submission order. Cached configurations are served without dispatching;
// duplicate configurations within the batch (or concurrently in flight
// elsewhere) are measured once.
func (c *Collector) MeasureWorkflows(ctx context.Context, cfgs []cfgspace.Config) ([]Sample, error) {
	return c.measure(ctx, dispatch.Item{Kind: dispatch.KindWorkflow}, cfgs, &c.workflowRuns)
}

// MeasureComponents measures standalone runs of component j at each
// sub-configuration (nil marks the unconfigurable-component solo run) and
// returns samples in submission order, with the same caching and
// deduplication as MeasureWorkflows.
func (c *Collector) MeasureComponents(ctx context.Context, j int, cfgs []cfgspace.Config) ([]Sample, error) {
	return c.measure(ctx, dispatch.Item{Kind: dispatch.KindComponent, Component: j}, cfgs, &c.compRuns)
}

// measure runs a copy of item at each configuration, cached under its Key.
func (c *Collector) measure(ctx context.Context, item dispatch.Item, cfgs []cfgspace.Config, runs *atomic.Uint64) ([]Sample, error) {
	items := make([]dispatch.Item, len(cfgs))
	for i, cfg := range cfgs {
		items[i] = item
		items[i].Cfg = cfg
	}
	vals, err := c.runItems(ctx, items, runs)
	if err != nil {
		return nil, err
	}
	out := make([]Sample, len(cfgs))
	for i := range cfgs {
		out[i] = Sample{Cfg: cfgs[i], Value: vals[i]}
	}
	return out, nil
}

// runItems is the measurement core: classify each key as cache hit,
// joinable in-flight measurement, or fresh leader; dispatch the leaders as
// one batch on the collector's dispatcher (in-process pool or remote
// workers — the cache is substrate-blind); then join the waiters. Leader
// items carry their position in the dispatched batch as Seq, so results
// reassemble deterministically whatever order the substrate returns them.
func (c *Collector) runItems(ctx context.Context, items []dispatch.Item, runs *atomic.Uint64) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		c.errs.Add(1)
		return nil, err
	}
	results := make([]float64, len(items))
	keys := make([]string, len(items))
	for i := range items {
		keys[i] = items[i].Key()
	}

	type pending struct {
		i   int
		key string
		fl  *flight
	}
	var leaders, waiters []pending
	var batch []dispatch.Item

	c.mu.Lock()
	for i, k := range keys {
		if v, ok := c.cache[k]; ok {
			results[i] = v
			c.hits.Add(1)
			continue
		}
		if fl, ok := c.inflight[k]; ok {
			// Either another goroutine or an earlier index of this very
			// batch is already measuring this key.
			waiters = append(waiters, pending{i: i, key: k, fl: fl})
			c.coalesced.Add(1)
			continue
		}
		fl := &flight{done: make(chan struct{})}
		c.inflight[k] = fl
		it := items[i]
		it.Seq = len(leaders)
		batch = append(batch, it)
		leaders = append(leaders, pending{i: i, key: k, fl: fl})
		c.misses.Add(1)
		runs.Add(1)
	}
	if len(c.inflight) > c.inflightPeak {
		c.inflightPeak = len(c.inflight)
	}
	c.mu.Unlock()

	var batchErr error
	if len(leaders) > 0 {
		ms, err := c.disp.Dispatch(ctx, batch)
		var vals []float64
		var retries []int
		if err == nil {
			vals, retries, err = dispatch.ByIndex(batch, ms)
		}
		batchErr = err
		var totalRetries uint64
		c.mu.Lock()
		for li, ld := range leaders {
			if err == nil {
				ld.fl.val = vals[li]
				c.cache[ld.key] = vals[li]
				results[ld.i] = vals[li]
				totalRetries += uint64(retries[li])
			} else {
				ld.fl.err = err
			}
			delete(c.inflight, ld.key)
			close(ld.fl.done)
		}
		c.mu.Unlock()
		c.retries.Add(totalRetries)
	}

	for _, w := range waiters {
		select {
		case <-w.fl.done:
		case <-ctx.Done():
			if batchErr == nil {
				batchErr = ctx.Err()
			}
			c.errs.Add(1)
			return nil, batchErr
		}
		if w.fl.err != nil {
			if batchErr == nil {
				batchErr = w.fl.err
			}
			continue
		}
		results[w.i] = w.fl.val
	}
	if batchErr != nil {
		c.errs.Add(1)
		return nil, batchErr
	}
	return results, nil
}
