// Package score implements the pool-scoring engine: batch model inference
// over a candidate pool, fanned across a worker pool with deterministic,
// index-ordered output, plus a pool-code cache so a tuning run codes each
// configuration once rather than once per scoring call per iteration. It is the inference-throughput counterpart of the
// measurement collector: every hot scoring path (surrogate pool
// prediction, low-fidelity ranking, candidate selection) runs through it.
//
// Determinism contract: Map-style calls partition [0, n) into fixed
// contiguous chunks and every index writes only its own output slot, so
// results are bitwise identical for any worker count — parallelism never
// reorders, merges, or re-associates floating-point work. Tasks hands
// indices out as workers free up, under the same own-slot rule.
//
// Each tuning Problem owns one Matrix, shared by its surrogates and M_L,
// so a run codes its pool once. Matrix.Rows, the float featurization,
// serves the perf harness's probes only: no run featurizes a pool.
package score

import (
	"sync"
	"sync/atomic"

	"ceal/internal/cfgspace"
)

// minParallel is the smallest batch worth fanning out; below it the
// goroutine hand-off costs more than the work saved.
const minParallel = 64

// Engine runs index-addressed scoring batches on a fixed-width worker
// pool. A nil *Engine is valid and scores serially, so callers never need
// a serial/parallel fork.
type Engine struct {
	workers int
}

// New returns an engine of the given width; widths below 2 (and nil
// engines) execute serially.
func New(workers int) *Engine {
	if workers < 1 {
		workers = 1
	}
	return &Engine{workers: workers}
}

// Workers returns the engine's parallel width (1 for a nil engine).
func (e *Engine) Workers() int {
	if e == nil {
		return 1
	}
	return e.workers
}

// ChunkLayout reports the chunk decomposition MapChunks would use for a
// batch of n: the chunk size and the number of chunks. Serial engines and
// small batches report one chunk covering everything. Callers that keep
// per-chunk scratch (streamed scoring buffers, bounded top-k heaps) size it
// from this so their layout matches the engine's fan exactly — the layout
// depends only on n and the worker count, never on scheduling.
func (e *Engine) ChunkLayout(n int) (size, count int) {
	if n <= 0 {
		return 0, 0
	}
	w := e.Workers()
	if w > n {
		w = n
	}
	if w <= 1 || n < minParallel {
		return n, 1
	}
	size = (n + w - 1) / w
	return size, (n + size - 1) / size
}

// MapChunks covers [0, n) with fixed contiguous chunks, one goroutine per
// chunk, and waits for all of them. fn must write only state owned by its
// index range. Small batches and serial engines run inline.
func (e *Engine) MapChunks(n int, fn func(lo, hi int)) {
	e.MapChunksIndexed(n, func(_, lo, hi int) { fn(lo, hi) })
}

// MapChunksIndexed is MapChunks with the chunk ordinal exposed: fn receives
// (ci, lo, hi) where ci counts chunks from 0 in index order, matching
// ChunkLayout. The ordinal lets fn address per-chunk scratch without
// deriving it from lo, which would couple callers to the chunk size.
func (e *Engine) MapChunksIndexed(n int, fn func(ci, lo, hi int)) {
	size, count := e.ChunkLayout(n)
	if count == 0 {
		return
	}
	if count == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for ci := 0; ci < count; ci++ {
		lo := ci * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(ci, lo, hi int) {
			defer wg.Done()
			fn(ci, lo, hi)
		}(ci, lo, hi)
	}
	wg.Wait()
}

// Tasks invokes fn for every index in [0, n) across the engine's workers,
// each worker taking the next unclaimed index, without MapChunks' small-batch
// serial floor: it is meant for small sets of heavyweight independent jobs
// — M_L's blocks of cells to predict (internal/acm), QuantizeRows' column sorts, the
// store's frame decodes and encodes (internal/histdb) and an experiment
// battery's replications (internal/paperexp) — where each item is
// expensive enough that fan-out pays even at n = 2, and where two heavy
// items must not queue behind each other on one worker. No model fit
// calls it: a fit is serial. Which
// worker runs an index depends on scheduling, so each index must write only
// its own output slot; results then depend on neither the worker count nor
// the schedule.
func (e *Engine) Tasks(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := min(e.Workers(), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Map invokes fn for every index in [0, n) across the engine's workers.
func (e *Engine) Map(n int, fn func(i int)) {
	e.MapChunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Matrix caches one candidate pool's rank codes (Codes), built on first
// request. The cache is keyed by slice identity (backing array plus
// length), which is sound because pools are immutable for the lifetime of
// a tuning run; passing a different slice — or a different-length prefix
// of the same pool — simply recomputes and replaces the cache. One Matrix
// serves one coder.
type Matrix struct {
	mu    sync.Mutex
	head  *cfgspace.Config
	n     int
	codes *Codes
}

// Rows featurizes pool with feats on the engine's workers, one row a
// configuration. It caches nothing: Codes is the form a pool is scored in.
func (m *Matrix) Rows(e *Engine, pool []cfgspace.Config, feats func(cfgspace.Config) []float64) [][]float64 {
	if len(pool) == 0 {
		return nil
	}
	rows := make([][]float64, len(pool))
	e.Map(len(pool), func(i int) { rows[i] = feats(pool[i]) })
	return rows
}

// Codes returns the pool's rank codes under the declared columns coder,
// computing them on the engine's workers on first use and serving the
// cached codes on every later call with the same pool slice. Concurrent
// first calls may code redundantly, but the first to finish is cached and
// returned to all of them. A column declared wider than MaxCodes is refused
// with ErrWideColumn, and a value off its column's lattice with an
// *OffLatticeError.
func (m *Matrix) Codes(e *Engine, pool []cfgspace.Config, coder *cfgspace.Coder) (*Codes, error) {
	if len(pool) == 0 {
		return &Codes{}, nil
	}
	if codes := m.held(pool); codes != nil {
		return codes, nil
	}
	codes, err := Encode(e, pool, coder)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.head != &pool[0] || m.n != len(pool) {
		m.head, m.n, m.codes = &pool[0], len(pool), codes
	}
	return m.codes, nil
}

// held returns the codes held for pool (nil when they are another pool's).
func (m *Matrix) held(pool []cfgspace.Config) *Codes {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.head == &pool[0] && m.n == len(pool) {
		return m.codes
	}
	return nil
}
