// Package tuner implements the paper's empirical model-based auto-tuning
// framework (collector / modeler / searcher, §2.2) and its algorithms:
//
//   - RS    — random sampling (§7.3)
//   - AL    — batch active learning (§7.3)
//   - GEIST — parameter-graph-guided semi-supervised sampling (§7.3)
//   - ALpH  — active learning over a learned component-combining model (§4)
//   - CEAL  — Component-based Ensemble Active Learning, Algorithm 1
//
// All algorithms optimize a minimization metric (execution time in seconds
// or computer time in core-hours) over a finite sample pool C_pool drawn
// from the workflow's configuration space (§5), under a data-collection
// budget expressed in workflow-run equivalents.
package tuner

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"

	"ceal/internal/acm"
	"ceal/internal/cfgspace"
	"ceal/internal/collector"
	"ceal/internal/dispatch"
	"ceal/internal/drift"
	"ceal/internal/score"
	"ceal/internal/tuner/events"
)

// Evaluator measures configurations. Implementations may run the cluster
// simulator directly or look measurements up in a pre-built ground truth.
// Algorithms never call an Evaluator directly: every measurement flows
// through the problem's caching collector (see Problem.Collector).
type Evaluator = collector.Evaluator

// Sample is one measured configuration.
type Sample = collector.Sample

// ComponentInfo describes one component application of the workflow.
type ComponentInfo struct {
	Name string
	// Space is the component's own parameter space, whose Columns are its
	// model's features; nil marks an unconfigurable component (modeled by
	// a constant).
	Space *cfgspace.Space
	// Cores returns the cores the component reserves at a
	// sub-configuration (nil for unconfigurable components). Required when
	// the problem's combiner is acm.BottleneckSum.
	Cores func(cfgspace.Config) float64
}

// dim returns the component's parameter count.
func (c ComponentInfo) dim() int {
	if c.Space == nil {
		return 0
	}
	return c.Space.Dim()
}

// Problem is a fully specified auto-tuning task.
type Problem struct {
	Name string
	// Space is the workflow configuration space. Its Columns are every
	// surrogate's features and begin with the configurable components'
	// Columns in order, as cfgspace.Concat lays them out.
	Space      *cfgspace.Space
	Components []ComponentInfo
	Pool       []cfgspace.Config // C_pool: candidate configurations
	Eval       Evaluator
	// Combiner is the white-box combining function matching the metric
	// (acm.Max for execution time, acm.Sum for computer time).
	Combiner acm.Combiner
	// History holds per-component historical solo measurements D_hist
	// (index-aligned with Components); empty slices mean none.
	History [][]Sample
	// ComponentPool optionally restricts fresh standalone component runs
	// to pre-selected candidate configurations per component (the paper
	// measures 500 random component configurations, §7.1, from which CEAL
	// may select its training samples). Empty means sample the component's
	// space directly.
	ComponentPool [][]cfgspace.Config
	// Features is not read by the tuner, whose features are Space's
	// columns; a caller that featurizes outside a run may keep one here.
	Features func(cfgspace.Config) []float64
	// Runner shapes the in-process measurement pool (width and retry
	// policy); nil means a serial pool.
	Runner *dispatch.Runner
	// Dispatcher optionally overrides the measurement substrate: when set,
	// measurement batches are executed by it (e.g. a dispatch.Remote fanning
	// over ceal-worker daemons) instead of running Eval in-process on
	// Runner. The collector memoizes by configuration, not by who measured
	// it, so results are byte-identical across substrates. nil (the
	// default) measures in-process.
	Dispatcher dispatch.Dispatcher
	// Workers is the scoring parallelism: batch model inference (pool
	// prediction, candidate ranking, recall checks) fans across this many
	// goroutines with deterministic, index-ordered results — any width
	// produces bitwise-identical scores. 0 falls back to Runner.Workers so
	// one -workers setting governs both measurement and scoring; values
	// below 2 score serially.
	Workers int
	// Ctx optionally cancels a tuning run: every measurement batch is
	// dispatched under this context, so cancelling it aborts the run
	// promptly with Ctx.Err(). nil means context.Background().
	Ctx context.Context
	// Warm optionally carries prior-run measurements (see WarmStart):
	// workflow samples seed the Phase-2 surrogate via the WarmStarter
	// strategy hook, component samples join Phase-1 training data. nil (the
	// default) is the cold path, byte-identical to builds without warm
	// support. Warm data is an input like History: two runs with identical
	// specs and identical warm data produce identical results.
	Warm *WarmStart
	// Seed drives all of the algorithm's random choices.
	Seed uint64
	// Observer optionally receives the structured run-event trace (see
	// internal/tuner/events): seeding, batch selection, measurement with
	// collector cache stats, model training, CEAL switch/bias decisions,
	// per-iteration best-so-far, and the final result. nil (the default)
	// is a zero-cost no-op — no event values are even constructed. The
	// observer never influences the run: results are byte-identical with
	// and without one attached.
	Observer events.Observer
	// ScorePool is for evaluation only: it asks for Result.PoolScores, the
	// final model's prediction over the whole pool, which the paper's
	// recall, MdAPE and rank-correlation figures read. It changes nothing
	// else about the run. Off (the default), the full-pool pass is skipped.
	ScorePool bool

	// col memoizes the problem's measurement collector so every algorithm
	// run on this problem shares one cache (repeated configurations across
	// algorithms or iterations are never re-simulated).
	colMu sync.Mutex
	col   *collector.Collector

	// eng memoizes the scoring engine; poolMat caches the pool's codes
	// under Space's columns, shared by every surrogate and the
	// low-fidelity model of every algorithm run on this problem, so the
	// pool is coded once.
	engOnce sync.Once
	eng     *score.Engine
	poolMat score.Matrix
}

// Collector returns the problem's measurement collector, constructing it
// over Dispatcher (or, when that is nil, Eval on Runner's in-process pool)
// on first use. All algorithms measure exclusively through it; callers can
// inspect cache behaviour via Collector().Stats().
func (p *Problem) Collector() *collector.Collector {
	p.colMu.Lock()
	defer p.colMu.Unlock()
	if p.col == nil {
		disp := p.Dispatcher
		if disp == nil {
			disp = dispatch.NewLocal(p.Eval, p.Runner)
		}
		p.col = collector.New(disp)
	}
	return p.col
}

// Record journals the problem's measurements in jr beneath its collector,
// and beneath the clock when Dispatcher is a *drift.Env. Call it before the
// collector's first use.
func (p *Problem) Record(jr *dispatch.Journal) {
	switch d := p.Dispatcher.(type) {
	case *drift.Env:
		d.Record(jr)
	case nil:
		p.Dispatcher = jr.Wrap(nil, dispatch.NewLocal(p.Eval, p.Runner))
	default:
		p.Dispatcher = jr.Wrap(nil, d)
	}
}

// context returns the problem's cancellation context.
func (p *Problem) context() context.Context {
	if p.Ctx != nil {
		return p.Ctx
	}
	return context.Background()
}

// poolCodes returns the pool's rank codes under Space's columns, coded on
// first use.
func (p *Problem) poolCodes(pool []cfgspace.Config) (*score.Codes, error) {
	return p.poolMat.Codes(p.engine(), pool, p.Space.Columns())
}

// spans locates each component's columns in the workflow's: they tile them
// from column 0 in component order (validate checks the declarations
// agree); an unconfigurable component reads none.
func (p *Problem) spans() []acm.Span {
	spans := make([]acm.Span, len(p.Components))
	at := 0
	for j, c := range p.Components {
		if c.Space != nil {
			w := c.Space.Columns().Width()
			spans[j] = acm.Span{Lo: at, Hi: at + w}
			at += w
		}
	}
	return spans
}

// engine returns the problem's scoring engine, constructed on first use
// from Workers (falling back to Runner.Workers).
func (p *Problem) engine() *score.Engine {
	p.engOnce.Do(func() {
		w := p.Workers
		if w == 0 && p.Runner != nil {
			w = p.Runner.Workers
		}
		p.eng = score.New(w)
	})
	return p.eng
}

// poolScorer scores pool configurations by index: it fills out[j] with
// the score of Problem.Pool[idxs[j]] for every j (len(out) == len(idxs)).
// The fused selector streams index blocks through the scorer from
// concurrent chunk goroutines, so a scorer must be safe for concurrent
// read-only calls and each index's score must be a pure function of the
// index — independent of which block or chunk presents it — which is what
// keeps rankings bitwise identical for any worker count.
//
// worst is the selector's current cut-off: only scores below it, or equal
// to it at an earlier position, can still be selected (+Inf while
// everything can). A scorer that can prove an index's score is strictly
// greater than worst may stop early and report +Inf for it; every other
// index gets its exact score. Scorers with nothing to stop ignore worst.
type poolScorer func(idxs []int, out []float64, worst float64)

// hasHistory reports whether every configurable component has historical
// measurements.
func (p *Problem) hasHistory() bool {
	if len(p.History) != len(p.Components) {
		return false
	}
	for j, c := range p.Components {
		if c.Space != nil && len(p.History[j]) == 0 {
			return false
		}
	}
	return true
}

// validate checks the problem is runnable.
func (p *Problem) validate() error {
	if p.Space == nil || len(p.Pool) == 0 || p.Eval == nil {
		return fmt.Errorf("tuner: problem %q needs a space, a pool, and an evaluator", p.Name)
	}
	sum := 0
	for _, c := range p.Components {
		sum += c.dim()
	}
	if sum != p.Space.Dim() {
		return fmt.Errorf("tuner: component dims sum to %d but workflow space has %d", sum, p.Space.Dim())
	}
	cols, at := p.Space.Columns().Cols, 0
	for _, c := range p.Components {
		if c.Space == nil {
			continue
		}
		for _, col := range c.Space.Columns().Cols {
			if at == len(cols) || cols[at].Min != col.Min || cols[at].Max != col.Max || cols[at].Step != col.Step {
				return fmt.Errorf("tuner: component %s's column %s is not workflow column %d", c.Name, col.Name, at)
			}
			at++
		}
	}
	if p.Combiner == acm.BottleneckSum {
		for _, c := range p.Components {
			if c.Cores == nil {
				return fmt.Errorf("tuner: combiner %v requires Cores on component %s", p.Combiner, c.Name)
			}
		}
	}
	return nil
}

// Result is an auto-tuning outcome.
type Result struct {
	// Best is the searcher's output: the measured configuration with the
	// best observed value (the final model's pool minimum only when no
	// workflow sample was measured).
	Best cfgspace.Config
	// PoolScores holds the final model's prediction for every pool
	// configuration (aligned with Problem.Pool) — the basis for the
	// recall-score and MdAPE evaluations. It is set when Problem.ScorePool
	// is, or when the no-sample fallback scored the pool; nil otherwise.
	PoolScores []float64
	// Samples are the measured workflow configurations (training data).
	Samples []Sample
	// ComponentSamples are newly measured standalone component runs
	// (excluding free historical data), per component.
	ComponentSamples [][]Sample
	// CollectionCost is the total data-collection cost in metric units:
	// the sum of measured workflow values plus measured component values
	// (§7.2.3).
	CollectionCost float64
	// SwitchIteration records when CEAL switched from the low- to the
	// high-fidelity model (0-based; -1 if it never switched or N/A).
	SwitchIteration int
	// Importance holds the final surrogate's gain-based feature
	// importance over the problem's feature vector (nil for algorithms
	// whose final model is not a single boosted-tree ensemble).
	Importance []float64
	// Continuous is the session summary a Continuous run's final Result
	// carries; nil for one-shot algorithms.
	Continuous *ContinuousResult `json:"-"`
}

// Algorithm is an auto-tuning algorithm under a workflow-runs budget.
type Algorithm interface {
	Name() string
	// Tune spends up to budget workflow-run equivalents and returns the
	// result. The budget covers both workflow runs and (for CEAL without
	// histories) standalone component runs.
	Tune(p *Problem, budget int) (*Result, error)
}

// measureBatch measures workflow configurations through the problem's
// caching collector and returns samples in submission order.
func measureBatch(p *Problem, cfgs []cfgspace.Config) ([]Sample, error) {
	return p.Collector().MeasureWorkflows(p.context(), cfgs)
}

// finish assembles a Result from the run's samples and the final model's
// pool scores (nil unless the pool was scored). st may be nil (no trace);
// when set, the degenerate-budget fallback below is announced on the
// observer.
//
// The searcher's recommendation is the measured configuration with the
// best observed performance. The surrogate's role is to steer which
// configurations get measured (and it is evaluated separately through
// PoolScores); trusting an unverified model minimum instead would let a
// tree ensemble's extrapolation artifacts — compounded leaf corrections
// can score an unseen configuration below every training point — recommend
// configurations no evidence supports, which a fixed measurement budget
// cannot re-verify.
//
// The Result owns its slices: Samples and ComponentSamples are copied,
// configurations included, so callers may retain or mutate them without
// aliasing the run's internal state, and a retained Result does not pin
// the pool SampleN packed its configurations into (PoolScores is already
// exclusively the Result's — the final model writes it fresh and nothing
// else holds a reference).
func finish(p *Problem, scores []float64, samples []Sample, compSamples [][]Sample, switchIter int, st *State) *Result {
	var best cfgspace.Config
	bestVal := math.Inf(1)
	for _, s := range samples {
		if s.Value < bestVal {
			bestVal = s.Value
			best = s.Cfg
		}
	}
	if best == nil {
		// No workflow measurements (degenerate budget): fall back to the
		// model's pool minimum.
		idx := 0
		for i, s := range scores {
			if s < scores[idx] {
				idx = i
			}
		}
		best = p.Pool[idx]
		if st != nil {
			st.Emit(&events.Fallback{PoolIndex: idx})
		}
	}
	cost := 0.0
	for _, s := range samples {
		cost += s.Value
	}
	for _, cs := range compSamples {
		for _, s := range cs {
			cost += s.Value
		}
	}
	compCopy := make([][]Sample, len(compSamples))
	for j, cs := range compSamples {
		compCopy[j] = ownSamples(cs)
	}
	if compSamples == nil {
		compCopy = nil
	}
	return &Result{
		Best:             best.Clone(),
		PoolScores:       scores,
		Samples:          ownSamples(samples),
		ComponentSamples: compCopy,
		CollectionCost:   cost,
		SwitchIteration:  switchIter,
	}
}

// ownSamples copies samples with their configurations in one array of
// their own. Like append([]Sample(nil), samples...), it returns nil for
// none; a nil configuration stays nil.
func ownSamples(samples []Sample) []Sample {
	if len(samples) == 0 {
		return nil
	}
	n := 0
	for _, s := range samples {
		n += len(s.Cfg)
	}
	vals := make([]int, 0, n)
	out := make([]Sample, len(samples))
	for i, s := range samples {
		out[i].Value = s.Value
		if s.Cfg != nil {
			lo := len(vals)
			vals = append(vals, s.Cfg...)
			out[i].Cfg = vals[lo:len(vals):len(vals)]
		}
	}
	return out
}

// poolTracker manages the not-yet-measured portion of the pool.
type poolTracker struct {
	p         *Problem
	remaining []int // indices into p.Pool

	// Per chunk of takeTop's pass, its score block and heap, reused by
	// every later pass.
	blocks [][]float64
	heaps  [][]topkEntry
}

func newPoolTracker(p *Problem) *poolTracker {
	idx := make([]int, len(p.Pool))
	for i := range idx {
		idx[i] = i
	}
	return &poolTracker{p: p, remaining: idx}
}

// takeRandom removes up to n random configurations and returns their pool
// indices.
func (t *poolTracker) takeRandom(n int, rng *rand.Rand) []int {
	if n > len(t.remaining) {
		n = len(t.remaining)
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		k := rng.IntN(len(t.remaining))
		out = append(out, t.remaining[k])
		t.remaining[k] = t.remaining[len(t.remaining)-1]
		t.remaining = t.remaining[:len(t.remaining)-1]
	}
	return out
}

// selectBlock is the fused selector's largest streaming block: each chunk
// scores at most this many candidates at a time into its own block, so no
// full-pool score slice ever materializes.
const selectBlock = 512

// topkEntry is one candidate in the fused selector's bounded top-k: its
// score and its position in the tracker's remaining slice.
type topkEntry struct {
	val float64
	pos int32
}

// entryLess is the selection order: best (lowest) score first, position
// tie-break — the same strict total order the old full sort used, and the
// same tie-break as metrics.TopIndices. Positions are unique, so the
// order is total and every selection step is deterministic.
func entryLess(a, b topkEntry) bool {
	if a.val != b.val {
		return a.val < b.val
	}
	return a.pos < b.pos
}

// heapDown restores the max-heap property (worst entry at the root, under
// entryLess) from index i down.
func heapDown(h []topkEntry, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && entryLess(h[c], h[c+1]) {
			c++
		}
		if !entryLess(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// heapUp restores the max-heap property from index i up.
func heapUp(h []topkEntry, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(h[parent], h[i]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// takeTop removes the n remaining configurations with the best (lowest)
// scores under the batch scorer and returns their pool indices, fused with
// the scoring pass: each engine chunk streams its candidates through the
// scorer in blocks and folds them into a bounded max-heap of the chunk's n
// best, so the pass is O(m + k·n log n) with no full score slice or full
// sort. A chunk's first block is min(n, selectBlock) candidates and
// each later one doubles, up to selectBlock: the heap is full, and the
// cut-off a bounded scorer stops against finite, after n candidates, while
// doubling keeps the per-block cost amortized when n is small.
//
// Determinism: per-index scores are pure (poolScorer contract) and chunk
// boundaries depend only on (m, workers), so each chunk's heap holds a
// worker-count-independent set; the serial merge then picks the global n
// best under the strict total order entryLess, which is exactly the old
// sort's prefix, and the removal is the old descending-position
// swap-remove verbatim — so the surviving array, and every follow-on RNG
// draw, is unchanged (pinned by TestTakeTopMatchesReference).
func (t *poolTracker) takeTop(n int, score poolScorer) []int {
	m := len(t.remaining)
	if n > m {
		n = m
	}
	if n <= 0 {
		return nil
	}
	eng := t.p.engine()
	_, nc := eng.ChunkLayout(m)
	if len(t.blocks) < nc {
		t.blocks, t.heaps = make([][]float64, nc), make([][]topkEntry, nc)
	}
	heaps := t.heaps[:nc] // each chunk writes only its own slots
	eng.MapChunksIndexed(m, func(ci, lo, hi int) {
		heap := slices.Grow(heaps[ci][:0], n)
		block := t.blocks[ci]
		if len(block) < min(selectBlock, hi-lo) {
			block = make([]float64, min(selectBlock, hi-lo))
			t.blocks[ci] = block
		}
		for blo, size := lo, min(n, selectBlock); blo < hi; blo, size = blo+size, min(2*size, selectBlock) {
			bhi := min(blo+size, hi)
			out := block[:bhi-blo]
			worst := math.Inf(1)
			if len(heap) == n {
				worst = heap[0].val
			}
			score(t.remaining[blo:bhi], out, worst)
			for j, v := range out {
				e := topkEntry{val: v, pos: int32(blo + j)}
				if len(heap) < n {
					heap = append(heap, e)
					heapUp(heap, len(heap)-1)
				} else if entryLess(e, heap[0]) {
					heap[0] = e
					heapDown(heap, 0)
				}
			}
		}
		heaps[ci] = heap
	})

	// Serial merge: at most nc·n survivors, sorted under the total order.
	// The sort's instability is irrelevant — positions are unique.
	cand := make([]topkEntry, 0, nc*n)
	for _, h := range heaps {
		cand = append(cand, h...)
	}
	slices.SortFunc(cand, func(a, b topkEntry) int {
		if a.val != b.val {
			if a.val < b.val {
				return -1
			}
			return 1
		}
		return int(a.pos) - int(b.pos)
	})

	out := make([]int, n)
	kill := make([]int32, n)
	for i := 0; i < n; i++ {
		out[i] = t.remaining[cand[i].pos]
		kill[i] = cand[i].pos
	}
	slices.Sort(kill)

	// Remove the taken positions by descending-position swap-remove — the
	// exact removal the pre-fusion selector used, so the surviving array
	// (and therefore every follow-on takeRandom draw) is unchanged. O(n),
	// independent of pool size.
	for i := n - 1; i >= 0; i-- {
		last := len(t.remaining) - 1
		t.remaining[kill[i]] = t.remaining[last]
		t.remaining = t.remaining[:last]
	}
	return out
}

// left returns how many configurations remain.
func (t *poolTracker) left() int { return len(t.remaining) }
