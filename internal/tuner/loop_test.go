package tuner

import (
	"math"
	"testing"

	"ceal/internal/cfgspace"
	"ceal/internal/metrics"
	"ceal/internal/tuner/events"
)

// TestLoopTraceContract checks the run engine's event stream for every
// algorithm: a RunStarted opening, matched BatchSelected/BatchMeasured
// pairs, per-iteration IterationDone with a non-increasing best-so-far,
// a RunFinished closing that agrees with the Result, and a measurement
// total that never exceeds the budget.
func TestLoopTraceContract(t *testing.T) {
	const (
		seed   = 3
		pool   = 200
		budget = 20
	)
	for _, alg := range allAlgorithms() {
		rec := events.NewRecorder()
		p := synthProblem(seed, pool)
		p.Observer = rec
		res, err := alg.Tune(p, budget)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		evs := rec.Events()
		if len(evs) < 2 {
			t.Fatalf("%s: only %d events recorded", alg.Name(), len(evs))
		}

		start, ok := evs[0].(*events.RunStarted)
		if !ok {
			t.Fatalf("%s: first event is %T, want *RunStarted", alg.Name(), evs[0])
		}
		if start.Algorithm != alg.Name() || start.Budget != budget ||
			start.PoolSize != pool || start.Seed != p.Seed {
			t.Errorf("%s: RunStarted = %+v", alg.Name(), start)
		}

		fin, ok := evs[len(evs)-1].(*events.RunFinished)
		if !ok {
			t.Fatalf("%s: last event is %T, want *RunFinished", alg.Name(), evs[len(evs)-1])
		}
		if fin.Measured != len(res.Samples) {
			t.Errorf("%s: RunFinished.Measured = %d, result has %d samples",
				alg.Name(), fin.Measured, len(res.Samples))
		}
		if fin.SwitchIteration != res.SwitchIteration {
			t.Errorf("%s: RunFinished.SwitchIteration = %d, result %d",
				alg.Name(), fin.SwitchIteration, res.SwitchIteration)
		}
		if cfgspace.Config(fin.BestConfig).Key() != res.Best.Key() {
			t.Errorf("%s: RunFinished.BestConfig = %v, result Best %v",
				alg.Name(), fin.BestConfig, res.Best)
		}
		// Component runs are charged as workflow-run equivalents inside the
		// budget, so only the workflow-sample count is bounded by it directly.
		if fin.Measured > budget {
			t.Errorf("%s: measured %d workflow samples, budget %d",
				alg.Name(), fin.Measured, budget)
		}
		compRuns := 0
		for _, cs := range res.ComponentSamples {
			compRuns += len(cs)
		}
		if fin.ComponentRuns != compRuns {
			t.Errorf("%s: RunFinished.ComponentRuns = %d, result has %d",
				alg.Name(), fin.ComponentRuns, compRuns)
		}

		// BatchSelected must be immediately followed by its BatchMeasured
		// (the Loop emits nothing in between), sizes must agree with the
		// dedup-free synthetic collector, and the measured total must land
		// exactly on the result's sample count.
		measured, lastBest := 0, math.Inf(1)
		sawIteration, sawModel := false, false
		for i, e := range evs {
			switch ev := e.(type) {
			case *events.ModelTrained:
				sawModel = true
				if ev.DurationNS <= 0 {
					t.Errorf("%s: ModelTrained(%s, iter %d) has DurationNS = %d",
						alg.Name(), ev.Model, ev.Iteration, ev.DurationNS)
				}
				if ev.Rounds <= 0 {
					t.Errorf("%s: ModelTrained(%s, iter %d) has Rounds = %d",
						alg.Name(), ev.Model, ev.Iteration, ev.Rounds)
				}
			case *events.BatchSelected:
				if ev.Size <= 0 {
					t.Errorf("%s: empty BatchSelected at event %d", alg.Name(), i)
				}
				if i+1 >= len(evs) {
					t.Fatalf("%s: trace ends on BatchSelected", alg.Name())
				}
				bm, ok := evs[i+1].(*events.BatchMeasured)
				if !ok {
					t.Fatalf("%s: BatchSelected followed by %T, want *BatchMeasured",
						alg.Name(), evs[i+1])
				}
				if bm.Iteration != ev.Iteration || bm.Size != ev.Size {
					t.Errorf("%s: batch pair mismatch: selected %+v, measured %+v",
						alg.Name(), ev, bm)
				}
			case *events.BatchMeasured:
				measured += ev.Size
				if measured > budget {
					t.Errorf("%s: %d samples measured by event %d, budget %d",
						alg.Name(), measured, i, budget)
				}
				if ev.CacheHits+ev.CacheMisses+ev.Coalesced != uint64(ev.Size) {
					t.Errorf("%s: cache deltas %d+%d+%d don't cover batch size %d",
						alg.Name(), ev.CacheHits, ev.CacheMisses, ev.Coalesced, ev.Size)
				}
			case *events.IterationDone:
				sawIteration = true
				if ev.Measured != measured {
					t.Errorf("%s: IterationDone(%d).Measured = %d, running total %d",
						alg.Name(), ev.Iteration, ev.Measured, measured)
				}
				if ev.BestValue > lastBest {
					t.Errorf("%s: best-so-far regressed at iteration %d: %v after %v",
						alg.Name(), ev.Iteration, ev.BestValue, lastBest)
				}
				lastBest = ev.BestValue
			}
		}
		if !sawIteration {
			t.Errorf("%s: no IterationDone events", alg.Name())
		}
		if !sawModel {
			t.Errorf("%s: no ModelTrained events", alg.Name())
		}
		if measured != len(res.Samples) {
			t.Errorf("%s: trace measured %d samples, result has %d",
				alg.Name(), measured, len(res.Samples))
		}
	}
}

// TestCEALTraceSwitchAndBias checks that CEAL's control decisions surface
// in the trace: every run with enough iterations carries SwitchDecision
// verdicts, and across a handful of seeds at least one run triggers the
// bias-escape top-up.
func TestCEALTraceSwitchAndBias(t *testing.T) {
	sawSwitch, sawBias := false, false
	for seed := uint64(1); seed <= 20 && !(sawSwitch && sawBias); seed++ {
		rec := events.NewRecorder()
		p := synthProblem(seed, 250)
		p.Observer = rec
		res, err := NewCEAL().Tune(p, 40)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		switched := false
		for _, e := range rec.Events() {
			switch ev := e.(type) {
			case *events.SwitchDecision:
				sawSwitch = true
				if ev.Switched {
					switched = true
				}
			case *events.BiasEscape:
				sawBias = true
				if ev.Added <= 0 {
					t.Errorf("seed %d: BiasEscape.Added = %d", seed, ev.Added)
				}
			}
		}
		if switched != (res.SwitchIteration >= 0) {
			t.Errorf("seed %d: trace switched=%v, result SwitchIteration=%d",
				seed, switched, res.SwitchIteration)
		}
	}
	if !sawSwitch {
		t.Error("no SwitchDecision events across 20 seeds")
	}
	if !sawBias {
		t.Error("no BiasEscape events across 20 seeds")
	}
}

// panicObserver crashes on every event — the worst-behaved trace consumer.
type panicObserver struct{}

func (panicObserver) OnEvent(events.Event) { panic("observer crash") }

// TestLoopObserverPanicIsolated runs every algorithm with an observer that
// panics on each event and checks the Result is byte-identical to the
// unobserved run: a crashing trace consumer must never corrupt tuning.
func TestLoopObserverPanicIsolated(t *testing.T) {
	const (
		seed   = 11
		pool   = 200
		budget = 18
	)
	for _, alg := range allAlgorithms() {
		ref := synthProblem(seed, pool)
		want, err := alg.Tune(ref, budget)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		p := synthProblem(seed, pool)
		p.Observer = panicObserver{}
		got, err := alg.Tune(p, budget)
		if err != nil {
			t.Fatalf("%s with panicking observer: %v", alg.Name(), err)
		}
		if got.Best.Key() != want.Best.Key() ||
			got.SwitchIteration != want.SwitchIteration ||
			len(got.Samples) != len(want.Samples) {
			t.Errorf("%s: panicking observer changed the result", alg.Name())
		}
		for i := range want.PoolScores {
			if math.Float64bits(got.PoolScores[i]) != math.Float64bits(want.PoolScores[i]) {
				t.Errorf("%s: PoolScores diverged at %d with panicking observer", alg.Name(), i)
				break
			}
		}
	}
}

// TestFinishDegenerateFallback checks the no-measurements path. In finish,
// the recommendation falls back to the model's pool argmin, nothing is
// charged, and the trace carries the Fallback event with that index. In
// the Loop, a warm-started run with no budget measures nothing, so it
// scores the pool for that fallback even with ScorePool off.
func TestFinishDegenerateFallback(t *testing.T) {
	p := synthProblem(5, 50)
	scores := make([]float64, len(p.Pool))
	for i := range scores {
		scores[i] = float64(10 + i)
	}
	scores[7] = 1 // argmin
	rec := events.NewRecorder()
	res := finish(p, scores, nil, nil, -1, &State{obs: rec})
	if res.Best.Key() != p.Pool[7].Key() {
		t.Errorf("Best = %v, want pool argmin %v", res.Best, p.Pool[7])
	}
	if res.CollectionCost != 0 {
		t.Errorf("cost without samples = %v", res.CollectionCost)
	}
	evs := rec.Events()
	if len(evs) != 1 {
		t.Fatalf("%d events, want 1 Fallback", len(evs))
	}
	fb, ok := evs[0].(*events.Fallback)
	if !ok || fb.PoolIndex != 7 {
		t.Errorf("event = %#v, want Fallback{PoolIndex: 7}", evs[0])
	}
	// A nil State (direct callers outside the Loop) must not panic.
	if res := finish(p, scores, nil, nil, -1, nil); res.Best.Key() != p.Pool[7].Key() {
		t.Errorf("nil-state finish Best = %v", res.Best)
	}

	donor := synthProblem(4, 50)
	prior, err := measureBatch(donor, donor.Pool[:10])
	if err != nil {
		t.Fatal(err)
	}
	p.ScorePool = false
	p.Warm = &WarmStart{Samples: prior}
	rec = events.NewRecorder()
	p.Observer = rec
	res, err = NewAL().Tune(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 0 || len(res.PoolScores) != len(p.Pool) {
		t.Fatalf("zero-budget run: %d samples, %d pool scores", len(res.Samples), len(res.PoolScores))
	}
	argmin := metrics.TopIndices(1, res.PoolScores)[0]
	if res.Best.Key() != p.Pool[argmin].Key() {
		t.Errorf("zero-budget Best = %v, want pool argmin %v", res.Best, p.Pool[argmin])
	}
	fallbacks := 0
	for _, e := range rec.Events() {
		if fb, ok := e.(*events.Fallback); ok {
			fallbacks++
			if fb.PoolIndex != argmin {
				t.Errorf("Fallback{PoolIndex: %d}, want %d", fb.PoolIndex, argmin)
			}
		}
	}
	if fallbacks != 1 {
		t.Errorf("%d Fallback events, want 1", fallbacks)
	}
}

// TestFinishCopiesSamples checks the Result owns its slices: mutating the
// caller's sample slices after finish must not leak into the Result.
func TestFinishCopiesSamples(t *testing.T) {
	p := synthProblem(5, 50)
	samples := []Sample{{Cfg: p.Pool[0], Value: 2}, {Cfg: p.Pool[1], Value: 3}}
	comp := [][]Sample{{{Cfg: p.Pool[2], Value: 5}}}
	res := finish(p, make([]float64, len(p.Pool)), samples, comp, -1, nil)
	samples[0] = Sample{Cfg: p.Pool[3], Value: -1}
	comp[0][0] = Sample{Cfg: p.Pool[4], Value: -1}
	if res.Samples[0].Value != 2 || res.Samples[0].Cfg.Key() != p.Pool[0].Key() {
		t.Error("Result.Samples aliases the caller's slice")
	}
	if res.ComponentSamples[0][0].Value != 5 {
		t.Error("Result.ComponentSamples aliases the caller's slices")
	}
	if res.CollectionCost != 2+3+5 {
		t.Errorf("CollectionCost = %v, want 10", res.CollectionCost)
	}
}

// TestPoolTrackerEdgeCases covers the tracker's clamping and exhaustion
// behaviour: oversized and non-positive requests, a fully drained pool,
// and tie-breaking consistency with metrics.TopIndices.
func TestPoolTrackerEdgeCases(t *testing.T) {
	p := synthProblem(9, 20)
	byIndex := func(idxs []int, out []float64, _ float64) {
		for i, idx := range idxs {
			out[i] = float64(idx)
		}
	}

	t.Run("takeTop oversized request clamps to remaining", func(t *testing.T) {
		tr := newPoolTracker(p)
		got := tr.takeTop(len(p.Pool)+10, byIndex)
		if len(got) != len(p.Pool) {
			t.Fatalf("took %d configs, want %d", len(got), len(p.Pool))
		}
		if tr.left() != 0 {
			t.Errorf("left() = %d after draining, want 0", tr.left())
		}
	})

	t.Run("takeTop non-positive request is a no-op", func(t *testing.T) {
		tr := newPoolTracker(p)
		for _, n := range []int{0, -3} {
			if got := tr.takeTop(n, byIndex); got != nil {
				t.Errorf("takeTop(%d) = %v, want nil", n, got)
			}
			if tr.left() != len(p.Pool) {
				t.Errorf("takeTop(%d) consumed the pool: left() = %d", n, tr.left())
			}
		}
	})

	t.Run("exhausted pool yields empty batches", func(t *testing.T) {
		tr := newPoolTracker(p)
		rng := newTestRNG(1)
		if got := tr.takeRandom(len(p.Pool), rng); len(got) != len(p.Pool) {
			t.Fatalf("takeRandom drained %d, want %d", len(got), len(p.Pool))
		}
		if got := tr.takeRandom(5, rng); len(got) != 0 {
			t.Errorf("takeRandom on empty pool returned %d configs", len(got))
		}
		if got := tr.takeTop(5, byIndex); len(got) != 0 {
			t.Errorf("takeTop on empty pool returned %d configs", len(got))
		}
	})

	t.Run("tie-break matches metrics.TopIndices", func(t *testing.T) {
		// All-tied scores: takeTop must pick the same configurations, in the
		// same order, as the recall metric's ranking (ties break by index).
		tied := func(idxs []int, out []float64, _ float64) {
			for i := range out {
				out[i] = 0
			}
		}
		tr := newPoolTracker(p)
		got := tr.takeTop(7, tied)
		want := metrics.TopIndices(7, make([]float64, len(p.Pool)))
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("pick %d: takeTop chose %d, TopIndices says %d", i, got[i], want[i])
			}
		}
	})
}
