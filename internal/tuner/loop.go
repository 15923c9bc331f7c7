package tuner

import (
	"fmt"
	"math/rand/v2"
	"time"

	"ceal/internal/cfgspace"
	"ceal/internal/collector"
	"ceal/internal/ml/xgb"
	"ceal/internal/tuner/events"
)

// This file is the shared run engine behind every algorithm: the explicit
// realisation of the paper's collector / modeler / searcher cycle (§2.2).
// The Loop owns the run skeleton — budget accounting, the poolTracker,
// measurement batching through the problem's collector, observer emission
// and final Result assembly — and an algorithm plugs in as one Strategy
// value: it chooses the seed batch and each refinement batch, refits its
// model after every measured batch and finishes the run. What
// only some algorithms need (Phase-1 component models, warm-start seeding,
// CEAL's post-measurement control, feature importance, a model label for
// the trace) is an optional method the Loop finds on that same value.
//
// Every step is announced on the problem's events.Observer (nil = zero-cost:
// event values are only constructed when an observer is attached), giving
// all eight algorithms one replayable trace format.

// State is the run context the Loop shares with its strategies. Strategies
// may read everything and consume Rng; only the fields documented as
// strategy-writable should be mutated.
type State struct {
	Problem *Problem
	// Rng is the algorithm's salted random stream. All strategy randomness
	// must flow from it to keep runs reproducible from Problem.Seed.
	Rng *rand.Rand
	// Tracker manages the not-yet-measured portion of the pool.
	Tracker *poolTracker
	// Budget is the remaining workflow-run allowance. It starts at Tune's
	// budget; a Bootstrapper reduces it by the component runs it charged
	// (strategy-writable, from Bootstrap only).
	Budget int
	// Samples are the workflow measurements so far, in measurement order.
	// Owned by the Loop; strategies must not mutate it.
	Samples []Sample
	// Iter is the current iteration: 0 during seeding, then 1..Iterations.
	Iter int
	// SwitchIter records a Controller's model-switch iteration
	// (strategy-writable; -1 = never switched).
	SwitchIter int
	// Prior holds warm-start workflow samples from prior runs (empty on
	// cold runs). It is set by the Loop before invoking a WarmStarter;
	// strategies consume it through TrainingSamples and must not mutate it.
	Prior []Sample

	obs      events.Observer
	bestVal  float64
	bestCfg  cfgspace.Config
	hasBest  bool
	compRuns int
}

// Remaining returns the workflow-run budget not yet spent.
func (s *State) Remaining() int { return s.Budget - len(s.Samples) }

// Observing reports whether an observer is attached. Strategies should
// guard event construction with it so the nil-observer path stays
// allocation-free.
func (s *State) Observing() bool { return s.obs != nil }

// Emit delivers an event to the observer, if any. Observer panics are
// isolated here: a crashing trace consumer never corrupts the run.
func (s *State) Emit(e events.Event) {
	if s.obs == nil {
		return
	}
	defer func() { _ = recover() }()
	s.obs.OnEvent(e)
}

// Strategy is the one seam between the Loop and an algorithm: the
// searcher's two choices and the modeler's two duties. The optional hooks
// below (Bootstrapper, WarmStarter, Controller, Importancer, and the
// ModelRounds trace label) are discovered by type assertion on the same
// value.
type Strategy interface {
	// SeedBatch returns the configurations to measure first (iteration 0).
	// It may take them from st.Tracker and consume st.Rng.
	SeedBatch(st *State) ([]cfgspace.Config, error)
	// SelectBatch chooses one refinement iteration's measurement batch.
	// Returning an empty batch ends the run (budget exhausted, pool
	// drained, or the strategy has nothing left to learn).
	SelectBatch(st *State) ([]cfgspace.Config, error)
	// Fit (re)trains after a batch. fresh holds only the just-measured
	// samples (st.Samples has the cumulative set). The returned bool
	// reports whether a model was actually (re)trained — false suppresses
	// the ModelTrained event for strategies that train lazily (GEIST).
	Fit(st *State, fresh []Sample) (bool, error)
	// Finish completes the final model. With score set it returns that
	// model's prediction for every pool configuration, aligned with
	// Problem.Pool; without, it may return nil and skip the pool pass.
	Finish(st *State, score bool) ([]float64, error)
}

// Controller hooks in after each measured batch, before the refit — the
// seam for CEAL's out-of-sample switch detection and bias escape. It may
// queue work for the next SelectBatch through strategy-internal state and
// may set st.SwitchIter.
type Controller interface {
	AfterMeasure(st *State, batch []Sample)
}

// Bootstrapper runs before seeding: CEAL-family strategies train Phase-1
// component models here. It returns the standalone component samples it
// measured (charged against the budget by reducing st.Budget).
type Bootstrapper interface {
	Bootstrap(st *State) ([][]Sample, error)
}

// Importancer optionally exposes the final model's feature importance.
type Importancer interface {
	FinalImportance(st *State) []float64
}

// Loop is the shared run engine. Algorithms construct one per Tune call
// with their Strategy plugged in and invoke Run.
type Loop struct {
	// Algorithm names the run in RunStarted events.
	Algorithm string
	// Salt decorrelates this algorithm's random stream (see rs.go).
	Salt uint64
	// Iterations bounds the refinement loop (0 = seed batch only:
	// SelectBatch is never called).
	Iterations int

	// Strategy is the algorithm.
	Strategy Strategy
}

// Run drives the collector / modeler / searcher cycle to completion and
// assembles the Result.
func (l *Loop) Run(p *Problem, budget int) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if budget < 0 {
		return nil, fmt.Errorf("tuner: negative measurement budget %d", budget)
	}
	st := &State{
		Problem:    p,
		Rng:        rand.New(rand.NewPCG(p.Seed, l.Salt)),
		Tracker:    newPoolTracker(p),
		Budget:     budget,
		SwitchIter: -1,
		obs:        p.Observer,
	}
	if st.obs != nil {
		st.Emit(&events.RunStarted{
			Algorithm: l.Algorithm,
			Problem:   p.Name,
			Budget:    budget,
			PoolSize:  len(p.Pool),
			Seed:      p.Seed,
		})
	}

	// Phase 1 (optional): component models, charged against the budget.
	var compSamples [][]Sample
	if b, ok := l.Strategy.(Bootstrapper); ok {
		var start time.Time
		if st.obs != nil {
			start = time.Now()
		}
		cs, err := b.Bootstrap(st)
		if err != nil {
			return nil, err
		}
		compSamples = cs
		for _, s := range cs {
			st.compRuns += len(s)
		}
		if st.obs != nil && st.compRuns > 0 {
			// Duration covers the whole bootstrap (component measurement +
			// per-component fits); rounds are per component model.
			st.Emit(&events.ModelTrained{
				Iteration:  0,
				Model:      "low-fidelity",
				Samples:    st.compRuns,
				DurationNS: time.Since(start).Nanoseconds(),
				Rounds:     xgb.DefaultParams().Rounds,
			})
		}
	}

	// Warm start (optional): seed the surrogate from prior-run samples
	// before the first measurement. Component-level warm data was already
	// consumed inside Bootstrap (trainComponentModels); here the workflow
	// samples reach the strategy through the WarmStarter hook.
	if w := p.Warm; !w.Empty() {
		seeded := false
		if len(w.Samples) > 0 {
			if ws, ok := l.Strategy.(WarmStarter); ok {
				st.Prior = w.Samples
				if err := ws.WarmStart(st); err != nil {
					return nil, err
				}
				seeded = true
			}
		}
		if st.obs != nil {
			comp := 0
			for _, cs := range w.ComponentSamples {
				comp += len(cs)
			}
			st.Emit(&events.WarmStarted{
				WorkflowSamples:  len(w.Samples),
				ComponentSamples: comp,
				SurrogateSeeded:  seeded,
			})
		}
	}

	// Seed batch (iteration 0), then the refinement iterations: measure,
	// let the Controller react, refit, report.
	ctl, _ := l.Strategy.(Controller)
	step := func(phase string, cfgs []cfgspace.Config) error {
		batch, err := l.measure(st, phase, cfgs)
		if err != nil {
			return err
		}
		if ctl != nil {
			ctl.AfterMeasure(st, batch)
		}
		if err := l.fit(st, batch); err != nil {
			return err
		}
		l.iterationDone(st)
		return nil
	}
	seed, err := l.Strategy.SeedBatch(st)
	if err != nil {
		return nil, err
	}
	if err := step("seed", seed); err != nil {
		return nil, err
	}
	for it := 1; it <= l.Iterations; it++ {
		st.Iter = it
		cfgs, err := l.Strategy.SelectBatch(st)
		if err != nil {
			return nil, err
		}
		if len(cfgs) == 0 {
			break
		}
		if err := step("refine", cfgs); err != nil {
			return nil, err
		}
	}

	// The full-pool pass is an evaluation, not a tuning step: Best is the
	// best measured sample, so the pool is scored only when the caller
	// evaluates, or when no sample exists and the fallback needs the
	// model's argmin.
	scores, err := l.Strategy.Finish(st, p.ScorePool || len(st.Samples) == 0)
	if err != nil {
		return nil, err
	}
	res := finish(p, scores, st.Samples, compSamples, st.SwitchIter, st)
	if imp, ok := l.Strategy.(Importancer); ok {
		res.Importance = imp.FinalImportance(st)
	}
	if st.obs != nil {
		st.Emit(&events.RunFinished{
			Measured:        len(st.Samples),
			ComponentRuns:   st.compRuns,
			CollectionCost:  res.CollectionCost,
			BestValue:       st.bestVal,
			BestConfig:      res.Best,
			SwitchIteration: res.SwitchIteration,
		})
	}
	return res, nil
}

// measure runs one batch through the problem's caching collector, appends
// the samples to the run state, and tracks the best measured value. The
// BatchMeasured event carries the collector's cache-counter deltas for
// exactly this batch.
func (l *Loop) measure(st *State, phase string, cfgs []cfgspace.Config) ([]Sample, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	p := st.Problem
	var before collector.Stats
	if st.obs != nil {
		st.Emit(&events.BatchSelected{Iteration: st.Iter, Phase: phase, Size: len(cfgs)})
		before = p.Collector().Stats()
	}
	samples, err := measureBatch(p, cfgs)
	if err != nil {
		return nil, err
	}
	st.Samples = append(st.Samples, samples...)
	cost := 0.0
	for _, s := range samples {
		cost += s.Value
		if !st.hasBest || s.Value < st.bestVal {
			st.hasBest = true
			st.bestVal = s.Value
			st.bestCfg = s.Cfg
		}
	}
	if st.obs != nil {
		after := p.Collector().Stats()
		st.Emit(&events.BatchMeasured{
			Iteration:   st.Iter,
			Size:        len(samples),
			CacheHits:   after.Hits - before.Hits,
			CacheMisses: after.Misses - before.Misses,
			Coalesced:   after.Coalesced - before.Coalesced,
			Cost:        cost,
		})
	}
	return samples, nil
}

func (l *Loop) fit(st *State, fresh []Sample) error {
	// Timing only happens when someone is watching: the nil-observer path
	// stays clock-free as well as allocation-free.
	var start time.Time
	if st.obs != nil {
		start = time.Now()
	}
	trained, err := l.Strategy.Fit(st, fresh)
	if err != nil {
		return err
	}
	if trained && st.obs != nil {
		st.Emit(&events.ModelTrained{
			Iteration:  st.Iter,
			Model:      "surrogate",
			Samples:    len(st.Samples),
			DurationNS: time.Since(start).Nanoseconds(),
			Rounds:     l.modelRounds(),
		})
	}
	return nil
}

// modelRounds reads the strategy's fitted-ensemble size when it reports one.
func (l *Loop) modelRounds() int {
	if r, ok := l.Strategy.(interface{ ModelRounds() int }); ok {
		return r.ModelRounds()
	}
	return 0
}

func (l *Loop) iterationDone(st *State) {
	if st.obs == nil {
		return
	}
	e := &events.IterationDone{Iteration: st.Iter, Measured: len(st.Samples), BestValue: st.bestVal}
	if st.hasBest {
		e.BestConfig = st.bestCfg.Clone()
	}
	st.Emit(e)
}
