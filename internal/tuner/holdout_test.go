package tuner

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"ceal/internal/acm"
	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
	"ceal/internal/score"
	"ceal/internal/tuner/events"
	"ceal/internal/workflow"
)

// TestHoldoutMatchesFloatRows: the switch detector scores a holdout of
// pool indices from the pool's codes, M_H through the surrogate's pool
// scorer with no cut-off and M_L through ScoreCodes on the holdout's rows.
// On LV, HS and GP under both objectives, at 1 and 4 workers, over random
// index subsets (with a duplicated cell, and sizes that span several
// chunks), both equal bitwise their one-configuration oracles: M_H's
// features through the float walk, and M_L over the holdout's configurations
// coded into a fresh matrix and scored whole.
func TestHoldoutMatchesFloatRows(t *testing.T) {
	for _, b := range workflow.Benchmarks(cluster.Default()) {
		for _, obj := range []workflow.Objective{workflow.ExecTime, workflow.CompTime} {
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s/%s/%d", b.Name, obj.Short(), workers)
				p := benchProblem(b, obj, 2000)
				p.Workers = workers
				cm, err := trainComponentModels(p, 15, newTestRNG(3))
				if err != nil {
					t.Fatal(err)
				}
				samples, err := measureBatch(p, p.Pool[:30])
				if err != nil {
					t.Fatal(err)
				}
				s := newSurrogate(p)
				if err := s.Train(poolState(p, samples)); err != nil {
					t.Fatal(err)
				}
				high, err := s.poolScorer()
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewPCG(uint64(workers), 9))
				for _, n := range []int{1, 3, 7, 40, 300} {
					holdout := make([]int, n)
					for k := range holdout {
						holdout[k] = rng.IntN(len(p.Pool))
					}
					holdout[n-1] = holdout[0]
					cfgs := make([]cfgspace.Config, n)
					for k, i := range holdout {
						cfgs[k] = p.Pool[i]
					}

					gotHigh := make([]float64, n)
					high(holdout, gotHigh, math.Inf(1))
					gotLow, err := cm.scoreRows(p, holdout)
					if err != nil {
						t.Fatal(err)
					}
					var mat score.Matrix
					q, err := mat.Codes(p.engine(), cfgs, p.Space.Columns())
					if err != nil {
						t.Fatal(err)
					}
					wantLow := cm.lowFi.ScoreCodes(p.engine(), q, nil, p.spans(), cfgs)
					for k, cfg := range cfgs {
						if want := s.Predict(cfg); math.Float64bits(gotHigh[k]) != math.Float64bits(want) {
							t.Fatalf("%s n=%d: M_H on pool row %d: %v, float walk %v", label, n, holdout[k], gotHigh[k], want)
						}
						if math.Float64bits(gotLow[k]) != math.Float64bits(wantLow[k]) {
							t.Fatalf("%s n=%d: M_L on pool row %d: %v, fresh matrix %v", label, n, holdout[k], gotLow[k], wantLow[k])
						}
					}
				}
			}
		}
	}
}

// TestWarmSwitchScoresHoldoutCellsOnly: a warm CEAL run that trusts M_H
// from its seed batch and switches at its first check never ranks by M_L,
// so M_L predicts the cells of that check's holdout, the seed batch, and
// never those of the pool.
func TestWarmSwitchScoresHoldoutCellsOnly(t *testing.T) {
	b := workflow.LV(cluster.Default())
	donor := benchProblem(b, workflow.CompTime, 2000)
	prior, err := NewCEAL().Tune(donor, 50)
	if err != nil {
		t.Fatal(err)
	}
	p := benchProblem(b, workflow.CompTime, 2000)
	p.Seed = 2
	p.Warm = &WarmStart{Samples: prior.Samples, ComponentSamples: prior.ComponentSamples}
	rec := events.NewRecorder()
	p.Observer = rec
	s := &cealStrategy{opts: DefaultCEALOptions(true), useHistory: true}
	loop := &Loop{Algorithm: "CEAL", Salt: saltCEAL, Iterations: s.opts.Iterations - 1, Strategy: s}
	res, err := loop.Run(p, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwitchIteration != 0 {
		t.Fatalf("switched at iteration %d, want the first check's 0", res.SwitchIteration)
	}
	seed := -1
	for _, e := range rec.Events() {
		if m, ok := e.(*events.BatchMeasured); ok && m.Iteration == 0 {
			seed = m.Size
		}
	}
	if seed < minHoldout {
		t.Fatalf("seed batch of %d, want at least %d: the first check must come after it", seed, minHoldout)
	}
	if s.cm.pool != nil {
		t.Error("the run scored the whole pool with M_L")
	}

	index := make(map[string]int, len(p.Pool))
	for i, cfg := range p.Pool {
		index[cfg.Key()] = i
	}
	holdout := make([]int, seed)
	for k, smp := range res.Samples[:seed] {
		holdout[k] = index[smp.Cfg.Key()]
	}
	q, err := p.poolCodes(p.Pool)
	if err != nil {
		t.Fatal(err)
	}
	cells := func(rows []int) int64 {
		lf := &acm.LowFidelity{Combine: s.cm.lowFi.Combine, Parts: s.cm.lowFi.Parts}
		lf.ScoreCodes(p.engine(), q, rows, p.spans(), p.Pool)
		return lf.Cells()
	}
	want, pool := cells(holdout), cells(nil)
	if got := s.cm.lowFi.Cells(); got != want {
		t.Errorf("M_L predicted %d cells, want the holdout's %d (the pool has %d)", got, want, pool)
	}
	if want >= pool {
		t.Errorf("the holdout has %d cells and the pool %d: the test tells nothing apart", want, pool)
	}
}
