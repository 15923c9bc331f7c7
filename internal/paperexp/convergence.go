package paperexp

import (
	"fmt"
	"sync"

	"ceal/internal/metrics"
	"ceal/internal/tuner"
	"ceal/internal/tuner/events"
)

// Convergence trajectories go beyond the paper's endpoint-only figures:
// the run-event trace carries every iteration's best-so-far, so the same
// battery that produces Fig. 5-style endpoints can also show HOW each
// algorithm approaches the optimum over its iterations.

// runConvergence records per-iteration best-so-far curves for the §7.4
// comparison set on LV computer time with 50 samples and no histories.
func runConvergence(gts map[string]*GroundTruth, opt Options) ([]*Table, error) {
	gt := gts["LV"]
	const budget = 50
	best := gt.Best(CompTime)
	algs := noHistAlgorithms()

	// One recorder per (replication, algorithm) run; replications fan out
	// across workers, so the registry is locked.
	var mu sync.Mutex
	recs := make(map[string]*events.Recorder)
	key := func(rep int, alg string) string { return fmt.Sprintf("%s#%d", alg, rep) }

	spec := RunSpec{
		GT: gt, Obj: CompTime, Budget: budget, Algorithms: algs,
		Observe: func(rep int, alg string) events.Observer {
			r := events.NewRecorder()
			mu.Lock()
			recs[key(rep, alg)] = r
			mu.Unlock()
			return r
		},
	}
	if _, err := RunBattery(opt, spec); err != nil {
		return nil, err
	}

	// curves[a][rep] is one run's normalized best-so-far per iteration.
	curves := make([][][]float64, len(algs))
	maxIters := 0
	reps := opt.reps()
	for a, alg := range algs {
		curves[a] = make([][]float64, reps)
		for rep := 0; rep < reps; rep++ {
			curve := convergenceCurve(recs[key(rep, alg.Name())], best)
			curves[a][rep] = curve
			if len(curve) > maxIters {
				maxIters = len(curve)
			}
		}
	}

	t := &Table{
		Title:  fmt.Sprintf("Convergence: measured best-so-far vs pool optimum (LV computer time, %d samples, no histories)", budget),
		Header: append([]string{"iteration"}, algNames(algs)...),
	}
	for it := 0; it < maxIters; it++ {
		row := []string{fmt.Sprintf("%d", it)}
		for a := range algs {
			vals := make([]float64, 0, reps)
			for rep := 0; rep < reps; rep++ {
				curve := curves[a][rep]
				if len(curve) == 0 {
					continue
				}
				// A finished run keeps its final best-so-far: shorter
				// curves are carried forward so iteration means compare
				// like with like.
				i := it
				if i >= len(curve) {
					i = len(curve) - 1
				}
				vals = append(vals, curve[i])
			}
			row = append(row, f2(metrics.Mean(vals)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"iteration 0 is the seed batch; values are the measured best-so-far normalized to the pool optimum (1.00 = optimal)",
		"curves are rendered from the run-event trace (IterationDone events), mean over replications")
	return []*Table{t}, nil
}

// convergenceCurve extracts the normalized best-so-far trajectory from one
// run's recorded events.
func convergenceCurve(rec *events.Recorder, best float64) []float64 {
	if rec == nil {
		return nil
	}
	var curve []float64
	for _, e := range rec.Events() {
		if it, ok := e.(*events.IterationDone); ok {
			curve = append(curve, it.BestValue/best)
		}
	}
	return curve
}

func algNames(algs []tuner.Algorithm) []string {
	names := make([]string, len(algs))
	for i, a := range algs {
		names[i] = a.Name()
	}
	return names
}
