package paperexp

import (
	"fmt"

	"ceal/internal/metrics"
	"ceal/internal/tuner"
)

// The warm-start experiment quantifies cross-run transfer learning (the
// history database's payoff): a donor CEAL run tunes each workflow once,
// its measurements are packaged exactly as histdb/live.WarmFromHistory
// would serve them, and fresh cold vs warm runs race to a common quality
// target. The paper's bootstrapping idea applies across runs: component
// samples replace the mR fresh solo runs, workflow samples pre-train the
// Phase-2 surrogate.

// runWarm compares measurements-to-target for cold vs warm CEAL on the
// three paper workflows (computer time, 50 samples).
func runWarm(gts map[string]*GroundTruth, opt Options) ([]*Table, error) {
	const budget = 50
	t := &Table{
		Title:  "Warm start: measurements to reach the cold run's final quality (CEAL, computer time, 50 samples)",
		Header: []string{"wf", "donor samples", "cold m-to-target", "warm m-to-target", "speedup"},
	}
	for _, wf := range []string{"LV", "HS", "GP"} {
		gt := gts[wf]

		// Donor: one completed cold run, its Result packaged the way the
		// history database serves prior measurements to a new same-family run.
		dres, err := tuner.NewCEAL().Tune(gt.Problem(opt, CompTime, false, opt.Seed+10_000), budget)
		if err != nil {
			return nil, err
		}
		warmData := &tuner.WarmStart{Samples: dres.Samples, ComponentSamples: dres.ComponentSamples}

		var coldCosts, warmCosts []float64
		for rep := 0; rep < opt.reps(); rep++ {
			seed := opt.Seed + uint64(rep)

			cres, err := tuner.NewCEAL().Tune(gt.Problem(opt, CompTime, false, seed), budget)
			if err != nil {
				return nil, err
			}

			warm := gt.Problem(opt, CompTime, false, seed)
			warm.Warm = warmData
			wres, err := tuner.NewCEAL().Tune(warm, budget)
			if err != nil {
				return nil, err
			}

			// Target: the looser of the two finals, so both trajectories
			// reach it and the comparison is on speed, not endpoint.
			target := bestMeasured(cres)
			if w := bestMeasured(wres); w > target {
				target = w
			}
			// Cold pays its fresh component runs before the first workflow
			// sample lands (budget equivalents: max runs per component).
			coldCosts = append(coldCosts, measurementsToTarget(cres, target))
			warmCosts = append(warmCosts, measurementsToTarget(wres, target))
		}
		coldMean, warmMean := metrics.Mean(coldCosts), metrics.Mean(warmCosts)
		ratio := coldMean / warmMean
		t.AddRow(wf, fmt.Sprintf("%d wf + %d comp", len(warmData.Samples), totalComponentSamples(warmData)),
			f1(coldMean), f1(warmMean), fmt.Sprintf("%.2fx", ratio))
	}
	t.Notes = append(t.Notes,
		"m-to-target counts budget equivalents: fresh component runs (cold) plus workflow samples, in measurement order, until best-so-far reaches the target",
		"target per replication = max(cold final best, warm final best); donor run seeded separately, as a prior history-DB entry would be",
		"warm runs skip the mR component runs (prior component samples cover Phase-1) and seed the Phase-2 surrogate from prior workflow samples")
	return []*Table{t}, nil
}

// bestMeasured returns the run's final measured best value.
func bestMeasured(res *tuner.Result) float64 {
	best := res.Samples[0].Value
	for _, s := range res.Samples[1:] {
		if s.Value < best {
			best = s.Value
		}
	}
	return best
}

// componentEquivalents is the budget charge of a run's fresh solo component
// runs: the max run count over components (they execute concurrently on
// disjoint allocations, as in the tuner's budget accounting).
func componentEquivalents(res *tuner.Result) float64 {
	m := 0
	for _, cs := range res.ComponentSamples {
		if len(cs) > m {
			m = len(cs)
		}
	}
	return float64(m)
}

// measurementsToTarget walks the run's workflow samples in measurement
// order and returns the cumulative budget spend (fresh component runs, paid
// up front in Phase 1, plus workflow samples) at the first measurement
// whose best-so-far reached the target.
func measurementsToTarget(res *tuner.Result, target float64) float64 {
	spend := componentEquivalents(res)
	for i, s := range res.Samples {
		if s.Value <= target {
			return spend + float64(i+1)
		}
	}
	return spend + float64(len(res.Samples))
}

// totalComponentSamples counts a warm start's component samples.
func totalComponentSamples(w *tuner.WarmStart) int {
	n := 0
	for _, cs := range w.ComponentSamples {
		n += len(cs)
	}
	return n
}
