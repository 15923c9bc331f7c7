package paperexp

import (
	"fmt"

	"ceal/internal/metrics"
	"ceal/internal/score"
	"ceal/internal/tuner"
	"ceal/internal/tuner/events"
)

// RunSpec is what one battery varies: a benchmark ground truth, an
// objective, a training-sample budget, and the algorithms to compare.
type RunSpec struct {
	GT          *GroundTruth
	Obj         Objective
	Budget      int
	WithHistory bool
	Algorithms  []tuner.Algorithm
	// Observe optionally supplies a run-event observer per (replication,
	// algorithm) tuning run — the hook convergence-curve experiments use to
	// record per-iteration best-so-far trajectories. It may return nil to
	// skip a run. Replications run concurrently under Options.Workers > 1,
	// so the hook itself must be safe for concurrent calls; each returned
	// observer is only used by its own run.
	Observe func(rep int, alg string) events.Observer
}

// AlgStats aggregates one algorithm's results over the replications.
type AlgStats struct {
	Name string
	// NormPerf is the measured performance of each replication's best
	// predicted configuration, normalized to the pool best (>= 1; the
	// dashed "1" lines in Figs. 5, 9, 10).
	NormPerf []float64
	// Recall[n-1] holds the top-n recall scores (n = 1..10) of the final
	// model over the pool, per replication.
	Recall [10][]float64
	// MdAPEAll and MdAPETop2 are the final model's median absolute
	// percentage errors over the whole pool and over the top 2% (Fig. 6).
	MdAPEAll  []float64
	MdAPETop2 []float64
	// Spearman is the rank correlation between the final model's pool
	// scores and the measured truth, per replication.
	Spearman []float64
	// LNU is the least number of uses (§7.2.3) per replication.
	LNU []float64
	// Cost is the data-collection cost per replication (metric units).
	Cost []float64
	// SwitchIter records CEAL's model-switch iteration per replication.
	SwitchIter []int
}

// MeanNormPerf returns the replication-mean normalized performance.
func (s *AlgStats) MeanNormPerf() float64 { return metrics.Mean(s.NormPerf) }

// MeanRecall returns the replication-mean top-n recall (n in 1..10).
func (s *AlgStats) MeanRecall(n int) float64 { return metrics.Mean(s.Recall[n-1]) }

// MedianLNU returns the replication-median least number of uses. The
// median is used because a single no-improvement replication yields +Inf.
func (s *AlgStats) MedianLNU() float64 { return metrics.Median(s.LNU) }

// RunBattery tunes with every algorithm over opt.reps() replications —
// replication r seeded opt.Seed+r, fanned across opt.Workers goroutines and
// cancelled by opt.Ctx — and aggregates the paper's metrics. Each
// replication scores its pool serially: the replications already saturate
// the machine. Results are identical for any worker count.
func RunBattery(opt Options, spec RunSpec) ([]*AlgStats, error) {
	reps := opt.reps()
	truth := spec.GT.Values(spec.Obj)
	best := spec.GT.Best(spec.Obj)
	expert := spec.GT.Expert(spec.Obj)

	// Top 2% of the pool by true performance, for the MdAPE split (Fig. 6).
	top2n := len(truth) * 2 / 100
	if top2n < 1 {
		top2n = 1
	}
	top2 := metrics.TopIndices(top2n, truth)

	// Each replication writes only its own index of every slot, and the
	// lowest-index failure wins, so the outcome is scheduling-independent.
	stats := make([]*AlgStats, len(spec.Algorithms))
	for i, alg := range spec.Algorithms {
		st := &AlgStats{Name: alg.Name(), SwitchIter: make([]int, reps)}
		for _, slots := range []*[]float64{&st.NormPerf, &st.MdAPEAll, &st.MdAPETop2, &st.Spearman, &st.LNU, &st.Cost} {
			*slots = make([]float64, reps)
		}
		for n := range st.Recall {
			st.Recall[n] = make([]float64, reps)
		}
		stats[i] = st
	}
	runRep := func(rep int) error {
		if opt.Ctx != nil {
			if err := opt.Ctx.Err(); err != nil {
				return err
			}
		}
		problem := spec.GT.Problem(Options{Ctx: opt.Ctx}, spec.Obj, spec.WithHistory, opt.Seed+uint64(rep)) // scores serially
		// Recall, MdAPE and Spearman read the final model's pool scores.
		problem.ScorePool = true
		for i, alg := range spec.Algorithms {
			problem.Observer = nil
			if spec.Observe != nil {
				problem.Observer = spec.Observe(rep, alg.Name())
			}
			res, err := alg.Tune(problem, spec.Budget)
			if err != nil {
				return fmt.Errorf("paperexp: %s on %s (rep %d): %w", alg.Name(), problem.Name, rep, err)
			}
			actual, err := spec.GT.Lookup(res.Best, spec.Obj)
			if err != nil {
				return err
			}
			st := stats[i]
			st.NormPerf[rep] = actual / best
			st.MdAPEAll[rep] = metrics.MdAPE(truth, res.PoolScores)
			st.Spearman[rep] = metrics.Spearman(res.PoolScores, truth)
			st.LNU[rep] = metrics.LeastNumberOfUses(res.CollectionCost, expert, actual)
			st.Cost[rep] = res.CollectionCost
			st.SwitchIter[rep] = res.SwitchIteration
			for n := 1; n <= 10; n++ {
				st.Recall[n-1][rep] = metrics.RecallScore(n, res.PoolScores, truth)
			}
			at := make([]float64, len(top2))
			pt := make([]float64, len(top2))
			for k, idx := range top2 {
				at[k] = truth[idx]
				pt[k] = res.PoolScores[idx]
			}
			st.MdAPETop2[rep] = metrics.MdAPE(at, pt)
		}
		return nil
	}

	errs := make([]error, reps)
	score.New(opt.Workers).Tasks(reps, func(rep int) { errs[rep] = runRep(rep) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return stats, nil
}
