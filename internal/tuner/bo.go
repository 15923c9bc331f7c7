package tuner

import (
	"math"

	"ceal/internal/ml/forest"
)

// BO is the §9 future-work extension implemented as an ablation: batch
// Bayesian optimization with a bagged-forest surrogate (forest.DefaultParams)
// and the expected-improvement acquisition (in log space), naturally
// tolerant of measurement noise.
type BO struct{}

// NewBO returns BO.
func NewBO() *BO { return &BO{} }

// Name returns the algorithm name.
func (*BO) Name() string { return "BO" }

// Tune implements Algorithm.
func (*BO) Tune(p *Problem, budget int) (*Result, error) {
	s := &boStrategy{}
	s.rank = s.acquisition
	loop := &Loop{Algorithm: "BO", Salt: saltBO, Iterations: alIterations, Strategy: s}
	return loop.Run(p, budget)
}

// boStrategy is the skeleton over a forest surrogate with EI acquisition.
type boStrategy struct {
	alBatches
	f       *forest.Forest
	bestLog float64
}

func (s *boStrategy) ModelName() string { return "forest" }

// acquisition ranks by negative EI so takeTop (which minimizes) picks the
// highest expected improvement. Candidate features come from the problem's
// cached pool matrix, looked up by pool index; the fused selector supplies
// the parallelism.
func (s *boStrategy) acquisition(st *State) poolScorer {
	X := st.Problem.poolFeatures()
	return func(idxs []int, out []float64, _ float64) {
		for j, idx := range idxs {
			mean, std := s.f.PredictWithStd(X[idx])
			out[j] = -expectedImprovement(s.bestLog, mean, std)
		}
	}
}

func (s *boStrategy) Fit(st *State, _ []Sample) (bool, error) {
	p := st.Problem
	samples := st.Samples
	X := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	bestLog := math.Inf(1)
	for i, smp := range samples {
		X[i] = p.features(smp.Cfg)
		y[i] = logTarget(smp.Value)
		if y[i] < bestLog {
			bestLog = y[i]
		}
	}
	params := forest.DefaultParams()
	params.Seed = p.Seed ^ uint64(len(samples))
	f, err := forest.FitOn(p.engine(), X, y, params)
	if err != nil {
		return false, err
	}
	s.f, s.bestLog = f, bestLog
	return true, nil
}

// ModelRounds reports the forest's ensemble size for the ModelTrained
// trace event.
func (s *boStrategy) ModelRounds() int { return s.f.Trees() }

func (s *boStrategy) FinalScores(st *State) ([]float64, error) {
	p := st.Problem
	X := p.poolFeatures()
	return p.engine().Floats(len(p.Pool), func(i int) float64 {
		mean, _ := s.f.PredictWithStd(X[i])
		return unlogTarget(mean)
	}), nil
}

// expectedImprovement is the one-sided EI of a minimization problem under a
// Gaussian posterior (computed in log-target space).
func expectedImprovement(best, mean, std float64) float64 {
	if std <= 1e-12 {
		if mean < best {
			return best - mean
		}
		return 0
	}
	z := (best - mean) / std
	return (best-mean)*stdNormCDF(z) + std*stdNormPDF(z)
}

func stdNormPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

func stdNormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}
