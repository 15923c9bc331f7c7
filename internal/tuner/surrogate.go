package tuner

import (
	"fmt"
	"math"

	"ceal/internal/cfgspace"
	"ceal/internal/ml/xgb"
	"ceal/internal/score"
)

// Surrogate is the high-fidelity workflow model M_H: a boosted-tree
// regressor over configuration features. Targets are strictly positive
// times, so training happens in log space — trees then optimize relative
// error, which is what ranking good configurations needs. Batch
// prediction fans across the problem's scoring engine and featurizes the
// candidate pool once per run into cached rank codes (score.Codes), which
// is all the pool a surrogate ever holds.
type Surrogate struct {
	feats func(cfgspace.Config) []float64
	model *xgb.Model
	eng   *score.Engine
	mat   *score.Matrix // featurized-pool cache (shared per problem for the workflow featurizer)
}

// newSurrogate builds an untrained surrogate over the problem's workflow
// features, sharing the problem's featurized-pool cache.
func newSurrogate(p *Problem) *Surrogate {
	return &Surrogate{feats: p.features, eng: p.engine(), mat: &p.poolMat}
}

// newFeatureSurrogate builds a surrogate over a custom featurizer (used by
// ALpH to append component-model predictions to the features), with its
// own pool cache since its rows differ from the problem's.
func newFeatureSurrogate(p *Problem, feats func(cfgspace.Config) []float64) *Surrogate {
	return &Surrogate{feats: feats, eng: p.engine(), mat: &score.Matrix{}}
}

// Trained reports whether Train has succeeded at least once.
func (s *Surrogate) Trained() bool { return s.model != nil }

// Train (re)fits the surrogate on the samples: featurize them, fit from
// scratch in log space. A failed fit leaves the previous model in place.
func (s *Surrogate) Train(samples []Sample) error {
	if len(samples) == 0 {
		return fmt.Errorf("tuner: cannot train surrogate on zero samples")
	}
	m, err := fitLogModel(s.eng, s.feats, samples)
	if err != nil {
		return err
	}
	s.model = m
	return nil
}

// fitLogModel is the one way a boosted model is fitted here: featurize the
// samples, take their values to log space, train with the default
// parameters on the engine (nil: serially).
func fitLogModel(e *score.Engine, feats func(cfgspace.Config) []float64, samples []Sample) (*xgb.Model, error) {
	X := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, smp := range samples {
		X[i] = feats(smp.Cfg)
		y[i] = logTarget(smp.Value)
	}
	return xgb.FitOn(e, X, y, xgb.DefaultParams())
}

// Rounds returns the trained ensemble's boosting-round count (0 if
// untrained) — surfaced in the ModelTrained trace event.
func (s *Surrogate) Rounds() int {
	if s.model == nil {
		return 0
	}
	return s.model.Rounds()
}

// Importance returns the trained model's gain-based feature importance
// over dim features (normalized; nil if untrained).
func (s *Surrogate) Importance(dim int) []float64 {
	if s.model == nil {
		return nil
	}
	return s.model.FeatureImportance(dim)
}

// PredictPoolInto predicts for every pool configuration into a
// caller-provided slice (len(out) == len(pool)) and returns it, reusing
// the cached pool codes and fanning ensemble evaluation across the
// engine.
func (s *Surrogate) PredictPoolInto(pool []cfgspace.Config, out []float64) []float64 {
	if s.model == nil {
		panic("tuner: PredictPoolInto on untrained surrogate")
	}
	s.model.PredictBatchQuantizedOnInto(s.eng, s.mat.Codes(s.eng, pool, s.feats), out)
	for i, v := range out {
		out[i] = unlogTarget(v)
	}
	return out
}

// PredictBatch predicts for an ad-hoc configuration batch (featurized on
// the fly; use PredictPoolInto for the cached full pool).
func (s *Surrogate) PredictBatch(cfgs []cfgspace.Config) []float64 {
	if s.model == nil {
		panic("tuner: PredictBatch on untrained surrogate")
	}
	return s.eng.Floats(len(cfgs), func(i int) float64 {
		return unlogTarget(s.model.PredictRow(s.feats(cfgs[i])))
	})
}

// poolScorer returns a candidate scorer over p.Pool indices backed by the
// surrogate's cached pool codes, so per-iteration ranking never
// re-featurizes the pool. The fused selector supplies the parallelism and
// its cut-off: a candidate stops descending trees once its prediction is
// certain to land above it (xgb.Model.PredictCodedBounded) and reports
// +Inf; all others score bitwise as Predict does. A pool too wide to code
// scores every candidate in full from its float rows.
func (s *Surrogate) poolScorer(p *Problem) poolScorer {
	if s.model == nil {
		panic("tuner: poolScorer on untrained surrogate")
	}
	q := s.mat.Codes(s.eng, p.Pool, s.feats)
	if X := q.FloatRows(); X != nil {
		return func(idxs []int, out []float64, _ float64) {
			for j, idx := range idxs {
				out[j] = unlogTarget(s.model.PredictRow(X[idx]))
			}
		}
	}
	return func(idxs []int, out []float64, worst float64) {
		s.model.PredictCodedBounded(q, idxs, out, logCutoff(worst))
		for j, v := range out {
			out[j] = unlogTarget(v)
		}
	}
}

// logCutoff carries a cut-off on predicted times into the model's log
// space: any log-prediction above the result exponentiates to strictly
// more than worst. math.Log and math.Exp are each accurate to under one
// ulp, so exp(v) > worst is certain once v clears log(worst) by more than
// an ulp of the logarithm (at most 2^-43 across float64's exponent range,
// and as much again for rounding the sum below) plus 2^-51 for the
// exponential's relative error; 1e-9 is three orders above that. Cut-offs
// outside the normal positive range — where those relative bounds stop
// holding — map to +Inf: nothing is abandoned.
func logCutoff(worst float64) float64 {
	if worst < 0x1p-1022 || worst > math.MaxFloat64 {
		return math.Inf(1)
	}
	return math.Log(worst) + 1e-9
}

// logTarget maps a positive time to log space (guarding tiny values).
func logTarget(v float64) float64 {
	if v < 1e-12 {
		v = 1e-12
	}
	return math.Log(v)
}

func unlogTarget(v float64) float64 { return math.Exp(v) }
