package tuner

import (
	"fmt"
	"math"
	"sync/atomic"

	"ceal/internal/cfgspace"
	"ceal/internal/ml/xgb"
	"ceal/internal/score"
	"ceal/internal/tuner/events"
)

// Surrogate is the high-fidelity workflow model M_H: a boosted-tree
// regressor over configuration features. Targets are strictly positive
// times, so training happens in log space — trees then optimize relative
// error, which is what ranking good configurations needs. Batch
// prediction fans across the problem's scoring engine over the candidate
// pool's rank codes (score.Codes), built once per run, which is all the
// pool a surrogate ever holds. Refits run on one xgb.Trainer, which
// reuses its storage and the arrays of the model each refit replaces.
type Surrogate struct {
	feats   func(cfgspace.Config) []float64
	width   int // len(feats(cfg))
	model   *xgb.Model
	trainer *xgb.Trainer
	eng     *score.Engine
	codes   func(pool []cfgspace.Config) (*score.Codes, error) // the pool's rank codes, built once

	// Work so far: split candidates its fits scanned, and the tree nodes
	// and abandoned rows of its pool scorers' walks.
	scanned          int64
	nodes, abandoned atomic.Int64
}

// newSurrogate builds an untrained surrogate over the problem's declared
// workflow columns, sharing the problem's pool codes.
func newSurrogate(p *Problem) *Surrogate {
	coder := p.Space.Columns()
	return &Surrogate{feats: coder.Features, width: coder.Width(), trainer: xgb.NewTrainer(p.engine()), eng: p.engine(), codes: p.poolCodes}
}

// newFeatureSurrogate builds a surrogate over a custom featurizer of width
// columns (ALpH appends component-model predictions, which no declaration
// bounds), coding its pool by discovery (score.QuantizeRows) once a pool.
func newFeatureSurrogate(p *Problem, width int, feats func(cfgspace.Config) []float64) *Surrogate {
	s := &Surrogate{feats: feats, width: width, trainer: xgb.NewTrainer(p.engine()), eng: p.engine()}
	var coded []cfgspace.Config
	var q *score.Codes
	s.codes = func(pool []cfgspace.Config) (*score.Codes, error) {
		if q != nil && q.N == len(pool) && (q.N == 0 || &coded[0] == &pool[0]) {
			return q, nil
		}
		rows := make([][]float64, len(pool))
		s.eng.Map(len(pool), func(i int) { rows[i] = feats(pool[i]) })
		if q = score.QuantizeRows(s.eng, rows); q == nil {
			return nil, fmt.Errorf("%w: a feature has more than %d distinct values over the pool", score.ErrWideColumn, score.MaxCodes)
		}
		coded = pool
		return q, nil
	}
	return s
}

// Trained reports whether Train has succeeded at least once.
func (s *Surrogate) Trained() bool { return s.model != nil }

// Train (re)fits the surrogate on the samples: featurize them, fit from
// scratch in log space. A failed fit leaves the previous model in place.
// A successful one hands the model it replaced back to the trainer for
// the next refit: nothing reads it again, as every scorer and accessor
// reads s.model when called.
func (s *Surrogate) Train(samples []Sample) error {
	if len(samples) == 0 {
		return fmt.Errorf("tuner: cannot train surrogate on zero samples")
	}
	m, err := fitLogModel(s.trainer, s.feats, samples)
	if err != nil {
		return err
	}
	s.trainer.Recycle(s.model)
	s.model = m
	s.scanned += m.SplitsScanned()
	return nil
}

// addWork adds the surrogate's work so far to w.
func (s *Surrogate) addWork(w *events.Work) {
	w.SplitsScanned += s.scanned
	w.TreeNodes += s.nodes.Load()
	w.RowsAbandoned += s.abandoned.Load()
}

// fitLogModel is the one way a boosted model is fitted here: featurize the
// samples, take their values to log space, train with the default
// parameters on t.
func fitLogModel(t *xgb.Trainer, feats func(cfgspace.Config) []float64, samples []Sample) (*xgb.Model, error) {
	X := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, smp := range samples {
		X[i] = feats(smp.Cfg)
		y[i] = logTarget(smp.Value)
	}
	return t.Fit(X, y, xgb.DefaultParams())
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
// over its features (normalized; nil if untrained).
func (s *Surrogate) Importance() []float64 {
	if s.model == nil {
		return nil
	}
	return s.model.FeatureImportance(s.width)
}

// PredictPoolInto predicts for every pool configuration into a
// caller-provided slice (len(out) == len(pool)) and returns it, reusing
// the pool codes and fanning ensemble evaluation across the engine. A pool
// that cannot be coded is refused (score.ErrWideColumn,
// *score.OffLatticeError).
func (s *Surrogate) PredictPoolInto(pool []cfgspace.Config, out []float64) ([]float64, error) {
	if s.model == nil {
		panic("tuner: PredictPoolInto on untrained surrogate")
	}
	q, err := s.codes(pool)
	if err != nil {
		return nil, err
	}
	s.model.PredictBatchQuantizedOnInto(s.eng, q, out)
	for i, v := range out {
		out[i] = unlogTarget(v)
	}
	return out, nil
}

// poolScorer returns a candidate scorer over p.Pool indices backed by the
// pool codes, so per-iteration ranking never recodes the pool. The fused
// selector supplies the parallelism and its cut-off, finite from the first
// block after a chunk's first n candidates: a candidate stops descending
// at the first tree after which its prediction is certain to land above it
// (xgb.Model.PredictCodedBounded) and reports +Inf; all others score
// bitwise as Predict does. A pool that cannot be coded is refused, as by
// PredictPoolInto.
func (s *Surrogate) poolScorer(p *Problem) (poolScorer, error) {
	if s.model == nil {
		panic("tuner: poolScorer on untrained surrogate")
	}
	q, err := s.codes(p.Pool)
	if err != nil {
		return nil, err
	}
	return func(idxs []int, out []float64, worst float64) {
		nodes, abandoned := s.model.PredictCodedBounded(q, idxs, out, logCutoff(worst))
		s.nodes.Add(int64(nodes))
		s.abandoned.Add(int64(abandoned))
		for j, v := range out {
			out[j] = unlogTarget(v)
		}
	}, nil
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
