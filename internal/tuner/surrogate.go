package tuner

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"ceal/internal/cfgspace"
	"ceal/internal/ml/xgb"
	"ceal/internal/score"
	"ceal/internal/tuner/events"
)

// Surrogate is the high-fidelity workflow model M_H: a boosted-tree
// regressor over configuration features. Targets are strictly positive
// times, so training happens in log space — trees then optimize relative
// error, which is what ranking good configurations needs. It fits and
// predicts on the problem pool's rank codes (score.Codes), built once per
// run: the run's samples are pool rows, and warm priors are coded once by
// the declared columns. Batch prediction fans across the problem's
// scoring engine. Refits run on one xgb.Trainer, which reuses its storage
// and the arrays of the model each refit replaces.
type Surrogate struct {
	width   int // features a configuration has
	model   *xgb.Model
	trainer xgb.Trainer
	eng     *score.Engine
	codes   func() (*score.Codes, error) // the pool's rank codes, built once

	// coder declares the columns codes are of, and codes warm priors (nil
	// where codes are discovered, which no prior can share); warm is the
	// pool's configurations then the run's priors', coded on the first fit
	// that has priors.
	coder *cfgspace.Coder
	warm  *score.Codes

	rows []int32   // training rows, reused across refits
	y    []float64 // their log targets

	// Work so far: split candidates its fits scanned, and the tree nodes
	// and abandoned rows of its pool scorers' walks.
	scanned          int64
	nodes, abandoned atomic.Int64
}

// newSurrogate builds an untrained surrogate over the problem's declared
// workflow columns, sharing the problem's pool codes.
func newSurrogate(p *Problem) *Surrogate {
	coder := p.Space.Columns()
	return &Surrogate{
		width: coder.Width(), eng: p.engine(), coder: coder,
		codes: func() (*score.Codes, error) { return p.poolCodes(p.Pool) },
	}
}

// Trained reports whether Train has succeeded at least once.
func (s *Surrogate) Trained() bool { return s.model != nil }

// Train (re)fits the surrogate from scratch in log space on the run's
// training set: its warm priors, then its samples at their pool rows
// (st.Prior, then st.Samples at st.Indices). A failed fit leaves the
// previous model in place. A successful one hands the model it replaced
// back to the trainer for the next refit: nothing reads it again, as every
// scorer and accessor reads s.model when called.
func (s *Surrogate) Train(st *State) error {
	samples := st.TrainingSamples()
	if len(samples) == 0 {
		return fmt.Errorf("tuner: cannot train surrogate on zero samples")
	}
	q, err := s.codes()
	if err != nil {
		return err
	}
	s.rows = s.rows[:0]
	if prior := st.Prior; len(prior) > 0 {
		if s.coder == nil {
			return fmt.Errorf("tuner: a surrogate over discovered codes takes no warm priors")
		}
		if s.warm == nil {
			cfgs := slices.Clip(st.Problem.Pool)
			for _, smp := range prior {
				cfgs = append(cfgs, smp.Cfg)
			}
			if s.warm, err = score.Encode(s.eng, cfgs, s.coder); err != nil {
				return err
			}
		}
		q = s.warm
		for k := range prior {
			s.rows = append(s.rows, int32(q.N-len(prior)+k))
		}
	}
	for _, i := range st.Indices {
		s.rows = append(s.rows, int32(i))
	}
	s.y = logTargets(s.y[:0], samples)
	m, err := s.trainer.Fit(q, s.rows, s.y, xgb.DefaultParams())
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

// logTargets appends the samples' values in log space, the targets every
// model here is fitted on, to dst.
func logTargets(dst []float64, samples []Sample) []float64 {
	for _, smp := range samples {
		dst = append(dst, logTarget(smp.Value))
	}
	return dst
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
// caller-provided slice (len(out) == len(Problem.Pool)) and returns it,
// reusing the pool codes and fanning ensemble evaluation across the
// engine. A pool that cannot be coded is refused (score.ErrWideColumn,
// *score.OffLatticeError).
func (s *Surrogate) PredictPoolInto(out []float64) ([]float64, error) {
	if s.model == nil {
		panic("tuner: PredictPoolInto on untrained surrogate")
	}
	q, err := s.codes()
	if err != nil {
		return nil, err
	}
	s.model.PredictCodes(s.eng, q, out)
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
// bitwise as PredictPoolInto does. A pool that cannot be coded is refused,
// as by PredictPoolInto.
func (s *Surrogate) poolScorer() (poolScorer, error) {
	if s.model == nil {
		panic("tuner: poolScorer on untrained surrogate")
	}
	q, err := s.codes()
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
