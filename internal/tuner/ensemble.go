package tuner

import (
	"math"

	"ceal/internal/cfgspace"
	"ceal/internal/metrics"
	"ceal/internal/ml/forest"
	"ceal/internal/ml/knn"
	"ceal/internal/ml/linear"
)

// The paper's §8.2 discusses Didona et al.'s three white+black ensemble
// strategies and argues they fit in-situ workflow auto-tuning worse than
// bootstrapping. HyBoost and KNNSelect implement two of them as runnable
// ablations against CEAL.

// whiteBlack is what the two ensembles share: the AL-family schedule over
// mix, the embedding strategy's per-configuration prediction that combines
// the Phase-1 analytical model with learned members. mix receives the
// analytical model's score am for the configuration alongside it: pool
// configurations read it from the Phase-1 cache instead of re-evaluating
// the frozen model per query.
type whiteBlack struct {
	alBatches
	cm  *componentModels
	mix func(cfg cfgspace.Config, am float64) float64
}

func (s *whiteBlack) init(mix func(cfgspace.Config, float64) float64) {
	s.mix = mix
	s.rank = func(st *State) poolScorer {
		p := st.Problem
		am := s.cm.poolScores(p)
		return func(idxs []int, out []float64, _ float64) {
			for j, idx := range idxs {
				out[j] = mix(p.Pool[idx], am[idx])
			}
		}
	}
}

func (s *whiteBlack) ModelName() string { return "ensemble" }

func (s *whiteBlack) Bootstrap(st *State) ([][]Sample, error) {
	cm, err := bootstrapComponents(st, componentFrac, st.Problem.hasHistory())
	if err != nil {
		return nil, err
	}
	s.cm = cm
	return cm.newSamples, nil
}

// FinalScores fans mix across the engine: between refits every member
// model is read-only.
func (s *whiteBlack) FinalScores(st *State) ([]float64, error) {
	p := st.Problem
	am := s.cm.poolScores(p)
	return p.engine().Floats(len(p.Pool), func(i int) float64 {
		return s.mix(p.Pool[i], am[i])
	}), nil
}

// HyBoost combines the analytical model with ML by learning the AM's
// residual errors (§8.2): prediction = ACM(c) corrected by a boosted-tree
// model of log(y/ACM(c)). Sample selection is active learning over the
// combined model.
type HyBoost struct{}

// NewHyBoost returns HyBoost.
func NewHyBoost() *HyBoost { return &HyBoost{} }

// Name returns the algorithm name.
func (*HyBoost) Name() string { return "HyBoost" }

// Tune implements Algorithm.
func (*HyBoost) Tune(p *Problem, budget int) (*Result, error) {
	s := &hyBoostStrategy{}
	s.init(s.predict)
	loop := &Loop{Algorithm: "HyBoost", Salt: saltENS, Iterations: alIterations, Strategy: s}
	return loop.Run(p, budget)
}

// hyBoostStrategy: ACM × learned residual correction.
type hyBoostStrategy struct {
	whiteBlack
	corrector *Surrogate
}

func (s *hyBoostStrategy) predict(cfg cfgspace.Config, base float64) float64 {
	if base < 1e-12 {
		base = 1e-12
	}
	if s.corrector == nil || !s.corrector.Trained() {
		return base
	}
	return base * s.corrector.Predict(cfg)
}

func (s *hyBoostStrategy) Fit(st *State, _ []Sample) (bool, error) {
	// Residuals in ratio space: y / ACM(c).
	samples := st.Samples
	resid := make([]Sample, len(samples))
	for i, smp := range samples {
		base := s.cm.lowFi.Score(smp.Cfg)
		if base < 1e-12 {
			base = 1e-12
		}
		resid[i] = Sample{Cfg: smp.Cfg, Value: smp.Value / base}
	}
	if s.corrector == nil {
		s.corrector = newSurrogate(st.Problem)
	}
	return true, s.corrector.Train(resid)
}

// ModelRounds reports the residual corrector's round count for the
// ModelTrained trace event.
func (s *hyBoostStrategy) ModelRounds() int { return s.corrector.Rounds() }

// knnK is the neighbour count of KNNSelect's per-query selector and of its
// KNN candidate (Didona et al.'s KNN ensemble).
const knnK = 5

// KNNSelect is the Didona-style ensemble (§8.2): the measured samples are
// evenly divided into a training and a test half; an analytical model plus
// several ML regressors trained on the training half are candidates, and
// for each query configuration the model with the lowest error on the K
// nearest *test* configurations makes the prediction.
type KNNSelect struct{}

// NewKNNSelect returns KNNSelect.
func NewKNNSelect() *KNNSelect { return &KNNSelect{} }

// Name returns the algorithm name.
func (*KNNSelect) Name() string { return "KNNSelect" }

// Tune implements Algorithm.
func (*KNNSelect) Tune(p *Problem, budget int) (*Result, error) {
	s := &knnSelectStrategy{space: p.Space}
	s.init(s.predict)
	loop := &Loop{Algorithm: "KNNSelect", Salt: saltENS ^ 0x4b4e4e, Iterations: alIterations, Strategy: s}
	return loop.Run(p, budget)
}

// knnSelectCandidate is one model competing for each query. predict
// receives the analytical model's score for cfg, which is the ACM
// candidate's whole prediction.
type knnSelectCandidate struct {
	name    string
	predict func(cfg cfgspace.Config, am float64) float64
}

// knnSelectStrategy: the per-query model selector.
type knnSelectStrategy struct {
	whiteBlack
	space     *cfgspace.Space
	cands     []knnSelectCandidate
	nn        *knn.Regressor // neighbour finder over the test half
	test      []Sample       // held-out half used to select among candidates
	testAM    []float64      // analytical-model score of each test configuration
	xgbRounds int            // boosted candidate's rounds, for the trace
}

// Fit is Didona's refit: shuffle, half trains the candidates, half scores
// them per query (§8.2).
func (s *knnSelectStrategy) Fit(st *State, _ []Sample) (bool, error) {
	p := st.Problem
	measured := st.Samples
	perm := st.Rng.Perm(len(measured))
	var train []Sample
	s.test = s.test[:0]
	for i, idx := range perm {
		if i%2 == 0 || len(measured) < 4 {
			train = append(train, measured[idx])
		} else {
			s.test = append(s.test, measured[idx])
		}
	}
	if len(s.test) == 0 {
		s.test = train
	}
	X := make([][]float64, len(train))
	ylog := make([]float64, len(train))
	Xn := make([][]float64, len(train))
	y := make([]float64, len(train))
	for i, smp := range train {
		X[i] = p.features(smp.Cfg)
		ylog[i] = logTarget(smp.Value)
		Xn[i] = p.Space.Normalized(smp.Cfg)
		y[i] = smp.Value
	}
	// Neighbour finder over the TEST half.
	Xt := make([][]float64, len(s.test))
	yt := make([]float64, len(s.test))
	s.testAM = s.testAM[:0]
	for i, smp := range s.test {
		Xt[i] = p.Space.Normalized(smp.Cfg)
		yt[i] = smp.Value
		s.testAM = append(s.testAM, s.cm.lowFi.Score(smp.Cfg))
	}
	fp := forest.DefaultParams()
	fp.Seed = p.Seed

	// Candidate trainings are independent, so they fan across the engine as
	// whole-model tasks; each writes only its own slot, errors are inspected
	// in the fixed candidate order below, and the heavyweight members keep
	// their inner training serial (nil engine) rather than nesting fan-outs.
	var (
		nnErr   error
		xgbSurr = newSurrogate(p)
		xgbErr  error
		fst     *forest.Forest
		fstErr  error
		rr      *linear.Ridge
		rrErr   error
		kr      *knn.Regressor
		krErr   error
	)
	p.engine().Tasks(5, func(i int) {
		switch i {
		case 0:
			s.nn, nnErr = knn.Fit(Xt, yt, knnK)
		case 1:
			xgbErr = xgbSurr.Train(train)
		case 2:
			fst, fstErr = forest.FitOn(nil, X, ylog, fp)
		case 3:
			rr, rrErr = linear.FitRidge(X, ylog, 1.0)
		case 4:
			kr, krErr = knn.Fit(Xn, y, knnK)
		}
	})
	if nnErr != nil {
		return false, nnErr
	}
	s.cands = []knnSelectCandidate{{name: "ACM", predict: func(_ cfgspace.Config, am float64) float64 { return am }}}
	if xgbErr != nil {
		return false, xgbErr
	}
	s.xgbRounds = xgbSurr.Rounds()
	s.cands = append(s.cands, knnSelectCandidate{name: "XGB", predict: func(cfg cfgspace.Config, _ float64) float64 {
		return xgbSurr.Predict(cfg)
	}})
	if fstErr == nil {
		s.cands = append(s.cands, knnSelectCandidate{name: "RF", predict: func(cfg cfgspace.Config, _ float64) float64 {
			return unlogTarget(fst.Predict(p.features(cfg)))
		}})
	}
	if rrErr == nil {
		s.cands = append(s.cands, knnSelectCandidate{name: "Ridge", predict: func(cfg cfgspace.Config, _ float64) float64 {
			return unlogTarget(rr.Predict(p.features(cfg)))
		}})
	}
	if krErr == nil {
		s.cands = append(s.cands, knnSelectCandidate{name: "KNN", predict: func(cfg cfgspace.Config, _ float64) float64 {
			return kr.Predict(p.Space.Normalized(cfg))
		}})
	}
	return true, nil
}

// ModelRounds reports the boosted candidate's round count for the
// ModelTrained trace event.
func (s *knnSelectStrategy) ModelRounds() int { return s.xgbRounds }

func (s *knnSelectStrategy) predict(cfg cfgspace.Config, am float64) float64 {
	nbrs := s.nn.Neighbors(s.space.Normalized(cfg))
	bestErr := math.Inf(1)
	bestVal := 0.0
	for _, cand := range s.cands {
		errSum := 0.0
		for _, idx := range nbrs {
			errSum += metrics.APE(s.test[idx].Value, cand.predict(s.test[idx].Cfg, s.testAM[idx]))
		}
		if errSum < bestErr {
			bestErr = errSum
			bestVal = cand.predict(cfg, am)
		}
	}
	return bestVal
}
