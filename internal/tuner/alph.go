package tuner

import (
	"fmt"

	"ceal/internal/acm"
	"ceal/internal/score"
	"ceal/internal/tuner/events"
)

// ALpH is the black-box component-combining variant of §4: instead of
// folding component predictions with an analytical function, it learns the
// combining model M'_0 from training tuples {c, {v_j}, v} — configuration
// features extended with the component models' predictions — and runs
// batch active learning over that model. It is CEAL's ablation for the
// white-box combination choice (§7.5).
type ALpH struct{}

// NewALpH returns ALpH.
func NewALpH() *ALpH { return &ALpH{} }

// Name returns the algorithm name.
func (*ALpH) Name() string { return "ALpH" }

// Tune implements Algorithm.
func (*ALpH) Tune(p *Problem, budget int) (*Result, error) {
	s := &alphStrategy{}
	loop := &Loop{Algorithm: "ALpH", Salt: saltALpH, Iterations: alIterations, Strategy: s}
	return loop.Run(p, budget)
}

// alphStrategy is the skeleton over the learned combining model M'_0,
// which Bootstrap builds once the component models exist.
type alphStrategy struct {
	alBatches
	cm *componentModels
}

func (s *alphStrategy) addWork(w *events.Work) {
	s.surrogateBacked.addWork(w)
	s.cm.addWork(w)
}

func (s *alphStrategy) Bootstrap(st *State) ([][]Sample, error) {
	p := st.Problem
	cm, err := bootstrapComponents(st, componentFrac, p.hasHistory())
	if err != nil {
		return nil, err
	}
	s.cm = cm
	s.model = newSurrogate(p)
	s.model.width += len(cm.lowFi.Parts)
	s.model.codes, s.model.coder = alphCodes(p, cm.lowFi), nil
	return cm.newSamples, nil
}

// alphCodes returns M'_0's pool codes, built on first use: each pool
// configuration's declared columns, then each component model's
// prediction for it from M_L's pass over the pool codes, coded by
// discovery (score.QuantizeRows), as no declaration bounds a prediction.
func alphCodes(p *Problem, lf *acm.LowFidelity) func() (*score.Codes, error) {
	var q *score.Codes
	return func() (*score.Codes, error) {
		if q != nil {
			return q, nil
		}
		base, err := p.poolCodes(p.Pool)
		if err != nil {
			return nil, err
		}
		e := p.engine()
		preds := lf.PartScores(e, base, p.spans())
		rows := make([][]float64, base.N)
		e.Map(base.N, func(i int) {
			row := make([]float64, 0, base.Dim+len(preds))
			for f, c := range base.Row(i) {
				row = append(row, base.Value(f, c))
			}
			for _, pr := range preds {
				row = append(row, pr[i])
			}
			rows[i] = row
		})
		if q = score.QuantizeRows(e, rows); q == nil {
			return nil, fmt.Errorf("%w: a feature has more than %d distinct values over the pool", score.ErrWideColumn, score.MaxCodes)
		}
		return q, nil
	}
}
