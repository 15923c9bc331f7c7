package tuner

import (
	"ceal/internal/cfgspace"
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
	// M'_0's features: raw configuration plus each component model's
	// prediction for its sub-configuration.
	coder := p.Space.Columns()
	s.model = newFeatureSurrogate(p, coder.Width()+len(cm.lowFi.Parts), func(cfg cfgspace.Config) []float64 {
		x := coder.Features(cfg)
		for j := range cm.lowFi.Parts {
			part := &cm.lowFi.Parts[j]
			x = append(x, part.Predict(part.Sub(cfg)))
		}
		return x
	})
	return cm.newSamples, nil
}
