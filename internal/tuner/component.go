package tuner

import (
	"fmt"
	"math/rand/v2"

	"ceal/internal/acm"
	"ceal/internal/cfgspace"
	"ceal/internal/ml/xgb"
	"ceal/internal/score"
	"ceal/internal/tuner/events"
)

// componentModels is Phase 1 of the bootstrapping method (Alg. 1, lines
// 1–6): per-component performance models plus the white-box low-fidelity
// combination.
type componentModels struct {
	lowFi *acm.LowFidelity
	// newSamples are the standalone runs measured here (historical data
	// are free and not included), per component.
	newSamples [][]Sample
	// pool caches M_L's score for every pool configuration: the model is
	// frozen once Phase 1 ends, so one pass serves every later ranking of
	// the run.
	pool []float64
	// Phase 1's work: split candidates the component fits scanned, and
	// the component configurations SampleN drew and rejected.
	scanned, draws, rejections int64
}

// addWork adds Phase 1's work and M_L's cells so far to w (nothing for a
// nil cm: Phase 1 has not run).
func (cm *componentModels) addWork(w *events.Work) {
	if cm == nil {
		return
	}
	w.SplitsScanned += cm.scanned
	w.Draws += cm.draws
	w.Rejections += cm.rejections
	w.Cells += cm.lowFi.Cells()
}

// poolScores returns M_L's score for every configuration of p.Pool,
// computed on first use (a warm-started CEAL run that never ranks by M_L
// never pays for it).
func (cm *componentModels) poolScores(p *Problem) ([]float64, error) {
	if cm.pool != nil {
		return cm.pool, nil
	}
	pool, err := cm.scoreRows(p, nil)
	cm.pool = pool
	return pool, err
}

// scoreRows returns M_L's score for the pool configurations at rows (nil:
// every one), read from the pool codes the surrogates share.
func (cm *componentModels) scoreRows(p *Problem, rows []int) ([]float64, error) {
	q, err := p.poolCodes(p.Pool)
	if err != nil {
		return nil, err
	}
	return cm.lowFi.ScoreCodes(p.engine(), q, rows, p.spans(), p.Pool), nil
}

// scorer ranks pool candidates by M_L.
func (cm *componentModels) scorer(p *Problem) (poolScorer, error) {
	scores, err := cm.poolScores(p)
	if err != nil {
		return nil, err
	}
	return func(idxs []int, out []float64, _ float64) {
		for j, idx := range idxs {
			out[j] = scores[idx]
		}
	}, nil
}

// trainComponentModels builds each component's model from mR fresh solo
// runs plus any historical measurements, and combines them with the
// problem's combiner. Unconfigurable components get a constant predictor
// from one (free) solo measurement.
func trainComponentModels(p *Problem, mR int, rng *rand.Rand) (*componentModels, error) {
	parts := make([]acm.Part, len(p.Components))
	newSamples := make([][]Sample, len(p.Components))
	lo := 0
	for j, comp := range p.Components {
		parts[j] = acm.Part{Name: comp.Name, Lo: lo, Hi: lo + comp.dim(), Cores: comp.Cores}
		lo = parts[j].Hi
	}

	// One pass in component order: the collector and the rng both have
	// order-dependent state.
	cm := &componentModels{newSamples: newSamples}
	for j, comp := range p.Components {
		if comp.Space == nil {
			solo, err := p.Collector().MeasureComponents(p.context(), j, []cfgspace.Config{nil})
			if err != nil {
				return nil, fmt.Errorf("tuner: measure fixed component %s: %w", comp.Name, err)
			}
			parts[j].Predictor = acm.ConstPredictor(solo[0].Value)
			continue
		}

		var samples []Sample
		if len(p.History) == len(p.Components) {
			samples = append(samples, p.History[j]...)
		}
		if warm := p.warmComponent(j); len(warm) > 0 {
			samples = append(samples, warm...)
		}
		if mR > 0 {
			cfgs, draws := sampleComponentConfigs(p, j, comp.Space, mR, rng)
			cm.draws += int64(draws)
			cm.rejections += int64(draws - len(cfgs))
			batch, err := p.Collector().MeasureComponents(p.context(), j, cfgs)
			if err != nil {
				return nil, fmt.Errorf("tuner: measure component %s: %w", comp.Name, err)
			}
			samples = append(samples, batch...)
			newSamples[j] = append(newSamples[j], batch...)
		}
		if len(samples) == 0 {
			return nil, fmt.Errorf("tuner: component %s has no measurements (mR=0 and no history)", comp.Name)
		}
		model, err := fitComponentModel(comp, samples)
		if err != nil {
			return nil, fmt.Errorf("tuner: fit component model %s: %w", comp.Name, err)
		}
		parts[j].Predictor = model
		cm.scanned += model.model.SplitsScanned()
	}
	cm.lowFi = &acm.LowFidelity{Combine: p.Combiner, Parts: parts}
	return cm, nil
}

// bootstrapComponents is Phase 1 as every component-based strategy runs it
// from its Bootstrap hook: reserve mR = frac of the budget for standalone
// component runs (Alg. 1 line 1) — nothing when free data already covers
// every component, and never so much that fewer than two workflow runs
// remain — train the component models, and charge mR against st.Budget.
func bootstrapComponents(st *State, frac float64, covered bool) (*componentModels, error) {
	mR := 0
	if !covered {
		mR = int(frac*float64(st.Budget) + 0.5)
		if mR >= st.Budget {
			mR = st.Budget - 2
		}
		if mR < 0 {
			mR = 0
		}
	}
	cm, err := trainComponentModels(st.Problem, mR, st.Rng)
	if err != nil {
		return nil, err
	}
	st.Budget -= mR
	return cm, nil
}

// sampleComponentConfigs draws mR distinct component configurations, from
// the component candidate pool when one is provided, else from the space;
// it also returns how many candidates SampleN drew (none from a pool).
func sampleComponentConfigs(p *Problem, j int, space *cfgspace.Space, mR int, rng *rand.Rand) ([]cfgspace.Config, int) {
	if len(p.ComponentPool) == len(p.Components) && len(p.ComponentPool[j]) > 0 {
		pool := p.ComponentPool[j]
		if mR > len(pool) {
			mR = len(pool)
		}
		idx := rng.Perm(len(pool))[:mR]
		out := make([]cfgspace.Config, mR)
		for i, k := range idx {
			out[i] = pool[k]
		}
		return out, 0
	}
	return space.SampleDraws(rng, mR)
}

// componentModel adapts a log-target boosted tree to acm.Predictor.
type componentModel struct {
	model *xgb.Model
}

func (c componentModel) Cuts() [][]uint16 { return c.model.Cuts() }

func (c componentModel) PredictRows(q *score.Codes, col int, rows []int32, out []float64) {
	c.model.PredictRows(q, col, rows, out)
	for i, v := range out {
		out[i] = unlogTarget(v)
	}
}

// fitComponentModel fits one component's model on its samples coded by
// the component's declared columns, whose lattices its columns of the
// workflow's repeat.
func fitComponentModel(comp ComponentInfo, samples []Sample) (componentModel, error) {
	cfgs := make([]cfgspace.Config, len(samples))
	rows := make([]int32, len(samples))
	for i, smp := range samples {
		cfgs[i], rows[i] = smp.Cfg, int32(i)
	}
	q, err := score.Encode(nil, cfgs, comp.Space.Columns())
	if err != nil {
		return componentModel{}, err
	}
	m, err := new(xgb.Trainer).Fit(q, rows, logTargets(nil, samples), xgb.DefaultParams())
	return componentModel{model: m}, err
}
