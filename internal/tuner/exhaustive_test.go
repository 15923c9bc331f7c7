package tuner

import (
	"ceal/internal/cfgspace"
)

// Exhaustive measures every pool configuration, budget permitting — the
// brute-force upper bound no practical in-situ tuner can afford (§2.3),
// used to verify that the budgeted algorithms approach the true optimum
// on small problems. It is a test oracle, so it lives in a test file.
type Exhaustive struct{}

const saltEXH = 0x45584858

// Name returns the algorithm name.
func (Exhaustive) Name() string { return "Exhaustive" }

// Tune measures min(budget, |pool|) configurations in pool order.
func (Exhaustive) Tune(p *Problem, budget int) (*Result, error) {
	s := &exhaustiveStrategy{}
	loop := &Loop{Algorithm: "Exhaustive", Salt: saltEXH, Strategy: s}
	return loop.Run(p, budget)
}

// exhaustiveStrategy sweeps the pool in order; there is no model to fit.
type exhaustiveStrategy struct{}

func (*exhaustiveStrategy) SeedBatch(st *State) ([]cfgspace.Config, error) {
	n := st.Budget
	if n > len(st.Problem.Pool) {
		n = len(st.Problem.Pool)
	}
	return st.Problem.Pool[:n], nil
}

func (*exhaustiveStrategy) SelectBatch(*State) ([]cfgspace.Config, error) { return nil, nil }

func (*exhaustiveStrategy) Fit(*State, []Sample) (bool, error) { return false, nil }

// Finish: the "model" is the measurements themselves; unmeasured pool
// entries (budget < |pool|) score as the worst observed value so recall
// metrics treat them as unknown-bad.
func (*exhaustiveStrategy) Finish(st *State, score bool) ([]float64, error) {
	if !score {
		return nil, nil
	}
	worst := 0.0
	for _, s := range st.Samples {
		if s.Value > worst {
			worst = s.Value
		}
	}
	scores := make([]float64, len(st.Problem.Pool))
	for i := range scores {
		if i < len(st.Samples) {
			scores[i] = st.Samples[i].Value
		} else {
			scores[i] = worst
		}
	}
	return scores, nil
}
