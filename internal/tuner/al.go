package tuner

import (
	"ceal/internal/tuner/events"
)

// The AL-family skeleton, written once. AL and ALpH rank with the same
// kind of surrogate over different features (ALpH's adds the component
// models' predictions); the measurement schedule around it is the batch-AL
// setup of [6, 29] as used for the §7.3 baselines, with the
// hyper-parameters nobody varies fixed here rather than carried as
// per-algorithm options (CEAL's are the exception — see CEALOptions). GEIST
// shares the sizes but picks through its parameter graph.
const (
	// seedFrac is the share of the workflow budget measured at random
	// before the first model exists.
	seedFrac = 0.3
	// alIterations is the number of refinement batches after the seed.
	alIterations = 5
	// componentFrac is the budget share ALpH spends on standalone
	// component runs when no history covers them (the middle of the
	// paper's 25–75% guidance, §6).
	componentFrac = 0.5
)

// alBatches is the AL-family measurement schedule: a random seed batch of
// seedFrac of the budget, then the rest spread evenly over alIterations
// batches of the surrogate's top picks.
type alBatches struct {
	surrogateBacked
}

func (b *alBatches) SeedBatch(st *State) ([]int, error) {
	return st.Tracker.takeRandom(initialBatchSize(seedFrac, st.Budget), st.Rng), nil
}

func (b *alBatches) SelectBatch(st *State) ([]int, error) {
	n := evenBatchSize(st)
	if n == 0 {
		return nil, nil
	}
	scorer, err := b.model.poolScorer()
	if err != nil {
		return nil, err
	}
	return st.Tracker.takeTop(n, scorer), nil
}

// initialBatchSize is the shared m0 rule: frac of the budget, at least 2,
// at most the budget.
func initialBatchSize(frac float64, budget int) int {
	m0 := int(frac*float64(budget) + 0.5)
	if m0 < 2 {
		m0 = 2
	}
	if m0 > budget {
		m0 = budget
	}
	return m0
}

// evenBatchSize spreads the remaining budget evenly over the remaining
// refinement iterations. Zero means the run is done: budget spent or pool
// exhausted.
func evenBatchSize(st *State) int {
	remaining := st.Remaining()
	if remaining <= 0 || st.Tracker.left() == 0 {
		return 0
	}
	n := remaining / (alIterations - (st.Iter - 1))
	if n < 1 {
		n = 1
	}
	return n
}

// surrogateBacked is the modeler half of every strategy whose model is one
// boosted-tree Surrogate (RS, AL, ALpH, CEAL, and GEIST's final model):
// refit on everything known, score the pool when asked, report importance
// and rounds.
type surrogateBacked struct {
	model *Surrogate
}

// Fit retrains on the warm priors (if the strategy took any) plus every
// measurement so far.
func (s *surrogateBacked) Fit(st *State, _ []Sample) (bool, error) {
	return true, s.model.Train(st)
}

// Finish scores the pool when asked: the surrogate is already fitted.
func (s *surrogateBacked) Finish(st *State, score bool) ([]float64, error) {
	if !score {
		return nil, nil
	}
	return s.model.PredictPoolInto(make([]float64, len(st.Problem.Pool)))
}

func (s *surrogateBacked) FinalImportance(*State) []float64 {
	return s.model.Importance()
}

// addWork adds the surrogate's work so far, if there is one yet.
func (s *surrogateBacked) addWork(w *events.Work) {
	if s.model != nil {
		s.model.addWork(w)
	}
}

// ModelRounds reports the surrogate's boosting rounds for the trace.
func (s *surrogateBacked) ModelRounds() int { return s.model.Rounds() }

// AL is batch active learning (§7.3): an initial random batch trains the
// surrogate, then each iteration measures the surrogate's current top
// predictions and retrains.
type AL struct{}

// NewAL returns AL.
func NewAL() *AL { return &AL{} }

// Name returns the algorithm name.
func (*AL) Name() string { return "AL" }

// Tune implements Algorithm.
func (*AL) Tune(p *Problem, budget int) (*Result, error) {
	s := &alStrategy{alBatches{surrogateBacked{newSurrogate(p)}}}
	loop := &Loop{Algorithm: "AL", Salt: saltAL, Iterations: alIterations, Strategy: s}
	return loop.Run(p, budget)
}

// alStrategy is the skeleton over the plain workflow surrogate.
type alStrategy struct {
	alBatches
}

// WarmStart pre-trains the surrogate on prior-run samples so SelectBatch's
// very first refinement picks are informed by history.
func (s *alStrategy) WarmStart(st *State) error {
	return s.model.Train(st)
}
